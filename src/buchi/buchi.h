// Büchi automata with transitions guarded by conjunctions of propositional
// literals (the flavour used by SPIN and by the paper's ndfs search:
// "(s, δ, t) states that A may transition from s1 to s2 if the current
// input is a satisfying assignment for δ").
#ifndef WAVE_BUCHI_BUCHI_H_
#define WAVE_BUCHI_BUCHI_H_

#include <functional>
#include <string>
#include <vector>

namespace wave {

/// One propositional literal of a transition guard.
struct Literal {
  int prop = 0;
  bool positive = true;

  friend bool operator==(const Literal& a, const Literal& b) {
    return a.prop == b.prop && a.positive == b.positive;
  }
  friend bool operator<(const Literal& a, const Literal& b) {
    if (a.prop != b.prop) return a.prop < b.prop;
    return a.positive < b.positive;
  }
};

/// Conjunction of literals; empty guard == true. Kept sorted and
/// duplicate-free (see `NormalizeGuard`).
using Guard = std::vector<Literal>;

/// Sorts and dedups; returns false if the guard is contradictory (contains
/// both a literal and its negation), in which case the transition should be
/// dropped.
bool NormalizeGuard(Guard* guard);

/// True if `assignment` (one bool per proposition) satisfies the guard.
bool GuardSatisfied(const Guard& guard, const std::vector<bool>& assignment);

struct BuchiTransition {
  int to = 0;
  Guard guard;

  friend bool operator==(const BuchiTransition& a, const BuchiTransition& b) {
    return a.to == b.to && a.guard == b.guard;
  }
  friend bool operator<(const BuchiTransition& a, const BuchiTransition& b) {
    if (a.to != b.to) return a.to < b.to;
    return a.guard < b.guard;
  }
};

/// Nondeterministic Büchi automaton over truth assignments of `num_props`
/// propositions. A run is accepting iff it visits an accepting state
/// infinitely often.
struct BuchiAutomaton {
  int num_props = 0;
  int start = 0;
  std::vector<std::vector<BuchiTransition>> adj;  // by source state
  std::vector<bool> accepting;

  int NumStates() const { return static_cast<int>(adj.size()); }
  int NumTransitions() const;

  /// True if no accepting lasso exists at all (empty language), assuming
  /// guards are satisfiable (they are normalized).
  bool IsEmptyLanguage() const;

  /// Graphviz rendering; `prop_name` may be null (then "P<i>").
  std::string ToDot(const std::function<std::string(int)>& prop_name) const;
};

}  // namespace wave

#endif  // WAVE_BUCHI_BUCHI_H_
