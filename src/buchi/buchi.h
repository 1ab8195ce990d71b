// Büchi automata with transitions guarded by conjunctions of propositional
// literals (the flavour used by SPIN and by the paper's ndfs search:
// "(s, δ, t) states that A may transition from s1 to s2 if the current
// input is a satisfying assignment for δ").
#ifndef WAVE_BUCHI_BUCHI_H_
#define WAVE_BUCHI_BUCHI_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace wave {

/// Counts the steps of a long construction and calls a stop check once
/// every few hundred of them, so its loops read no clock per step. Once
/// the check returns true the poll latches and every later `Tick` is true.
class StopPoll {
 public:
  /// `stop` may be empty (the construction never stops); it must outlive
  /// the poll.
  explicit StopPoll(const std::function<bool()>& stop) : stop_(stop) {}

  /// Counts `steps` steps; true once the stop check has fired.
  bool Tick(int64_t steps = 1) {
    if (stopped_ || !stop_) return stopped_;
    until_poll_ -= steps;
    if (until_poll_ > 0) return false;
    until_poll_ = kStride;
    stopped_ = stop_();
    return stopped_;
  }

  bool stopped() const { return stopped_; }

 private:
  static constexpr int64_t kStride = 256;

  const std::function<bool()>& stop_;
  int64_t until_poll_ = kStride;
  bool stopped_ = false;
};

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

  /// Drops states unreachable from `start` (renumbering the rest).
  void RemoveUnreachable();

  /// Canonicalizes acceptance: a state that cannot reach itself lies on no
  /// cycle, so its acceptance flag is irrelevant; clear it. Enables merges.
  void ClearAcceptanceOffCycles();

  // The passes below that can take more than linear time tick `poll` and
  // return early once it stops, leaving a well-formed automaton that is no
  // longer equivalent to the formula: a caller whose poll stopped discards
  // it. A poll over an empty stop check never stops them.

  /// Drops transitions whose guard is subsumed by a weaker guard to the
  /// same target (g1 ⊆ g2 with equal targets makes g2 redundant).
  void RemoveSubsumedTransitions(StopPoll& poll);

  /// Merges states that are equivalent under repeated partition refinement
  /// over (accepting, labelled successor partitions).
  void MergeEquivalentStates(StopPoll& poll);

  /// Removes states from which no accepting cycle is reachable. May remove
  /// the start state's successors; if the start itself dies the automaton
  /// becomes empty (one non-accepting state with no transitions).
  void PruneDeadStates(StopPoll& poll);

  /// All of the above, to fixpoint.
  void Simplify(StopPoll& poll);

  /// True if no accepting lasso exists at all (empty language), assuming
  /// guards are satisfiable (they are normalized).
  bool IsEmptyLanguage() const;

  /// Graphviz rendering; `prop_name` may be null (then "P<i>").
  std::string ToDot(const std::function<std::string(int)>& prop_name) const;
};

}  // namespace wave

#endif  // WAVE_BUCHI_BUCHI_H_
