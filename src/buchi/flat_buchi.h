// The working form of the LTL → Büchi translation: a Büchi automaton in
// flat arrays, with its guards interned to ids ranked in lexicographic
// `Guard` order, and the simplification passes over it. `LtlToBuchi`
// degeneralizes its tableau into one, simplifies it and materializes a
// `BuchiAutomaton` once, at the end.
#ifndef WAVE_BUCHI_FLAT_BUCHI_H_
#define WAVE_BUCHI_FLAT_BUCHI_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "buchi/buchi.h"

namespace wave {

/// Counts the steps of a long construction and calls a stop check once
/// every few hundred of them, so its loops read no clock per step. The
/// check is given the bytes the construction last said it holds. Once it
/// returns true the poll latches: every later `Tick` or `Poll` is true and
/// calls nothing.
class StopPoll {
 public:
  /// `stop` may be empty (the construction never stops); it must outlive
  /// the poll.
  explicit StopPoll(const std::function<bool(int64_t)>& stop)
      : stop_(stop) {}

  /// Counts `steps` steps; true once the stop check has fired.
  bool Tick(int64_t steps = 1) {
    if (stopped_ || !stop_) return stopped_;
    until_poll_ -= steps;
    if (until_poll_ > 0) return false;
    return Poll();
  }

  /// Calls the stop check now, whatever the count (before a large
  /// allocation, say); true once it has fired.
  bool Poll() {
    if (stopped_ || !stop_) return stopped_;
    until_poll_ = kStride;
    stopped_ = stop_(bytes_);
    return stopped_;
  }

  /// The bytes the construction holds, for the next stop check.
  void set_bytes(int64_t bytes) { bytes_ = bytes; }

  bool stopped() const { return stopped_; }

 private:
  static constexpr int64_t kStride = 256;

  const std::function<bool(int64_t)>& stop_;
  int64_t until_poll_ = kStride;
  int64_t bytes_ = 0;
  bool stopped_ = false;
};

/// Guards interned to dense ids. After `Rank`, ids follow lexicographic
/// `Guard` order, the order `BuchiTransition::operator<` uses, so sorting
/// (target, guard id) pairs sorts transitions exactly as it does.
class GuardTable {
 public:
  /// The id of the normalized guard `[lits, lits + n)`, interned if new.
  /// Not after `Rank`.
  int Intern(const Literal* lits, int n);

  /// Renumbers the guards in lexicographic order, once every guard is
  /// interned; returns the new id of each old one.
  std::vector<int> Rank();

  int size() const { return static_cast<int>(first_.size()) - 1; }

  /// True if guard `sub`'s literals all occur in guard `super`.
  bool Includes(int super, int sub) const;

  Guard ToGuard(int id) const {
    return Guard(lits_.begin() + first_[id], lits_.begin() + first_[id + 1]);
  }

 private:
  void Index(int id);

  std::vector<Literal> lits_;
  std::vector<int> first_ = {0};  // guard g: lits_[first_[g], first_[g + 1])
  // Until `Rank`: the guards' hashes by id, and an open-addressing index of
  // ids over them (-1 empty).
  std::vector<uint64_t> hashes_;
  std::vector<int> slots_;
  bool ranked_ = false;
};

/// A transition: target state and guard id.
struct FlatEdge {
  int to;
  int guard;

  friend bool operator==(const FlatEdge& a, const FlatEdge& b) {
    return a.to == b.to && a.guard == b.guard;
  }
  friend bool operator<(const FlatEdge& a, const FlatEdge& b) {
    return a.to != b.to ? a.to < b.to : a.guard < b.guard;
  }
};

/// A Büchi automaton in flat arrays. State s's transitions are
/// `edges[first[s]]` up to `edges[first[s + 1]]`, sorted by (target, guard
/// id) and duplicate-free.
struct FlatBuchi {
  int start = 0;
  std::vector<int> first = {0};
  std::vector<FlatEdge> edges;
  std::vector<char> accepting;

  int NumStates() const { return static_cast<int>(first.size()) - 1; }
  int NumTransitions() const { return static_cast<int>(edges.size()); }
  int64_t Bytes() const {
    return static_cast<int64_t>(first.capacity() * sizeof(int) +
                                edges.capacity() * sizeof(FlatEdge) +
                                accepting.capacity());
  }
};

/// Simplifies to a fixpoint. Each round drops the states unreachable from
/// the start and every transition whose guard is a superset of another's
/// to the same target, clears acceptance off cycles, merges states that
/// partition refinement over (acceptance, labelled successor classes)
/// cannot tell apart, and prunes the states that reach no accepting cycle
/// (keeping the start). Ticks `poll` and returns as soon as it stops,
/// leaving an automaton the caller must discard.
void Simplify(const GuardTable& guards, StopPoll& poll, FlatBuchi* a);

/// True if an accepting state reachable from the start lies on a cycle.
/// Reads only the targets, so any guard ids will do.
bool HasAcceptingLasso(const FlatBuchi& a);

/// The automaton as a `BuchiAutomaton` over `num_props` propositions.
BuchiAutomaton Materialize(const FlatBuchi& a, const GuardTable& guards,
                           int num_props);

}  // namespace wave

#endif  // WAVE_BUCHI_FLAT_BUCHI_H_
