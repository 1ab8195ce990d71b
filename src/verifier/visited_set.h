// Set of visited pseudoconfigurations. The paper (Section 4) stores them
// "in a trie data structure which allows updates and membership tests in
// time linear in the size of the bitmap"; an open-addressing hash set has
// the same linear-in-the-key cost (one hash pass plus one compare) without
// a child search at every trie node, and was measured faster on the
// search's keys (DESIGN.md §2).
//
// Keys are byte strings (the canonical encoding of (flag, Büchi state,
// pseudoconfiguration)), stored back to back in one byte arena. The slot
// table holds each key's 64-bit hash and index, is probed linearly, and
// doubles whenever it would pass half full. `size()` reports the number of
// stored keys, the statistic the paper's "max trie size" column tracks.
#ifndef WAVE_VERIFIER_VISITED_SET_H_
#define WAVE_VERIFIER_VISITED_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wave {

/// Lookup counters: every `Insert`/`Contains` is one lookup; a *hit* found
/// the key already stored, a *miss* did not. The hit rate is the fraction
/// of search revisits the visited set pruned.
struct VisitedSetStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t lookups() const { return hits + misses; }
};

/// Set of byte-string keys.
class VisitedSet {
 public:
  VisitedSet();

  /// Inserts `key`; returns true if it was newly added.
  bool Insert(const std::vector<uint8_t>& key);

  /// Membership test.
  bool Contains(const std::vector<uint8_t>& key) const;

  /// Number of stored keys.
  int size() const { return static_cast<int>(key_end_.size()); }

  /// Approximate heap footprint in bytes (slot table + key bytes + key
  /// offsets), O(1) so the resource governor can poll it per expansion.
  /// An estimate, not an allocator measurement: vector capacity slack is
  /// not counted.
  int64_t approx_bytes() const {
    return static_cast<int64_t>(slots_.size() * sizeof(Slot) +
                                arena_.size() +
                                key_end_.size() * sizeof(size_t));
  }

  /// Cumulative lookup counters (reset by `Clear`).
  const VisitedSetStats& stats() const { return stats_; }

  /// Drops every key, the counters and the memory beyond a fresh set's.
  void Clear() { *this = VisitedSet(); }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  struct Slot {
    uint64_t hash = 0;
    uint32_t key = kEmpty;  // index into key_end_
  };

  /// Index of the slot holding `key` (whose hash is `hash`), or of the
  /// empty slot where the probe for it ended.
  size_t Find(const std::vector<uint8_t>& key, uint64_t hash) const;
  void Grow();

  std::vector<Slot> slots_;       // power-of-two size, at most half full
  std::vector<uint8_t> arena_;    // every key's bytes, back to back
  std::vector<size_t> key_end_;   // key k is arena_[key_end_[k-1], key_end_[k])
  mutable VisitedSetStats stats_;  // mutable: `Contains` is logically const
};

}  // namespace wave

#endif  // WAVE_VERIFIER_VISITED_SET_H_
