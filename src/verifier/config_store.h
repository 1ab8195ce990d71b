// Shard-local store of the pseudoconfigurations one (assignment, core)
// search meets: interned canonical keys, the product's visited bits and a
// successor/component memo.
//
// The paper's `ndfs-pseudo` (Section 3.1) searches pairs of a Büchi state
// and a pseudoconfiguration, storing visited pairs "in a trie data
// structure which allows updates and membership tests in time linear in
// the size of the bitmap" (Section 4). `succP` and the FO components
// depend only on the configuration and the shard, so the store keeps the
// configuration half once, SPIN-style collapse compression (Holzmann,
// "State Compression in SPIN", SPIN Workshop 1997):
//
// * Interning. Every configuration gets a dense id keyed by its canonical
//   key (verifier/encode.h). A key table keeps the keys back to back in one
//   byte arena and finds them through an open-addressing table of 64-bit
//   hashes, probed linearly and doubled whenever it would pass half full.
//   A successor is encoded once.
// * Visited bits. One bit per (flag, Büchi state) per id, packed densely,
//   replaces a byte key per (flag, state, configuration). `Insert` and
//   `Contains` count hits and misses, and `size()` counts stored triples:
//   the statistics the paper's "max trie size" column tracks.
// * Memo. `succP` first advances a configuration to its *skeleton* (page,
//   state and previous inputs recomputed, the database reset to the core)
//   and then completes the skeleton with every extension and input choice.
//   The completions depend only on the skeleton and the previous page, so
//   a second key table interns that pair, and a skeleton's completions are
//   interned into one successor list, in enumeration order, before the
//   search visits any of them. Lists therefore never nest, and one is
//   readable as soon as it is set. A configuration's entry points at its
//   skeleton's list, so a later expansion of it, or of another
//   configuration with the same skeleton, replays the ids. Per id the memo
//   also keeps the FO components' truth values.
// * Decoding. `Decode` rebuilds a `Configuration` from its key, for an id
//   expanded without a memo or reported in a counterexample.
//
// `Reset` keeps every buffer's capacity, so a shard's set-up writes only
// the two 16-slot tables.
#ifndef WAVE_VERIFIER_CONFIG_STORE_H_
#define WAVE_VERIFIER_CONFIG_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "spec/runtime.h"

namespace wave {

/// Dense id of an interned configuration, in interning order.
using ConfigId = uint32_t;

/// Dense id of an interned (previous page, skeleton) key.
using SkeletonId = uint32_t;

/// Lookup counters of the visited bits: every `Insert`/`Contains` is one
/// lookup; a *hit* found the (flag, state, configuration) triple already
/// stored, a *miss* did not.
struct VisitedStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t lookups() const { return hits + misses; }
};

/// Where a successor list lies: `successor(i)` for i in [begin, end).
/// Offsets, not pointers, so a range read while the search interns and
/// memoizes more stays valid.
struct SuccessorRange {
  uint32_t begin = 0;
  uint32_t end = 0;
};

class ConfigStore {
 public:
  /// An empty store; call `Reset` before use.
  ConfigStore() = default;

  /// Empties the store for configurations over `catalog`, an automaton of
  /// `num_states` states and `num_components` FO components, dropping the
  /// counters too.
  void Reset(const Catalog* catalog, int num_states, int num_components);

  // --- interning ---------------------------------------------------------
  /// The id of `config`, interning its key when new.
  ConfigId Intern(const Configuration& config);

  /// Number of interned configurations.
  int num_configs() const { return static_cast<int>(entries_.size()); }

  /// The configuration `id` stands for, rebuilt from its key.
  Configuration Decode(ConfigId id) const;

  // --- visited bits ------------------------------------------------------
  /// Sets the bit of (`flag`, `state`, `id`); true if it was clear.
  bool Insert(int flag, int state, ConfigId id);

  /// Tests the bit of (`flag`, `state`, `id`).
  bool Contains(int flag, int state, ConfigId id) const;

  /// Number of (flag, state, configuration) triples stored.
  int size() const { return size_; }

  /// Cumulative lookup counters since `Reset`.
  const VisitedStats& stats() const { return stats_; }

  // --- memo --------------------------------------------------------------
  bool has_components(ConfigId id) const { return entries_[id].components; }
  /// Records `id`'s component truth values (`values.size()` must be the
  /// `num_components` given to `Reset`).
  void SetComponents(ConfigId id, const std::vector<bool>& values);
  /// Truth value of component `i` at `id` (after `SetComponents`).
  bool component(ConfigId id, int i) const {
    const size_t bit = static_cast<size_t>(id) * num_components_ + i;
    return (component_bits_[bit >> 6] >> (bit & 63)) & 1;
  }

  /// True with `*range` set when `id`'s successor list is set.
  bool FindSuccessors(ConfigId id, SuccessorRange* range) const {
    return entries_[id].successors.Find(range);
  }
  /// Sets `id`'s successor list to `range`, its skeleton's.
  void SetSuccessors(ConfigId id, SuccessorRange range) {
    entries_[id].successors = {range, true};
  }
  ConfigId successor(uint32_t i) const { return successors_[i]; }

  /// The id of the key (`prev_page`, `skeleton`), interning it when new.
  SkeletonId InternSkeleton(int prev_page, const Configuration& skeleton);
  /// True with `*range` set when skeleton `s`'s successor list is set.
  bool FindSkeletonSuccessors(SkeletonId s, SuccessorRange* range) const {
    return skeleton_lists_[s].Find(range);
  }
  /// Sets skeleton `s`'s successor list to `ids`, its completions in
  /// enumeration order, and returns the list's range.
  SuccessorRange SetSkeletonSuccessors(SkeletonId s,
                                       const std::vector<ConfigId>& ids);

  /// Approximate heap footprint in bytes: both key tables, the per-id and
  /// per-skeleton entries, the visited and component bits and the
  /// successor lists. O(1), so the resource governor can poll it per
  /// expansion; vector capacity slack is not counted.
  int64_t approx_bytes() const;

 private:
  /// Byte keys interned to dense ids in interning order.
  class KeyTable {
   public:
    KeyTable();
    void Clear();
    /// The id of the key `bytes`, interning it when new: a new key's id
    /// is the number of keys interned before it.
    uint32_t Intern(const std::vector<uint8_t>& bytes);
    const uint8_t* key(uint32_t id) const { return arena_.data() + begin(id); }
    size_t key_size(uint32_t id) const { return key_ends_[id] - begin(id); }
    int64_t approx_bytes() const;

   private:
    static constexpr uint32_t kEmpty = UINT32_MAX;
    struct Slot {
      uint64_t hash = 0;
      uint32_t id = kEmpty;
    };

    size_t begin(uint32_t id) const { return id == 0 ? 0 : key_ends_[id - 1]; }
    void Grow();

    std::vector<Slot> slots_;         // power-of-two size, at most half full
    std::vector<uint8_t> arena_;      // every key's bytes, back to back
    std::vector<uint32_t> key_ends_;  // by id: where its key ends in arena_
  };

  /// A successor list's place in `successors_`, once set.
  struct List {
    SuccessorRange range;
    bool set = false;

    bool Find(SuccessorRange* out) const {
      if (set) *out = range;
      return set;
    }
  };
  struct Entry {
    List successors;
    bool components = false;
  };

  const Catalog* catalog_ = nullptr;
  size_t num_states_ = 0;
  size_t num_components_ = 0;

  KeyTable configs_;                  // by ConfigId
  KeyTable skeletons_;                // (skeleton, previous page), by SkeletonId
  std::vector<uint8_t> scratch_;      // the key being interned
  std::vector<Entry> entries_;        // by ConfigId
  std::vector<List> skeleton_lists_;  // by SkeletonId

  std::vector<uint64_t> visited_bits_;    // (id * 2 + flag) * states + state
  std::vector<uint64_t> component_bits_;  // id * num_components + i
  int size_ = 0;
  mutable VisitedStats stats_;  // mutable: `Contains` is logically const

  std::vector<ConfigId> successors_;  // every list, back to back
};

}  // namespace wave

#endif  // WAVE_VERIFIER_CONFIG_STORE_H_
