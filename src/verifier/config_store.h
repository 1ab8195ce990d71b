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
//   key (verifier/encode.h), kept back to back in one byte arena and found
//   through an open-addressing table of 64-bit hashes, probed linearly and
//   doubled whenever it would pass half full. A successor is encoded once.
// * Visited bits. One bit per (flag, Büchi state) per id, packed densely,
//   replaces a byte key per (flag, state, configuration). `Insert` and
//   `Contains` count hits and misses, and `size()` counts stored triples:
//   the statistics the paper's "max trie size" column tracks.
// * Memo. Per id, the FO components' truth values and the ids of its
//   successors in `succP`'s enumeration order. A successor list is filled
//   during the id's first enumeration and becomes readable only when that
//   enumeration finishes, so later expansions under any automaton state
//   replay it; an id whose list is still being filled (an ancestor frame
//   of the DFS is enumerating it) is enumerated again, unrecorded.
// * Decoding. `Decode` rebuilds a `Configuration` from its key, for an id
//   expanded without a memo or reported in a counterexample.
//
// `Reset` keeps every buffer's capacity, so a shard's set-up writes only
// the 16-slot table.
#ifndef WAVE_VERIFIER_CONFIG_STORE_H_
#define WAVE_VERIFIER_CONFIG_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "spec/runtime.h"

namespace wave {

/// Dense id of an interned configuration, in interning order.
using ConfigId = uint32_t;

/// Lookup counters of the visited bits: every `Insert`/`Contains` is one
/// lookup; a *hit* found the (flag, state, configuration) triple already
/// stored, a *miss* did not.
struct VisitedStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t lookups() const { return hits + misses; }
};

/// Where a configuration's memoized successors lie: `successor(i)` for i
/// in [begin, end). Offsets, not pointers, so a range read while the
/// search interns and memoizes more stays valid.
struct SuccessorRange {
  uint32_t begin = 0;
  uint32_t end = 0;
};

class ConfigStore {
 public:
  /// An empty store; call `Reset` before use.
  ConfigStore();

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

  /// True with `*range` set when `id`'s successor list is complete.
  bool FindSuccessors(ConfigId id, SuccessorRange* range) const;
  ConfigId successor(uint32_t i) const { return successors_[i]; }

  /// Starts recording `id`'s successors and returns true, or returns false
  /// when its list is already being recorded (or complete): the caller
  /// then enumerates without `AddSuccessor`. Recordings nest like the
  /// enumerations that make them.
  bool BeginSuccessors(ConfigId id);
  /// Appends `next` to the innermost recording.
  void AddSuccessor(ConfigId next) {
    fills_[fill_depth_ - 1].ids.push_back(next);
    ++filling_ids_;
  }
  /// Completes the innermost recording, which must be `id`'s.
  void EndSuccessors(ConfigId id);

  /// Approximate heap footprint in bytes: the slot table, the key arena,
  /// the per-id entries, the visited and component bits and the successor
  /// lists, complete or being recorded. O(1), so the resource governor can
  /// poll it per expansion; vector capacity slack is not counted.
  int64_t approx_bytes() const;

 private:
  static constexpr ConfigId kEmpty = UINT32_MAX;
  enum class Memo : uint8_t { kNone, kFilling, kComplete };

  struct Slot {
    uint64_t hash = 0;
    ConfigId id = kEmpty;
  };
  struct Entry {
    uint32_t key_end = 0;  // key is arena_[previous entry's key_end, key_end)
    SuccessorRange successors;
    Memo memo = Memo::kNone;
    bool components = false;
  };

  size_t KeyBegin(ConfigId id) const {
    return id == 0 ? 0 : entries_[id - 1].key_end;
  }
  void Grow();

  /// One open recording: the id whose successors it collects.
  struct Fill {
    ConfigId id = 0;
    std::vector<ConfigId> ids;
  };

  const Catalog* catalog_ = nullptr;
  size_t num_states_ = 0;
  size_t num_components_ = 0;

  std::vector<Slot> slots_;     // power-of-two size, at most half full
  std::vector<uint8_t> arena_;  // every key's bytes, back to back
  std::vector<Entry> entries_;  // by id
  std::vector<uint8_t> scratch_;  // the key being interned

  std::vector<uint64_t> visited_bits_;    // (id * 2 + flag) * states + state
  std::vector<uint64_t> component_bits_;  // id * num_components + i
  int size_ = 0;
  mutable VisitedStats stats_;  // mutable: `Contains` is logically const

  std::vector<ConfigId> successors_;  // complete lists, back to back
  std::vector<Fill> fills_;  // [0, fill_depth_) open, innermost last
  size_t fill_depth_ = 0;
  int64_t filling_ids_ = 0;  // ids held by open recordings
};

}  // namespace wave

#endif  // WAVE_VERIFIER_CONFIG_STORE_H_
