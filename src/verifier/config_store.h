// Shard-local store of the pseudoconfigurations one (assignment, core)
// search meets: a tuple table, bitset configurations interned to dense
// ids, the product's visited bits and a successor/component memo.
//
// The paper's `ndfs-pseudo` (Section 3.1) searches pairs of a Büchi state
// and a pseudoconfiguration, storing visited pairs "in a trie data
// structure which allows updates and membership tests in time linear in
// the size of the bitmap" (Section 4). `succP` and the FO components
// depend only on the configuration and the shard, so the store keeps the
// configuration half once, SPIN-style collapse compression (Holzmann,
// "State Compression in SPIN", SPIN Workshop 1997):
//
// * Tuple table. Every (relation, tuple) the search meets is interned on
//   first sight to a dense `TupleId`, its bit. The table keeps the values,
//   whether they all lie in the constant universe C, and one mask per
//   relation and per relation kind. It fills lazily, so no per-relation
//   tuple universe is fixed up front (that would need a second dataflow
//   pass over derived relations; see DESIGN.md).
// * Configurations. A pseudoconfiguration is a page plus two bitsets over
//   the table, `data` and `previous` (`ConfigWords`). Evaluation reads them
//   through `WordsView`; a successor is a word copy plus masks.
// * Interning. Every configuration gets a dense id keyed by its words: a
//   header word (page, data length), then both bitsets with trailing zero
//   words trimmed, so a key stays canonical while the table grows. A key
//   table keeps the keys back to back in one word arena and finds them
//   through an open-addressing table of 64-bit hashes, probed linearly and
//   doubled whenever it would pass half full; equality is `memcmp`.
// * Visited bits. One bit per (flag, Büchi state) per id, packed densely,
//   replaces a key per (flag, state, configuration). `Insert` and
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
// * Edges. `Pack` and `Unpack` convert from and to `Configuration`, for
//   counterexamples and tests.
//
// `Reset` keeps every buffer's capacity, so a shard's set-up writes only
// the three 16-slot tables and the per-relation masks' lengths.
#ifndef WAVE_VERIFIER_CONFIG_STORE_H_
#define WAVE_VERIFIER_CONFIG_STORE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fo/view.h"
#include "spec/runtime.h"

namespace wave {

/// Dense id of an interned configuration, in interning order.
using ConfigId = uint32_t;

/// Dense id of an interned (previous page, skeleton) key.
using SkeletonId = uint32_t;

/// Dense id of an interned (relation, tuple): its bit in a configuration.
using TupleId = uint32_t;
inline constexpr TupleId kNoTuple = UINT32_MAX;

/// A bitset over a tuple table. Words past the vector's end are zero, so a
/// bitset may be shorter than the table is wide.
using Words = std::vector<uint64_t>;

inline bool TestBit(const Words& words, TupleId t) {
  const size_t w = t >> 6;
  return w < words.size() && ((words[w] >> (t & 63)) & 1);
}
inline void SetBit(Words* words, TupleId t) {
  const size_t w = t >> 6;
  if (w >= words->size()) words->resize(w + 1, 0);
  (*words)[w] |= uint64_t{1} << (t & 63);
}
/// Calls `fn(t)` for every set bit `t` of `words`, in increasing order.
template <typename Fn>
void ForEachBit(const Words& words, Fn fn) {
  for (size_t w = 0; w < words.size(); ++w) {
    for (uint64_t m = words[w]; m != 0; m &= m - 1) {
      fn(static_cast<TupleId>(w * 64 + std::countr_zero(m)));
    }
  }
}

/// A pseudoconfiguration over a shard's tuple table: the current page and
/// the bits of the tuples in `data` (database, state, input and action
/// relations) and `previous` (the previous step's inputs).
struct ConfigWords {
  int page = 0;
  Words data;
  Words previous;
};

/// Every (relation, tuple) a shard's search meets, interned on first sight.
class TupleTable {
 public:
  TupleTable();

  /// Empties the table for tuples over `catalog`. A value lies in C when
  /// `in_universe` has it set; a null `in_universe` puts every value in C.
  void Reset(const Catalog* catalog, const std::vector<bool>* in_universe);

  /// The id of (`relation`, `values`), interning it when new. `values`
  /// holds the relation's arity of values.
  TupleId Intern(RelationId relation, const SymbolId* values);
  /// The id of (`relation`, `values`), or kNoTuple if never interned.
  TupleId Find(RelationId relation, const SymbolId* values) const;

  size_t size() const { return relations_.size(); }
  const Catalog& catalog() const { return *catalog_; }
  RelationId relation(TupleId t) const { return relations_[t]; }
  int arity(TupleId t) const { return catalog_->schema(relations_[t]).arity; }
  const SymbolId* values(TupleId t) const {
    return values_.data() + offsets_[t];
  }

  /// Tuples whose values all lie in C.
  const Words& in_universe() const { return in_universe_mask_; }
  /// Tuples of relations of `kind`.
  const Words& kind_mask(RelationKind kind) const {
    return kind_masks_[static_cast<size_t>(kind)];
  }
  /// Tuples of relation `id`.
  const Words& relation_mask(RelationId id) const {
    return relation_masks_[id];
  }

  /// Approximate heap footprint in bytes (capacity slack not counted).
  int64_t approx_bytes() const;

 private:
  struct Slot {
    uint32_t hash = 0;
    TupleId id = kNoTuple;
  };
  static constexpr size_t kKinds = 5;

  uint32_t Hash(RelationId relation, const SymbolId* values) const;
  bool Equals(TupleId t, RelationId relation, const SymbolId* values) const;
  /// The slot holding (`relation`, `values`), or the empty slot where it
  /// would go.
  size_t Probe(uint32_t hash, RelationId relation,
               const SymbolId* values) const;
  void Grow();
  /// Sets bit `t` of `mask`, counting the words it grows by.
  void Mark(Words* mask, TupleId t);

  const Catalog* catalog_ = nullptr;
  const std::vector<bool>* in_universe_ = nullptr;
  std::vector<Slot> slots_;         // power-of-two size, at most half full
  std::vector<RelationId> relations_;  // by TupleId
  std::vector<uint32_t> offsets_;      // by TupleId: first value in values_
  std::vector<SymbolId> values_;       // every tuple's values, back to back
  Words in_universe_mask_;
  Words kind_masks_[kKinds];
  std::vector<Words> relation_masks_;  // by RelationId
  size_t mask_words_ = 0;              // summed over every mask
};

/// A `ConfigWords` read through its tuple table: what the prepared rules
/// and FO components evaluate over during the search.
class WordsView final : public ConfigurationView {
 public:
  WordsView(const TupleTable* tuples, const ConfigWords* config)
      : tuples_(tuples), config_(config) {}

  bool ForEachTuple(RelationId id, bool previous,
                    TupleVisitor visit) const override;
  bool Contains(RelationId id, bool previous,
                const SymbolId* values) const override;
  int current_page() const override { return config_->page; }

 private:
  const TupleTable* tuples_;
  const ConfigWords* config_;
};

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

  /// Empties the store, its tuple table included, for configurations over
  /// `catalog` (C given by `in_universe`, see `TupleTable::Reset`), an
  /// automaton of `num_states` states and `num_components` FO components,
  /// dropping the counters too.
  void Reset(const Catalog* catalog, int num_states, int num_components,
             const std::vector<bool>* in_universe = nullptr);

  TupleTable& tuples() { return tuples_; }
  const TupleTable& tuples() const { return tuples_; }

  // --- interning ---------------------------------------------------------
  /// The id of `config`, interning its key when new.
  ConfigId Intern(const ConfigWords& config);

  /// Number of interned configurations.
  int num_configs() const { return static_cast<int>(entries_.size()); }

  /// Writes the configuration `id` stands for into `*out`.
  void Load(ConfigId id, ConfigWords* out) const;

  /// `config` as words, interning its tuples.
  ConfigWords Pack(const Configuration& config);
  /// The `Configuration` `config` stands for.
  Configuration Unpack(const ConfigWords& config) const;
  /// The `Configuration` `id` stands for.
  Configuration Materialize(ConfigId id) const;

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
  SkeletonId InternSkeleton(int prev_page, const ConfigWords& skeleton);
  /// True with `*range` set when skeleton `s`'s successor list is set.
  bool FindSkeletonSuccessors(SkeletonId s, SuccessorRange* range) const {
    return skeleton_lists_[s].Find(range);
  }
  /// Sets skeleton `s`'s successor list to `ids`, its completions in
  /// enumeration order, and returns the list's range.
  SuccessorRange SetSkeletonSuccessors(SkeletonId s,
                                       const std::vector<ConfigId>& ids);

  /// Approximate heap footprint in bytes: the tuple table, both key
  /// tables, the per-id and per-skeleton entries, the visited and
  /// component bits and the successor lists. O(1), so the resource
  /// governor can poll it per expansion; vector capacity slack is not
  /// counted.
  int64_t approx_bytes() const;

 private:
  /// Word keys interned to dense ids in interning order.
  class KeyTable {
   public:
    KeyTable();
    void Clear();
    /// The id of the key `words`, interning it when new: a new key's id
    /// is the number of keys interned before it.
    uint32_t Intern(const Words& words);
    const uint64_t* key(uint32_t id) const {
      return arena_.data() + begin(id);
    }
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
    Words arena_;                     // every key's words, back to back
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

  /// Writes `config`'s canonical key into `scratch_`.
  void EncodeKey(const ConfigWords& config);

  size_t num_states_ = 0;
  size_t num_components_ = 0;

  TupleTable tuples_;
  KeyTable configs_;                  // by ConfigId
  KeyTable skeletons_;                // (skeleton, previous page), by SkeletonId
  Words scratch_;                     // the key being interned
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
