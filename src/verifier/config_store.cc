#include "verifier/config_store.h"

#include <cstring>

#include "common/check.h"
#include "obs/alloc.h"

namespace wave {

namespace {

constexpr size_t kInitialSlots = 16;

/// splitmix64's finalizer: every input bit reaches every output bit, so
/// the low bits that pick a slot depend on the whole key.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// 64-bit hash of a word string. In-process only.
uint64_t HashWords(const uint64_t* p, size_t n) {
  uint64_t h = 0x9e3779b97f4a7c15ULL * (n + 1);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return Mix(h);
}

/// `words` without its trailing zero words: the canonical length.
size_t TrimmedSize(const Words& words) {
  size_t n = words.size();
  while (n > 0 && words[n - 1] == 0) --n;
  return n;
}

size_t WordsFor(size_t bits) { return (bits + 63) / 64; }

}  // namespace

// --- TupleTable ---------------------------------------------------------------

TupleTable::TupleTable() : slots_(kInitialSlots) {}

void TupleTable::Reset(const Catalog* catalog,
                       const std::vector<bool>* in_universe) {
  catalog_ = catalog;
  in_universe_ = in_universe;
  slots_.assign(kInitialSlots, Slot{});
  relations_.clear();
  offsets_.clear();
  values_.clear();
  in_universe_mask_.clear();
  for (Words& mask : kind_masks_) mask.clear();
  relation_masks_.resize(catalog->size());
  for (Words& mask : relation_masks_) mask.clear();
  mask_words_ = 0;
}

void TupleTable::Mark(Words* mask, TupleId t) {
  const size_t before = mask->size();
  SetBit(mask, t);
  mask_words_ += mask->size() - before;
}

uint32_t TupleTable::Hash(RelationId relation, const SymbolId* values) const {
  uint64_t h = 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(relation) + 1);
  const int arity = catalog_->schema(relation).arity;
  for (int i = 0; i < arity; ++i) {
    h = (h ^ static_cast<uint32_t>(values[i])) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return static_cast<uint32_t>(Mix(h));
}

bool TupleTable::Equals(TupleId t, RelationId relation,
                        const SymbolId* values) const {
  if (relations_[t] != relation) return false;
  const int arity = catalog_->schema(relation).arity;
  return arity == 0 || std::memcmp(this->values(t), values,
                                   sizeof(SymbolId) * arity) == 0;
}

size_t TupleTable::Probe(uint32_t hash, RelationId relation,
                         const SymbolId* values) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kNoTuple ||
        (slot.hash == hash && Equals(slot.id, relation, values))) {
      return i;
    }
  }
}

TupleId TupleTable::Find(RelationId relation, const SymbolId* values) const {
  return slots_[Probe(Hash(relation, values), relation, values)].id;
}

TupleId TupleTable::Intern(RelationId relation, const SymbolId* values) {
  const uint32_t hash = Hash(relation, values);
  const size_t i = Probe(hash, relation, values);
  if (slots_[i].id != kNoTuple) return slots_[i].id;
  const TupleId t = static_cast<TupleId>(relations_.size());
  WAVE_CHECK_MSG(t != kNoTuple, "tuple table past 2^32 tuples");
  slots_[i] = {hash, t};
  const RelationSchema& schema = catalog_->schema(relation);
  relations_.push_back(relation);
  offsets_.push_back(static_cast<uint32_t>(values_.size()));
  values_.insert(values_.end(), values, values + schema.arity);
  bool in_universe = true;
  for (int k = 0; in_universe && in_universe_ != nullptr && k < schema.arity;
       ++k) {
    const size_t v = static_cast<size_t>(values[k]);
    in_universe = v < in_universe_->size() && (*in_universe_)[v];
  }
  if (in_universe) Mark(&in_universe_mask_, t);
  Mark(&kind_masks_[static_cast<size_t>(schema.kind)], t);
  Mark(&relation_masks_[relation], t);
  obs::CountAlloc(static_cast<int64_t>(sizeof(RelationId) + sizeof(uint32_t) +
                                       schema.arity * sizeof(SymbolId)));
  if (relations_.size() * 2 > slots_.size()) Grow();
  return t;
}

void TupleTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  obs::CountAlloc(static_cast<int64_t>(slots_.size() * sizeof(Slot)));
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kNoTuple) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].id != kNoTuple) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

int64_t TupleTable::approx_bytes() const {
  return static_cast<int64_t>(
      slots_.size() * sizeof(Slot) + relations_.size() * sizeof(RelationId) +
      offsets_.size() * sizeof(uint32_t) + values_.size() * sizeof(SymbolId) +
      mask_words_ * sizeof(uint64_t));
}

// --- WordsView -----------------------------------------------------------------

bool WordsView::ForEachTuple(RelationId id, bool previous,
                             TupleVisitor visit) const {
  const Words& words = previous ? config_->previous : config_->data;
  const Words& mask = tuples_->relation_mask(id);
  const size_t n = words.size() < mask.size() ? words.size() : mask.size();
  for (size_t w = 0; w < n; ++w) {
    for (uint64_t m = words[w] & mask[w]; m != 0; m &= m - 1) {
      const TupleId t = static_cast<TupleId>(w * 64 + std::countr_zero(m));
      if (!visit(tuples_->values(t))) return false;
    }
  }
  return true;
}

bool WordsView::Contains(RelationId id, bool previous,
                         const SymbolId* values) const {
  const TupleId t = tuples_->Find(id, values);
  return t != kNoTuple &&
         TestBit(previous ? config_->previous : config_->data, t);
}

// --- ConfigStore ---------------------------------------------------------------

ConfigStore::KeyTable::KeyTable() : slots_(kInitialSlots) {}

void ConfigStore::KeyTable::Clear() {
  slots_.assign(kInitialSlots, Slot{});
  arena_.clear();
  key_ends_.clear();
}

uint32_t ConfigStore::KeyTable::Intern(const Words& words) {
  const uint64_t hash = HashWords(words.data(), words.size());
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  for (;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kEmpty) break;
    if (slot.hash != hash) continue;
    if (key_size(slot.id) == words.size() &&
        std::memcmp(key(slot.id), words.data(),
                    words.size() * sizeof(uint64_t)) == 0) {
      return slot.id;
    }
  }
  WAVE_CHECK_MSG(arena_.size() + words.size() < UINT32_MAX,
                 "key arena past 2^32 words");
  const uint32_t id = static_cast<uint32_t>(key_ends_.size());
  slots_[i] = {hash, id};
  arena_.insert(arena_.end(), words.begin(), words.end());
  key_ends_.push_back(static_cast<uint32_t>(arena_.size()));
  obs::CountAlloc(static_cast<int64_t>(words.size() * sizeof(uint64_t) +
                                       sizeof(uint32_t)));
  if (key_ends_.size() * 2 > slots_.size()) Grow();
  return id;
}

int64_t ConfigStore::KeyTable::approx_bytes() const {
  return static_cast<int64_t>(slots_.size() * sizeof(Slot) +
                              arena_.size() * sizeof(uint64_t) +
                              key_ends_.size() * sizeof(uint32_t));
}

void ConfigStore::KeyTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  obs::CountAlloc(static_cast<int64_t>(slots_.size() * sizeof(Slot)));
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kEmpty) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].id != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void ConfigStore::Reset(const Catalog* catalog, int num_states,
                        int num_components,
                        const std::vector<bool>* in_universe) {
  num_states_ = static_cast<size_t>(num_states);
  num_components_ = static_cast<size_t>(num_components);
  tuples_.Reset(catalog, in_universe);
  configs_.Clear();
  skeletons_.Clear();
  entries_.clear();
  skeleton_lists_.clear();
  visited_bits_.clear();
  component_bits_.clear();
  size_ = 0;
  stats_ = VisitedStats{};
  successors_.clear();
}

void ConfigStore::EncodeKey(const ConfigWords& config) {
  const size_t data = TrimmedSize(config.data);
  const size_t previous = TrimmedSize(config.previous);
  scratch_.clear();
  scratch_.push_back(static_cast<uint32_t>(config.page) |
                     (static_cast<uint64_t>(data) << 32));
  scratch_.insert(scratch_.end(), config.data.begin(),
                  config.data.begin() + data);
  scratch_.insert(scratch_.end(), config.previous.begin(),
                  config.previous.begin() + previous);
}

ConfigId ConfigStore::Intern(const ConfigWords& config) {
  EncodeKey(config);
  const ConfigId id = configs_.Intern(scratch_);
  if (id < entries_.size()) return id;
  entries_.emplace_back();
  const size_t bits_before = visited_bits_.size() + component_bits_.size();
  visited_bits_.resize(WordsFor(entries_.size() * 2 * num_states_));
  component_bits_.resize(WordsFor(entries_.size() * num_components_));
  obs::CountAlloc(static_cast<int64_t>(
      sizeof(Entry) +
      (visited_bits_.size() + component_bits_.size() - bits_before) *
          sizeof(uint64_t)));
  return id;
}

void ConfigStore::Load(ConfigId id, ConfigWords* out) const {
  const uint64_t* key = configs_.key(id);
  const size_t size = configs_.key_size(id);
  const size_t data = static_cast<size_t>(key[0] >> 32);
  out->page = static_cast<int>(static_cast<uint32_t>(key[0]));
  out->data.assign(key + 1, key + 1 + data);
  out->previous.assign(key + 1 + data, key + size);
}

ConfigWords ConfigStore::Pack(const Configuration& config) {
  ConfigWords out;
  out.page = config.page;
  const Catalog& catalog = tuples_.catalog();
  for (RelationId id = 0; id < catalog.size(); ++id) {
    for (const Tuple& t : config.data.relation(id).tuples()) {
      SetBit(&out.data, tuples_.Intern(id, t.data()));
    }
    for (const Tuple& t : config.previous.relation(id).tuples()) {
      SetBit(&out.previous, tuples_.Intern(id, t.data()));
    }
  }
  return out;
}

Configuration ConfigStore::Unpack(const ConfigWords& config) const {
  Configuration out;
  out.page = config.page;
  out.data = Instance(&tuples_.catalog());
  out.previous = Instance(&tuples_.catalog());
  auto insert = [this](Instance* instance, TupleId t) {
    const SymbolId* values = tuples_.values(t);
    instance->relation(tuples_.relation(t))
        .Insert(Tuple(values, values + tuples_.arity(t)));
  };
  ForEachBit(config.data, [&](TupleId t) { insert(&out.data, t); });
  ForEachBit(config.previous, [&](TupleId t) { insert(&out.previous, t); });
  return out;
}

Configuration ConfigStore::Materialize(ConfigId id) const {
  ConfigWords words;
  Load(id, &words);
  return Unpack(words);
}

bool ConfigStore::Insert(int flag, int state, ConfigId id) {
  const size_t bit = (static_cast<size_t>(id) * 2 + flag) * num_states_ +
                     static_cast<size_t>(state);
  uint64_t& word = visited_bits_[bit >> 6];
  const uint64_t mask = uint64_t{1} << (bit & 63);
  if (word & mask) {
    ++stats_.hits;
    return false;
  }
  ++stats_.misses;
  word |= mask;
  ++size_;
  return true;
}

bool ConfigStore::Contains(int flag, int state, ConfigId id) const {
  const size_t bit = (static_cast<size_t>(id) * 2 + flag) * num_states_ +
                     static_cast<size_t>(state);
  const bool found = (visited_bits_[bit >> 6] >> (bit & 63)) & 1;
  ++(found ? stats_.hits : stats_.misses);
  return found;
}

void ConfigStore::SetComponents(ConfigId id, const std::vector<bool>& values) {
  WAVE_CHECK(values.size() == num_components_);
  const size_t first = static_cast<size_t>(id) * num_components_;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i]) {
      component_bits_[(first + i) >> 6] |= uint64_t{1} << ((first + i) & 63);
    }
  }
  entries_[id].components = true;
}

SkeletonId ConfigStore::InternSkeleton(int prev_page,
                                       const ConfigWords& skeleton) {
  // The key's length fixes where it ends, so the page appended after it
  // keeps the pair's key injective.
  EncodeKey(skeleton);
  scratch_.push_back(static_cast<uint32_t>(prev_page));
  const SkeletonId s = skeletons_.Intern(scratch_);
  if (s == skeleton_lists_.size()) {
    skeleton_lists_.emplace_back();
    obs::CountAlloc(sizeof(List));
  }
  return s;
}

SuccessorRange ConfigStore::SetSkeletonSuccessors(
    SkeletonId s, const std::vector<ConfigId>& ids) {
  WAVE_CHECK_MSG(successors_.size() + ids.size() < UINT32_MAX,
                 "successor memo past 2^32 entries");
  List& list = skeleton_lists_[s];
  list.range.begin = static_cast<uint32_t>(successors_.size());
  successors_.insert(successors_.end(), ids.begin(), ids.end());
  list.range.end = static_cast<uint32_t>(successors_.size());
  list.set = true;
  obs::CountAlloc(static_cast<int64_t>(ids.size() * sizeof(ConfigId)));
  return list.range;
}

int64_t ConfigStore::approx_bytes() const {
  return tuples_.approx_bytes() + configs_.approx_bytes() +
         skeletons_.approx_bytes() +
         static_cast<int64_t>(
             entries_.size() * sizeof(Entry) +
             skeleton_lists_.size() * sizeof(List) +
             (visited_bits_.size() + component_bits_.size()) *
                 sizeof(uint64_t) +
             successors_.size() * sizeof(ConfigId));
}

}  // namespace wave
