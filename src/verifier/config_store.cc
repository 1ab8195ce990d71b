#include "verifier/config_store.h"

#include <cstring>

#include "common/check.h"
#include "obs/alloc.h"
#include "verifier/encode.h"

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

/// 64-bit hash of a byte string, eight bytes per step. In-process only:
/// the value depends on the host's byte order. Inlined here, it made the
/// verify suite about 10% faster than std::hash<std::string_view> did.
uint64_t HashBytes(const uint8_t* p, size_t n) {
  uint64_t h = 0x9e3779b97f4a7c15ULL * (n + 1);
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    h = (h ^ word) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  uint64_t tail = 0;
  for (size_t i = 0; i < n; ++i) tail |= static_cast<uint64_t>(p[i]) << (8 * i);
  return Mix(h ^ tail);
}

size_t WordsFor(size_t bits) { return (bits + 63) / 64; }

}  // namespace

ConfigStore::KeyTable::KeyTable() : slots_(kInitialSlots) {}

void ConfigStore::KeyTable::Clear() {
  slots_.assign(kInitialSlots, Slot{});
  arena_.clear();
  key_ends_.clear();
}

uint32_t ConfigStore::KeyTable::Intern(const std::vector<uint8_t>& bytes) {
  const uint64_t hash = HashBytes(bytes.data(), bytes.size());
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  for (;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kEmpty) break;
    if (slot.hash != hash) continue;
    if (key_size(slot.id) == bytes.size() &&
        std::memcmp(key(slot.id), bytes.data(), bytes.size()) == 0) {
      return slot.id;
    }
  }
  WAVE_CHECK_MSG(arena_.size() + bytes.size() < UINT32_MAX,
                 "key arena past 4 GiB");
  const uint32_t id = static_cast<uint32_t>(key_ends_.size());
  slots_[i] = {hash, id};
  arena_.insert(arena_.end(), bytes.begin(), bytes.end());
  key_ends_.push_back(static_cast<uint32_t>(arena_.size()));
  obs::CountAlloc(static_cast<int64_t>(bytes.size() + sizeof(uint32_t)));
  if (key_ends_.size() * 2 > slots_.size()) Grow();
  return id;
}

int64_t ConfigStore::KeyTable::approx_bytes() const {
  return static_cast<int64_t>(slots_.size() * sizeof(Slot) + arena_.size() +
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
                        int num_components) {
  catalog_ = catalog;
  num_states_ = static_cast<size_t>(num_states);
  num_components_ = static_cast<size_t>(num_components);
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

ConfigId ConfigStore::Intern(const Configuration& config) {
  EncodeConfigurationKeyInto(config, &scratch_);
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

Configuration ConfigStore::Decode(ConfigId id) const {
  return DecodeConfigurationKey(configs_.key(id), configs_.key_size(id),
                                *catalog_);
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
                                       const Configuration& skeleton) {
  // A configuration key is self-delimiting, so the page appended after it
  // keeps the pair's key injective.
  EncodeConfigurationKeyInto(skeleton, &scratch_);
  const uint32_t page = static_cast<uint32_t>(prev_page);
  for (int shift = 0; shift < 32; shift += 8) {
    scratch_.push_back(static_cast<uint8_t>(page >> shift));
  }
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
  return configs_.approx_bytes() + skeletons_.approx_bytes() +
         static_cast<int64_t>(
             entries_.size() * sizeof(Entry) +
             skeleton_lists_.size() * sizeof(List) +
             (visited_bits_.size() + component_bits_.size()) *
                 sizeof(uint64_t) +
             successors_.size() * sizeof(ConfigId));
}

}  // namespace wave
