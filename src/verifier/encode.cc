#include "verifier/encode.h"

#include "obs/alloc.h"

namespace wave {

namespace {

void AppendVarint(uint32_t value, std::vector<uint8_t>* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

void AppendInstance(const Instance& instance, std::vector<uint8_t>* out) {
  const Catalog& catalog = instance.catalog();
  for (RelationId id = 0; id < catalog.size(); ++id) {
    const Relation& r = instance.relation(id);
    if (r.empty()) continue;
    AppendVarint(static_cast<uint32_t>(id) + 1, out);
    AppendVarint(static_cast<uint32_t>(r.size()), out);
    for (const Tuple& t : r.tuples()) {
      for (SymbolId v : t) AppendVarint(static_cast<uint32_t>(v), out);
    }
  }
  out->push_back(0);
}

}  // namespace

void EncodeVisitedKeyInto(int flag, int buchi_state,
                          const Configuration& config,
                          std::vector<uint8_t>* out) {
  size_t capacity_before = out->capacity();
  out->clear();
  out->push_back(static_cast<uint8_t>(flag));
  AppendVarint(static_cast<uint32_t>(buchi_state), out);
  AppendVarint(static_cast<uint32_t>(config.page), out);
  AppendInstance(config.data, out);
  AppendInstance(config.previous, out);
  // The scratch buffer amortizes to zero growth; report the rare
  // reallocation so the allocation profile sees encode's footprint.
  if (out->capacity() > capacity_before) {
    obs::CountAlloc(static_cast<int64_t>(out->capacity() - capacity_before));
  }
}

std::vector<uint8_t> EncodeVisitedKey(int flag, int buchi_state,
                                      const Configuration& config) {
  std::vector<uint8_t> out;
  EncodeVisitedKeyInto(flag, buchi_state, config, &out);
  return out;
}

}  // namespace wave
