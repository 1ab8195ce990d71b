#include "verifier/encode.h"

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

std::vector<uint8_t> EncodeConfigurationKey(const Configuration& config) {
  std::vector<uint8_t> out;
  AppendVarint(static_cast<uint32_t>(config.page), &out);
  AppendInstance(config.data, &out);
  AppendInstance(config.previous, &out);
  return out;
}

}  // namespace wave
