#include "verifier/encode.h"

#include "common/check.h"
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

/// Reads a key back, dying on bytes the encoder cannot have written.
class KeyReader {
 public:
  KeyReader(const uint8_t* key, size_t size) : p_(key), end_(key + size) {}

  uint32_t Varint() {
    uint32_t value = 0;
    for (int shift = 0;; shift += 7) {
      WAVE_CHECK_MSG(p_ < end_ && shift < 35, "truncated configuration key");
      const uint8_t byte = *p_++;
      value |= static_cast<uint32_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return value;
    }
  }

  void ReadInstance(Instance* instance) {
    const Catalog& catalog = instance->catalog();
    Tuple tuple;
    for (uint32_t tag = Varint(); tag != 0; tag = Varint()) {
      const RelationId id = static_cast<RelationId>(tag - 1);
      WAVE_CHECK_MSG(id < catalog.size(), "configuration key names relation "
                                              << id << " outside the catalog");
      Relation& relation = instance->relation(id);
      tuple.resize(static_cast<size_t>(relation.arity()));
      for (uint32_t n = Varint(); n > 0; --n) {
        for (SymbolId& v : tuple) v = static_cast<SymbolId>(Varint());
        WAVE_CHECK_MSG(relation.Insert(tuple),
                       "configuration key repeats a tuple");
      }
    }
  }

  bool done() const { return p_ == end_; }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

}  // namespace

void EncodeConfigurationKeyInto(const Configuration& config,
                                std::vector<uint8_t>* out) {
  size_t capacity_before = out->capacity();
  out->clear();
  AppendVarint(static_cast<uint32_t>(config.page), out);
  AppendInstance(config.data, out);
  AppendInstance(config.previous, out);
  // The scratch buffer amortizes to zero growth; report the rare
  // reallocation so the allocation profile sees encode's footprint.
  if (out->capacity() > capacity_before) {
    obs::CountAlloc(static_cast<int64_t>(out->capacity() - capacity_before));
  }
}

std::vector<uint8_t> EncodeConfigurationKey(const Configuration& config) {
  std::vector<uint8_t> out;
  EncodeConfigurationKeyInto(config, &out);
  return out;
}

Configuration DecodeConfigurationKey(const uint8_t* key, size_t size,
                                     const Catalog& catalog) {
  KeyReader reader(key, size);
  Configuration config;
  config.page = static_cast<int>(reader.Varint());
  config.data = Instance(&catalog);
  config.previous = Instance(&catalog);
  reader.ReadInstance(&config.data);
  reader.ReadInstance(&config.previous);
  WAVE_CHECK_MSG(reader.done(), "configuration key has trailing bytes");
  return config;
}

}  // namespace wave
