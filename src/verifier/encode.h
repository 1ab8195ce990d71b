// The canonical key of a pseudoconfiguration: a byte serialization of
// (page, data, previous). The paper extends its rank-based bitmap scheme to
// whole configurations (Section 4); a canonical serialization is an
// equivalent injective key and needs no second dataflow pass for
// derived-relation value sets (see DESIGN.md).
//
// Layout, all varints: page, then for each of `data` and `previous` the
// non-empty relations in id order as `id + 1, tuple count, values...`
// followed by a `0` terminator. Empty relations cost nothing, and the
// arities fixed by the catalog make the value runs self-delimiting, so the
// key is injective over one spec and `DecodeConfigurationKey` inverts it.
//
// The key carries no automaton state: the search interns each key once
// per shard and keeps its (flag, Büchi state) visits as bits beside the id
// (verifier/config_store.h).
#ifndef WAVE_VERIFIER_ENCODE_H_
#define WAVE_VERIFIER_ENCODE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "spec/runtime.h"

namespace wave {

/// Canonical byte key of `config`. Injective for configurations over one
/// spec.
std::vector<uint8_t> EncodeConfigurationKey(const Configuration& config);

/// Buffer-reusing variant for the search hot loop: clears `out` and fills
/// it with the key, avoiding a fresh allocation per successor.
void EncodeConfigurationKeyInto(const Configuration& config,
                                std::vector<uint8_t>* out);

/// The configuration over `catalog` whose key is the `size` bytes at
/// `key`: `DecodeConfigurationKey(EncodeConfigurationKey(c))` equals `c`
/// when `c`'s instances are over `catalog`. Dies on bytes no encoding over
/// `catalog` produces.
Configuration DecodeConfigurationKey(const uint8_t* key, size_t size,
                                     const Catalog& catalog);

}  // namespace wave

#endif  // WAVE_VERIFIER_ENCODE_H_
