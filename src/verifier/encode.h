// A canonical byte key of a configuration: a byte serialization of (page,
// data, previous) for the callers that keep whole `Configuration`s in
// ordered sets (counterexample validation, the first-cut baseline). The
// search keys its bitset pseudoconfigurations by their words instead
// (verifier/config_store.h).
//
// Layout, all varints: page, then for each of `data` and `previous` the
// non-empty relations in id order as `id + 1, tuple count, values...`
// followed by a `0` terminator. Empty relations cost nothing, and the
// arities fixed by the catalog make the value runs self-delimiting, so the
// key is injective over one spec.
#ifndef WAVE_VERIFIER_ENCODE_H_
#define WAVE_VERIFIER_ENCODE_H_

#include <cstdint>
#include <vector>

#include "spec/runtime.h"

namespace wave {

/// Canonical byte key of `config`. Injective for configurations over one
/// spec.
std::vector<uint8_t> EncodeConfigurationKey(const Configuration& config);

}  // namespace wave

#endif  // WAVE_VERIFIER_ENCODE_H_
