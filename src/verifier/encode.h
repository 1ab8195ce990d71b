// The visited-set key of a pseudoconfiguration: a canonical byte
// serialization of (flag, Büchi state, configuration). The paper extends
// its rank-based bitmap scheme to whole configurations (Section 4); a
// canonical serialization is an equivalent injective key and needs no
// second dataflow pass for derived-relation value sets (see DESIGN.md).
//
// Layout, all varints: flag (one byte), Büchi state, page, then for each of
// `data` and `previous` the non-empty relations in id order as
// `id + 1, tuple count, values...` followed by a `0` terminator. Empty
// relations cost nothing, and the arities fixed by the catalog make the
// value runs self-delimiting, so the key is injective over one spec.
#ifndef WAVE_VERIFIER_ENCODE_H_
#define WAVE_VERIFIER_ENCODE_H_

#include <cstdint>
#include <vector>

#include "spec/runtime.h"

namespace wave {

/// Canonical byte key of (flag, Büchi state, configuration) for the
/// visited set. Injective for configurations over one spec.
std::vector<uint8_t> EncodeVisitedKey(int flag, int buchi_state,
                                      const Configuration& config);

/// Buffer-reusing variant for the search hot loop: clears `out` and fills
/// it with the key, avoiding a fresh allocation per expansion. The filled
/// size also feeds the resource governor's memory estimate (the key length
/// approximates the configuration's share of visited-set/stack memory).
void EncodeVisitedKeyInto(int flag, int buchi_state,
                          const Configuration& config,
                          std::vector<uint8_t>* out);

}  // namespace wave

#endif  // WAVE_VERIFIER_ENCODE_H_
