// LTL → Büchi translation, replacing the paper's use of the external
// `ltl2ba` tool. Implements the tableau construction of Gerth, Peled,
// Vardi, Wolper, "Simple On-the-Fly Automatic Verification of Linear
// Temporal Logic" (PSTV 1995) — the algorithm the paper cites [20] — on
// the formula as `PropArena::Rewrite` leaves it, followed by
// degeneralization of the generalized acceptance condition and the
// simplification passes of `BuchiAutomaton::Simplify`.
#ifndef WAVE_BUCHI_GPVW_H_
#define WAVE_BUCHI_GPVW_H_

#include <functional>
#include <optional>

#include "buchi/buchi.h"
#include "buchi/prop_ltl.h"

namespace wave {

/// Translation statistics (ISSUE 1 observability): how big the tableau
/// grew and how much degeneralization/simplification changed the automaton.
struct GpvwStats {
  int tableau_nodes = 0;          // registered GPVW tableau nodes
  int until_subformulas = 0;      // generalized acceptance sets (k)
  int states_before_simplify = 0; // after degeneralization
  int states_after_simplify = 0;  // final automaton size
};

/// Options for `LtlToBuchi`.
struct GpvwOptions {
  /// Run the post-translation simplification passes (default on; turn off
  /// to inspect the raw tableau, e.g. in ablation benchmarks).
  bool simplify = true;
  /// When non-null, filled with translation statistics.
  GpvwStats* stats = nullptr;
  /// When set, called every few hundred tableau nodes, degeneralized
  /// states and simplification steps. Once it returns true the translation
  /// stops and returns no automaton.
  std::function<bool()> stop;
};

/// Translates the propositional LTL formula `f` (any connectives; NNF and
/// the rewrite are applied internally) into a Büchi automaton accepting
/// exactly the infinite words satisfying it. `num_props` is the number of
/// propositions (atoms are `0 .. num_props-1`). Returns nullopt only when
/// `options.stop` stopped the translation.
std::optional<BuchiAutomaton> LtlToBuchi(PropArena* arena, PropId f,
                                         int num_props,
                                         const GpvwOptions& options = {});

}  // namespace wave

#endif  // WAVE_BUCHI_GPVW_H_
