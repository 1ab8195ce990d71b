// LTL → Büchi translation, replacing the paper's use of the external
// `ltl2ba` tool. Implements the tableau construction of Gerth, Peled,
// Vardi, Wolper, "Simple On-the-Fly Automatic Verification of Linear
// Temporal Logic" (PSTV 1995) — the algorithm the paper cites [20] — on
// the formula as `PropArena::Rewrite` leaves it, followed by
// degeneralization of the generalized acceptance condition and the
// simplification passes of buchi/flat_buchi.h. Everything after the
// closure runs on flat arrays; the `BuchiAutomaton` is built once, at the
// end.
#ifndef WAVE_BUCHI_GPVW_H_
#define WAVE_BUCHI_GPVW_H_

#include <cstdint>
#include <functional>
#include <optional>

#include "buchi/buchi.h"
#include "buchi/prop_ltl.h"

namespace wave {

/// The most states and transitions a degeneralized automaton may have,
/// counted before any is built: (tableau nodes + 1) × max(1, Until
/// subformulas) states, and the tableau's edges times the same factor. A
/// translation past either stops without building them, and a tableau
/// whose own nodes or edges pass a cap stops growing. The largest
/// pinned automaton has 1,752 such states and 11,800 transitions, and `G`
/// nested 80 deep 265,760 states and 7,356,960 transitions; `G` nested 998
/// deep would have about 498.5 million states.
inline constexpr int64_t kMaxDegeneralizedStates = int64_t{1} << 22;
inline constexpr int64_t kMaxDegeneralizedTransitions = int64_t{1} << 24;

/// Translation statistics (ISSUE 1 observability): how big the tableau
/// grew and how much degeneralization/simplification changed the automaton.
struct GpvwStats {
  int tableau_nodes = 0;          // registered GPVW tableau nodes
  int until_subformulas = 0;      // generalized acceptance sets (k)
  int states_before_simplify = 0; // after degeneralization
  int states_after_simplify = 0;  // final automaton size
  /// The translation stopped because the degeneralized automaton would
  /// have passed `kMaxDegeneralizedStates` or
  /// `kMaxDegeneralizedTransitions`.
  bool over_size_cap = false;
};

/// Options for `LtlToBuchi`.
struct GpvwOptions {
  /// Run the post-translation simplification passes (default on; turn off
  /// to inspect the raw tableau, e.g. in ablation benchmarks).
  bool simplify = true;
  /// When non-null, filled with translation statistics.
  GpvwStats* stats = nullptr;
  /// When set, called every few hundred tableau nodes, degeneralized
  /// states and simplification steps, and once before degeneralizing, with
  /// the bytes the translation holds (before degeneralizing: the bytes it
  /// is about to need as well). Once it returns true the translation stops
  /// and returns no automaton.
  std::function<bool(int64_t bytes)> stop;
};

/// Translates the propositional LTL formula `f` (any connectives; NNF and
/// the rewrite are applied internally) into a Büchi automaton accepting
/// exactly the infinite words satisfying it. `num_props` is the number of
/// propositions (atoms are `0 .. num_props-1`). Returns nullopt only when
/// `options.stop` stopped the translation or the degeneralized automaton
/// would pass a size cap (then `stats->over_size_cap`).
std::optional<BuchiAutomaton> LtlToBuchi(PropArena* arena, PropId f,
                                         int num_props,
                                         const GpvwOptions& options = {});

}  // namespace wave

#endif  // WAVE_BUCHI_GPVW_H_
