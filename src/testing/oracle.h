// Differential-oracle harness for generated cases (ISSUE 5).
//
// `CheckCase` takes one generated (spec, property) pair and cross-checks
// WAVE's verdict along the four engine axes plus two metamorphic ones:
//
//   1. kBaseline  — pseudorun search vs the explicit first-cut
//                   enumeration (src/baseline/firstcut.h): the paper's
//                   soundness/completeness claims (Theorems 3.2/3.3/3.8)
//                   made executable.
//   2. kJobs      — jobs=1 vs jobs=N on the PR-3 work-stealing pool.
//   3. kBatch     — `RunBatch` vs the sequential `Run` it must equal.
//   4. kCache     — cold vs warm persistent `ResultCache`: the warm run
//                   must HIT and return the identical verdict.
//   5. kRename    — systematic identifier renaming (PR 4's fingerprints
//                   render by name, so this also drives distinct keys).
//   6. kReorder   — rule/page/declaration reordering.
//
// Budget-limited `kUnknown` verdicts are expected, not failures: an axis
// only *compares* when both sides decided (`AxisCheck::compared`), and
// the per-reason probes below guarantee the undecided paths stay
// exercised too.
//
// The harness is deliberately a library (not test-only code): the seeded
// tier-1 sweep in tests/random_differential_test.cc and the long-running
// `tools/wave_fuzz` campaigns are the same code path.
#ifndef WAVE_TESTING_ORACLE_H_
#define WAVE_TESTING_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "baseline/firstcut.h"
#include "obs/json.h"
#include "testing/spec_gen.h"
#include "verifier/governor.h"
#include "verifier/verifier.h"

namespace wave::testing {

enum class OracleAxis {
  kBaseline = 0,
  kJobs,
  kBatch,
  kCache,
  kRename,
  kReorder,
};

/// Stable snake_case axis name for logs and campaign JSON.
const char* OracleAxisName(OracleAxis axis);

/// Knobs of one oracle evaluation.
struct OracleOptions {
  /// Base WAVE options (budgets, heuristics) for every engine run.
  VerifyOptions verify;
  /// Budgets of the explicit first-cut run (axis 1). The default 10s
  /// cap means a pathological case degrades to a skipped comparison,
  /// never a hung sweep.
  FirstCutOptions baseline;
  /// Worker count of the jobs axis.
  int jobs = 3;
  /// Directory for the cold/warm `ResultCache` axis; empty skips axis 4.
  /// Records are keyed by content fingerprints, so one directory can be
  /// shared by a whole campaign.
  std::string cache_dir;
  /// Salt of the reorder transform (so sweeps can vary the permutation).
  uint64_t reorder_salt = 0x5eedf00d;

  bool run_baseline = true;
  bool run_jobs = true;
  bool run_batch = true;
  bool run_metamorphic = true;

  // Fault injection (ISSUE 7): the reference-flip self-test hook that
  // used to live here as `inject_flip_marker` is now the registered
  // `oracle.flip_verdict` fault site (kind `flip`, common/fault.h) — arm
  //   fault::Plan plan; plan.rules.push_back({.site="oracle.flip_verdict",
  //                                           .kind=fault::Kind::kFlip});
  // (or `wave_fuzz --inject-flip`, or WAVE_FAULT_SPEC) to simulate a
  // verdict bug and exercise the disagreement + shrink machinery; see
  // docs/FUZZING.md §"Self-test".

  OracleOptions() {
    verify.timeout_seconds = 30;
    baseline.extra_domain_values = 1;
    baseline.timeout_seconds = 10;
  }
};

/// Outcome of one axis.
struct AxisCheck {
  OracleAxis axis = OracleAxis::kBaseline;
  bool ran = false;       // axis executed (engine calls made)
  bool compared = false;  // both sides decided, verdicts compared
  bool agreed = true;     // false only when compared and different
  Verdict expected = Verdict::kUnknown;  // reference side
  Verdict actual = Verdict::kUnknown;    // axis side
  double seconds = 0;  // axis wall time (engine runs + comparison)
  std::string detail;  // skip reason / failure reasons / diagnostics
};

/// Everything one `CheckCase` learned about one case.
struct OracleReport {
  uint64_t seed = 0;
  /// Parses, validates and is input-bounded (a false here is a GENERATOR
  /// bug — the grammar promises validity).
  bool valid = false;
  std::string invalid_reason;
  /// The reference verdict: WAVE, jobs=1, base options — run with a
  /// local metrics registry attached, so every campaign case doubles as
  /// a telemetry-on vs telemetry-off differential (the ISSUE-6 search
  /// histograms must not perturb verdicts).
  Verdict reference = Verdict::kUnknown;
  UnknownReason reference_reason = UnknownReason::kNone;
  double reference_seconds = 0;  // reference-run wall time
  /// True when the armed `oracle.flip_verdict` fault flipped `reference`.
  bool flip_injected = false;
  std::vector<AxisCheck> axes;

  bool disagreed() const;
  /// Generator-valid and every compared axis agreed.
  bool ok() const { return valid && !disagreed(); }
  const AxisCheck* FindAxis(OracleAxis axis) const;
  /// One human line: verdicts per axis, disagreements called out.
  std::string Summary() const;
  /// Machine form for JSON-lines campaign logs.
  obs::Json ToJson() const;
};

/// Runs every enabled axis for `c`. Never aborts on engine failure; all
/// outcomes (including "the generated case was invalid") land in the
/// report.
OracleReport CheckCase(const FuzzCase& c, const OracleOptions& options);

/// One `UnknownReason` coverage probe (ISSUE 5 satellite): which seeds
/// demonstrably produce each undecided reason under a starved budget, so
/// the "budget-limited is expected" paths of the harness are themselves
/// exercised on every run.
struct ReasonProbe {
  UnknownReason reason = UnknownReason::kNone;
  bool covered = false;
  uint64_t seed = 0;   // seed that exhibited the reason (when covered)
  std::string detail;  // what was run / why coverage failed
};

/// Probes every undecided reason (timeout, memory, candidate budget,
/// expansion budget, cancellation, rejected candidates) by running
/// generated cases from `seed_start` under deliberately starved budgets,
/// trying at most `max_seeds` seeds per reason.
std::vector<ReasonProbe> ProbeUnknownReasons(const GeneratorConfig& config,
                                             uint64_t seed_start,
                                             int max_seeds);

}  // namespace wave::testing

#endif  // WAVE_TESTING_ORACLE_H_
