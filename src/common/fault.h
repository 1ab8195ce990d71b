// Deterministic fault injection (ISSUE 7).
//
// A long-lived verification service must treat partial failure of its
// environment — EIO mid-write, a disk running full, a competing process
// holding a lock, SIGKILL between two renames — as the normal case, and
// the only way to keep those paths honest is to execute them on demand.
// This header provides NAMED injection points that are ALWAYS compiled
// into the binary:
//
//   fault::Action a = WAVE_FAULT("cache.store.entry");
//
// When the process is not armed (the default, and the only production
// state) a site costs one relaxed atomic load and returns a no-op
// `Action`. When a test, `tools/wave_crash`, or the `WAVE_FAULT_SPEC`
// environment variable arms a `Plan`, each hit of a matching site is
// evaluated against the plan's rules:
//
//   * fail-Nth-hit   — `Rule::fail_nth` fires exactly on the Nth matched
//                      hit of that rule (deterministic kill-points);
//   * probability    — `Rule::probability` fires per hit under the plan's
//                      PINNED RNG (`Plan::seed`), so a probabilistic
//                      schedule replays identically from its seed;
//   * capped         — `Rule::max_fires` bounds the total fires.
//
// Error kinds model the environment failures worth rehearsing:
//   kEio        — the operation fails (call sites surface a tagged
//                 `Status`, message prefixed "fault-injected");
//   kEnospc     — ditto, disk-full flavor;
//   kShortWrite — only a prefix of the bytes lands before the error, and
//                 the torn temp file is deliberately LEFT on disk (the
//                 state a crashed writer leaves behind);
//   kDelay      — the site sleeps `delay_seconds`, then proceeds (lock
//                 contention, slow disks, scheduling jitter);
//   kCrash      — the process raises SIGKILL at the site: no destructors,
//                 no atexit, exactly what `tools/wave_crash` rehearses;
//   kFlip       — fires with no built-in effect; the call site decides
//                 (the differential oracle flips its reference verdict —
//                 the self-test of the disagreement machinery).
//
// Observability: every fire bumps `fault.injected.<site>` on the plan's
// optional metrics registry (and an internal per-site tally readable via
// `Counts()` / exportable via `ExportMetrics`), and emits a tracer
// instant event when `Plan::tracer` is set. Arm a tracer only for
// single-threaded runs — the fault registry serializes itself, but
// `obs::Tracer` is not synchronized against concurrent users.
//
// Thread-safety: `Armed()` is a relaxed atomic; `Evaluate` takes the
// injector mutex (sites also exist on worker threads). Sleeps happen
// outside the lock.
//
// The site inventory lives in `KnownSites()` and is documented in
// docs/ROBUSTNESS.md; tests/fault_test.cc sweeps every site × every
// applicable non-crash kind, and tools/wave_crash covers the crash kind.
#ifndef WAVE_COMMON_FAULT_H_
#define WAVE_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace wave::obs {
class MetricsRegistry;
class Tracer;
}  // namespace wave::obs

namespace wave::fault {

enum class Kind {
  kEio = 0,
  kEnospc,
  kShortWrite,
  kDelay,
  kCrash,
  kFlip,
};

/// Stable lowercase name ("eio", "enospc", "shortwrite", "delay",
/// "crash", "flip") for plans, logs and the docs inventory.
const char* KindName(Kind kind);

/// Inverse of `KindName`; false on an unknown name.
bool ParseKind(std::string_view name, Kind* out);

/// What one evaluated site should do. `fire == false` (the default, and
/// the only disarmed outcome) means: proceed normally.
struct Action {
  bool fire = false;
  Kind kind = Kind::kDelay;
  /// kShortWrite: fraction of the bytes to write before failing.
  double short_write_keep = 0.5;
};

/// True when the action demands the call site fail the operation
/// (kEio / kEnospc / kShortWrite). kDelay already slept inside
/// `Evaluate`; kCrash never returns; kFlip is call-site-defined.
inline bool IsError(const Action& a) {
  return a.fire && (a.kind == Kind::kEio || a.kind == Kind::kEnospc ||
                    a.kind == Kind::kShortWrite);
}

/// The tagged Status an error action surfaces: kUnavailable, message
/// "fault-injected <kind> (<detail>)" — greppable in logs and asserted
/// by the fault sweep.
Status ToStatus(const Action& a, const std::string& detail);

/// One scheduled fault.
struct Rule {
  /// Site to match: an exact site name, or a prefix ending in '*'
  /// ("cache.store.*").
  std::string site;
  Kind kind = Kind::kEio;
  /// 1-based matched-hit index to fire at; fires exactly once. 0 uses
  /// `probability` instead.
  int fail_nth = 0;
  /// Per-hit fire probability under the plan's pinned RNG. A rule with
  /// fail_nth == 0 and probability == 0 defaults to ALWAYS firing
  /// (probability 1).
  double probability = 0;
  /// Cap on total fires of this rule; -1 = unlimited.
  int max_fires = -1;
  /// kDelay: sleep length.
  double delay_seconds = 0.002;
  /// kShortWrite: fraction of bytes written before the error.
  double short_write_keep = 0.5;

  bool Matches(std::string_view site_name) const;
};

/// A fault scenario: rules plus the pinned RNG seed that makes
/// probabilistic schedules replayable.
struct Plan {
  std::vector<Rule> rules;
  uint64_t seed = 0x5eedfa17;
  obs::MetricsRegistry* metrics = nullptr;  // fault.injected.<site> counters
  obs::Tracer* tracer = nullptr;            // instant events (single-thread only)

  bool empty() const { return rules.empty(); }
};

/// Arms `plan` process-wide (replacing any armed plan and resetting all
/// hit/fire tallies). Sites start evaluating on the next hit.
void Arm(Plan plan);

/// Disarms: every site returns to the one-atomic-load no-op path. The
/// tallies of the disarmed plan remain readable until the next `Arm`.
void Disarm();

namespace internal {
extern std::atomic<bool> g_armed;
}  // namespace internal

/// Fast path: is any plan armed? One relaxed atomic load.
inline bool Armed() {
  return internal::g_armed.load(std::memory_order_relaxed);
}

/// Evaluates one site hit against the armed plan. Prefer the WAVE_FAULT
/// macro, which short-circuits the disarmed case.
Action Evaluate(const char* site);

/// Per-site tallies of the current (or last disarmed) plan.
struct SiteCount {
  std::string site;
  int64_t hits = 0;
  int64_t fires = 0;
};
std::vector<SiteCount> Counts();
int64_t TotalFires();

/// Copies the tallies onto `metrics` as `fault.hits.<site>` /
/// `fault.injected.<site>` counters (wave_verify calls this before
/// writing its stats JSON).
void ExportMetrics(obs::MetricsRegistry* metrics);

/// The curated injection-point inventory: site name, defining file, and
/// the kinds that meaningfully apply there (a mask of 1 << Kind).
/// docs/ROBUSTNESS.md renders this table; tests/fault_test.cc enforces
/// that every entry is reachable and fires for every applicable kind.
struct SiteInfo {
  const char* site;
  const char* file;
  unsigned kinds_mask;

  bool Supports(Kind k) const {
    return (kinds_mask & (1u << static_cast<unsigned>(k))) != 0;
  }
};
const std::vector<SiteInfo>& KnownSites();

/// Parses a plan spec string (the `WAVE_FAULT_SPEC` format):
///
///   spec  := item (';' item)*
///   item  := 'seed=' UINT | rule
///   rule  := SITE '=' KIND ['@' NTH] (':' MOD)*
///   MOD   := 'p=' FLOAT | 'max=' INT | 'delay=' SECONDS | 'keep=' FRACTION
///
/// Examples: "cache.store.entry=crash@3",
///           "io.write.data=eio:p=0.25;seed=42",
///           "worker.start=delay:delay=0.01".
StatusOr<Plan> ParsePlan(const std::string& text);

/// Renders a plan back into the `ParsePlan` format (what wave_crash
/// exports into child environments).
std::string FormatPlan(const Plan& plan);

/// Arms from the `WAVE_FAULT_SPEC` environment variable; no-op Ok when
/// unset or empty, InvalidArgument on a malformed spec.
Status ArmFromEnv();

/// Test helper: arms on construction, disarms on destruction.
class ScopedPlan {
 public:
  explicit ScopedPlan(Plan plan) { Arm(std::move(plan)); }
  ~ScopedPlan() { Disarm(); }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
};

}  // namespace wave::fault

/// A named injection point. Disarmed cost: one relaxed atomic load.
#define WAVE_FAULT(site)                                            \
  (::wave::fault::Armed() ? ::wave::fault::Evaluate(site)           \
                          : ::wave::fault::Action{})

#endif  // WAVE_COMMON_FAULT_H_
