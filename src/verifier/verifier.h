// WAVE's verification engine: the `ndfs-pseudo` algorithm of Section 3.1
// with the pruning heuristics of Section 3.2.
//
// Given a Web application spec W and an LTL-FO property ϕ0, checks that
// every run of W satisfies ϕ0 by searching for a pseudorun satisfying
// ϕ = ¬ϕ0:
//   1. abstract ϕ's FO components into propositions (phi_aux),
//   2. translate phi_aux to a Büchi automaton (GPVW),
//   3. enumerate assignments C∃ for ϕ's free variables, database cores
//      over C = CW ∪ C∃, and run a nested depth-first search over
//      (automaton state, pseudoconfiguration) pairs looking for a lollipop
//      path; pseudoconfiguration successors are produced by `succP`
//      (core kept, extension re-chosen, options computed, input picked).
//
// PR 3: the (assignment, core) pairs of step 3 are independent searches,
// and `VerifyRequest::jobs` runs them on a work-stealing worker pool (see
// docs/PARALLELISM.md for the shard model and the determinism contract).
// `Verifier::Run(VerifyRequest) -> StatusOr<VerifyResponse>` is the one
// supported single-property entry point (the pre-PR-3 `Verify` /
// `TryVerify` / `VerifyWithRetry` wrappers are gone — see the README
// changelog).
//
// PR 4: verification sessions. Each `Verifier` owns a `VerifierSession`
// (verifier/session.h) that memoizes the sequential pre-pass —
// page-domain warming, property plans incl. the GPVW translation, and
// per-(property, options) assignment contexts — so repeated `Run` calls
// and `RunBatch` pay the spec-level work once. `RunBatch` verifies N
// properties in one attempt: the shard queue carries a fused stream of
// (property, assignment, core) shards across all N searches, budgets are
// shared, and the per-property verdict/counterexample semantics are
// exactly N sequential `Run` calls (see docs/API.md). An optional
// persistent `ResultCache` (verifier/cache.h) short-circuits the search
// for (spec, property, options) triples decided by an earlier run.
#ifndef WAVE_VERIFIER_VERIFIER_H_
#define WAVE_VERIFIER_VERIFIER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/candidates.h"
#include "buchi/buchi.h"
#include "common/status.h"
#include "ltl/ltl_formula.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "spec/prepared_spec.h"
#include "spec/runtime.h"
#include "spec/web_app.h"
#include "verifier/governor.h"

namespace wave {

class ResultCache;     // verifier/cache.h
class VerifierSession;  // verifier/session.h

/// Periodic progress snapshot delivered by `VerifyOptions::heartbeat` so
/// long-running verifications are observable before they finish or time
/// out. All counters are cumulative for the current `Verify` call;
/// `trie_size` is the size of the current core's visited set.
struct HeartbeatSnapshot {
  double elapsed_seconds = 0;
  int64_t num_assignments = 0;
  int64_t num_cores = 0;
  int64_t num_expansions = 0;
  int64_t num_successors = 0;
  int trie_size = 0;
  int max_trie_size = 0;
  int buchi_states = 0;
};

/// Tuning knobs for one verification call.
struct VerifyOptions {
  bool heuristic1 = true;  // core pruning (Section 3.2)
  bool heuristic2 = true;  // extension pruning (Section 3.2)
  /// Also enumerate equality patterns among the fresh C∃ values (variable i
  /// may reuse the fresh value of any variable j <= i). Off by default: the
  /// dataflow-guided assignment with pairwise-distinct fresh values covers
  /// the cases arising in practice at a fraction of the cost.
  bool exhaustive_existential = false;
  /// Candidate-tuple budget per core/extension set; exceeding it aborts
  /// with Verdict::kUnknown instead of enumerating 2^n subsets. At most
  /// kMaxCandidatesLimit (62); `Run`/`RunBatch` reject anything outside
  /// [0, 62].
  int max_candidates = kDefaultMaxCandidates;
  /// Wall-clock budget; exceeding it yields Verdict::kUnknown.
  double timeout_seconds = 120.0;
  /// Budget on stick+candy expansions (-1 = unlimited).
  int64_t max_expansions = -1;

  // --- resource governance (ISSUE 2) ----------------------------------------
  /// Approximate memory ceiling in bytes for the search's dominant
  /// structures (visited set + search stacks); -1 = unlimited. Exceeding
  /// it yields kUnknown with UnknownReason::kMemoryLimit. An estimate, not
  /// an RSS measurement — see BudgetLedger (verifier/governor.h).
  int64_t max_memory_bytes = -1;
  /// Cooperative cancellation token (not owned; may be null). `Cancel()`
  /// may be called from another thread or a signal handler; the search
  /// observes it within one governor poll and returns kUnknown with
  /// UnknownReason::kCancelled and the stats gathered so far.
  const CancellationToken* cancellation = nullptr;

  /// Invoked on every candidate counterexample before it is reported.
  /// Return true to accept it (the verdict becomes kViolated); false to
  /// discard it and resume the search — the paper's Section 7
  /// incomplete-verifier loop, typically wired to counterexample
  /// validation (see verifier/validate.h). Null accepts everything.
  std::function<bool(const std::vector<struct CounterexampleStep>& stick,
                     const std::vector<struct CounterexampleStep>& candy,
                     const std::map<std::string, SymbolId>& binding)>
      candidate_filter;

  // --- observability (src/obs) -----------------------------------------------
  /// Tracing sink for phase/assignment/core spans and progress counter
  /// tracks. Null (the default) disables tracing entirely — instrumented
  /// code pays one pointer compare per span site.
  obs::Tracer* tracer = nullptr;
  /// When non-null, the verifier publishes its counters/gauges/histograms
  /// here (verify.*, trie.*, gpvw.*, prepared.*) in addition to filling
  /// `VerifyStats`. The registry may be shared across Verify calls;
  /// counters accumulate.
  obs::MetricsRegistry* metrics = nullptr;
  /// Invoked from within the search at most once per
  /// `heartbeat_interval_seconds` (synchronously, on the search thread).
  /// An interval of 0 fires on every budget check — useful in tests.
  std::function<void(const HeartbeatSnapshot&)> heartbeat;
  double heartbeat_interval_seconds = 1.0;
};

enum class Verdict {
  kHolds,     // every run satisfies the property
  kViolated,  // a counterexample pseudorun was found
  kUnknown,   // budget/timeout/overflow; see failure_reason
};

namespace api {
/// The one verdict naming: "holds" / "violated" / "unknown" in every log,
/// stats file, cache record and wire document (defined in api/wire.cc).
const char* VerdictName(Verdict v);
/// Inverse of `VerdictName`; InvalidArgument on an unknown name.
StatusOr<Verdict> ParseVerdict(const std::string& name);
}  // namespace api

/// One product-state of a counterexample pseudorun.
struct CounterexampleStep {
  int buchi_state = 0;
  Configuration config;
};

/// How `VerifyStats::Merge` combines one field: counters and times add up,
/// high-water marks keep the larger value. Histograms merge bucket by
/// bucket whatever their entry says.
enum class StatsMerge { kSum, kMax };

/// Search statistics (the paper's measured columns).
struct VerifyStats {
  double seconds = 0;
  int max_pseudorun_length = 0;  // max length of a generated pseudorun
  int max_trie_size = 0;         // max #pseudoconfigurations visited per
                                 // core (the paper's "max trie size")
  int buchi_states = 0;          // property automaton size
  int64_t num_assignments = 0;   // C∃ choices tried
  int64_t num_cores = 0;         // cores enumerated
  int64_t num_expansions = 0;    // stick+candy invocations
  int64_t num_successors = 0;    // pseudoconfigurations produced by succP
  int64_t num_rejected_candidates = 0;  // discarded by candidate_filter

  // Per-phase wall time, populated from the metrics layer (src/obs):
  //   prepare  — property negation, abstraction, Büchi translation;
  //   dataflow — per-assignment comparison analysis + candidate building
  //              (the Section 3.2 heuristics);
  //   search   — core enumeration + nested DFS, net of the other phases;
  //   validate — time inside candidate_filter + result finalization.
  double prepare_seconds = 0;
  double dataflow_seconds = 0;
  double search_seconds = 0;
  double validate_seconds = 0;

  int64_t trie_hits = 0;    // visited-set lookups that found the key
  int64_t trie_misses = 0;  // lookups that did not
  int64_t heartbeats = 0;   // progress heartbeats fired

  // Resource-governor readings (ISSUE 2):
  int64_t peak_memory_bytes = 0;  // high-water estimate (visited set + stacks)
  int64_t governor_polls = 0;     // full limit polls performed

  // Caching (ISSUE 4):
  /// 1 when this response was served from the persistent `ResultCache`
  /// (the search was skipped entirely); summed in batch merged stats.
  int64_t cache_hits = 0;
  /// How many memoized pre-pass layers (spec artifacts / property plan /
  /// assignment contexts, 0..3 per attempt) the session served instead of
  /// rebuilding. A cold batch of N properties under one set of options
  /// merges to N-1: every property after the first reuses the spec layer.
  int64_t prepass_reuses = 0;

  // Search telemetry (ISSUE 6). Populated only when telemetry is on
  // (`VerifyOptions::metrics` or `tracer` set); all-empty otherwise —
  // the recording sites reduce to a predicted branch, which is the
  // zero-overhead guard the disabled-path micro-test pins down.
  obs::HistogramData search_depth;   // nesting depth at each expansion
  obs::HistogramData trie_lookup_us; // sampled (1/64) visited-set op latency
  obs::HistogramData shard_expansions;   // expansions per (C∃, core) shard
  obs::HistogramData shard_alloc_bytes;  // tracked alloc bytes per shard
  int64_t alloc_bytes = 0;  // counting-allocator bytes, search phase
  int64_t alloc_count = 0;  // counting-allocator events, search phase

  /// The one field list: calls `fn(key, member, merge)` for every field in
  /// the key order of both JSON shapes (`ToJson` and api::StatsToJson).
  /// `member` points to a double, int, int64_t or obs::HistogramData
  /// member; `merge` is how `Merge` combines it.
  template <typename Fn>
  static void ForEachField(Fn&& fn);

  /// Folds `other` in: counters and times add up, the high-water marks
  /// (max_pseudorun_length, max_trie_size, buchi_states, peak_memory_bytes,
  /// governor_polls) keep the larger value, histograms merge bucket by
  /// bucket.
  void Merge(const VerifyStats& other);

  /// Every field as a JSON object with stable snake_case keys (the
  /// `wave_verify --stats-json` payload). Histograms render as their
  /// {count,sum,min,max,mean,p50,p90,p99} summaries.
  obs::Json ToJson() const;
};

template <typename Fn>
void VerifyStats::ForEachField(Fn&& fn) {
  using S = VerifyStats;
  constexpr StatsMerge kSum = StatsMerge::kSum;
  constexpr StatsMerge kMax = StatsMerge::kMax;
  fn("seconds", &S::seconds, kSum);
  fn("prepare_seconds", &S::prepare_seconds, kSum);
  fn("dataflow_seconds", &S::dataflow_seconds, kSum);
  fn("search_seconds", &S::search_seconds, kSum);
  fn("validate_seconds", &S::validate_seconds, kSum);
  fn("max_pseudorun_length", &S::max_pseudorun_length, kMax);
  fn("max_trie_size", &S::max_trie_size, kMax);
  fn("buchi_states", &S::buchi_states, kMax);
  fn("num_assignments", &S::num_assignments, kSum);
  fn("num_cores", &S::num_cores, kSum);
  fn("num_expansions", &S::num_expansions, kSum);
  fn("num_successors", &S::num_successors, kSum);
  fn("num_rejected_candidates", &S::num_rejected_candidates, kSum);
  fn("trie_hits", &S::trie_hits, kSum);
  fn("trie_misses", &S::trie_misses, kSum);
  fn("heartbeats", &S::heartbeats, kSum);
  fn("peak_memory_bytes", &S::peak_memory_bytes, kMax);
  fn("governor_polls", &S::governor_polls, kMax);
  fn("cache_hits", &S::cache_hits, kSum);
  fn("prepass_reuses", &S::prepass_reuses, kSum);
  fn("search_depth", &S::search_depth, kSum);
  fn("trie_lookup_us", &S::trie_lookup_us, kSum);
  fn("shard_expansions", &S::shard_expansions, kSum);
  fn("shard_alloc_bytes", &S::shard_alloc_bytes, kSum);
  fn("alloc_bytes", &S::alloc_bytes, kSum);
  fn("alloc_count", &S::alloc_count, kSum);
}

/// Outcome of `Verifier::Verify`.
struct VerifyResult {
  Verdict verdict = Verdict::kUnknown;
  std::string failure_reason;  // non-empty when kUnknown
  /// Which limit produced a kUnknown verdict (kNone otherwise). Budget
  /// reasons (`IsBudgetLimited`) are the ones the retry ladder escalates.
  UnknownReason unknown_reason = UnknownReason::kNone;

  /// Counterexample (when kViolated): `stick` is the lollipop prefix,
  /// `candy` the cycle; the last candy step loops back to `candy.front()`.
  std::vector<CounterexampleStep> stick;
  std::vector<CounterexampleStep> candy;

  /// The C∃ assignment (property forall-variable -> witness constant)
  /// under which the counterexample was found.
  std::map<std::string, SymbolId> witness_binding;

  VerifyStats stats;

  bool holds() const { return verdict == Verdict::kHolds; }

  /// Human-readable rendering of the counterexample pseudorun.
  std::string CounterexampleString(const WebAppSpec& spec) const;
};

// --- the unified request/response API (PR 3) --------------------------------

/// One rung of the retry escalation ladder: the budgets that override the
/// base `VerifyOptions` for that attempt (the deadline is assigned
/// separately, from the ladder's total budget).
struct RetryRung {
  std::string name;                     // "tight", "base", "exhaustive", ...
  int max_candidates = kDefaultMaxCandidates;
  int64_t max_expansions = -1;          // -1 = unlimited
  bool exhaustive_existential = false;
};

/// The standard three-rung ladder derived from the caller's options:
///   0 "tight"      — half the candidate budget, capped expansions: fails
///                    fast on easy instances, cheap to discard on hard ones;
///   1 "base"       — the caller's own budgets;
///   2 "exhaustive" — double candidate budget (at most
///                    kMaxCandidatesLimit), unlimited expansions,
///                    exhaustive_existential on.
/// Rungs whose budgets do not exceed the previous rung's are dropped.
std::vector<RetryRung> DefaultLadder(const VerifyOptions& base);

/// What one attempt did, for logs and `--stats-json`.
struct AttemptRecord {
  int rung = 0;
  std::string rung_name;
  double budget_seconds = 0;   // deadline assigned to this attempt
  double elapsed_seconds = 0;  // what it actually used
  Verdict verdict = Verdict::kUnknown;
  UnknownReason unknown_reason = UnknownReason::kNone;
  std::string failure_reason;
  VerifyStats stats;
};

/// Budget-escalation policy of a `VerifyRequest`. Disabled by default (a
/// single attempt with the request's own options); when `enabled`, the
/// ladder is climbed as documented in docs/ROBUSTNESS.md.
struct RetryPolicy {
  bool enabled = false;
  /// Ladder to climb; empty uses `DefaultLadder` over the base options.
  std::vector<RetryRung> ladder;
  /// Total wall-clock budget across every attempt; <= 0 uses the base
  /// options' `timeout_seconds`.
  double total_budget_seconds = -1;
};

/// Everything one verification needs, in one value. Select the property
/// either directly (`property`, borrowed) or by name/index into a
/// `properties` catalog — exactly one selector must be set.
struct VerifyRequest {
  /// The property to check (not owned; must outlive the call). Highest
  /// precedence.
  const Property* property = nullptr;

  /// Catalog for name/index selection (not owned). Required when
  /// `property` is null.
  const std::vector<Property>* properties = nullptr;
  /// Index into `properties` (-1 = unset).
  int property_index = -1;
  /// Name lookup in `properties` (empty = unset; checked after
  /// `property_index`).
  std::string property_name;

  VerifyOptions options;
  RetryPolicy retry;

  /// Worker threads for the sharded (assignment, core) search: 1 (the
  /// default) searches on the calling thread exactly as before; N > 1
  /// runs a work-stealing pool of N; 0 means one per hardware thread.
  /// Verdicts are run-to-run deterministic across jobs values — see
  /// docs/PARALLELISM.md for the contract and its caveats.
  int jobs = 1;

  /// Optional persistent result cache (not owned; may be null). On a hit
  /// the stored decided response is returned without searching
  /// (`stats.cache_hits == 1`); decided results are stored back on a
  /// miss. See verifier/cache.h for the key and portability rules.
  ResultCache* cache = nullptr;
};

/// Outcome of `Verifier::Run`: a `VerifyResult` plus the retry history
/// (empty unless the request enabled a retry policy).
struct VerifyResponse : VerifyResult {
  /// Per-attempt records when `retry.enabled`; empty otherwise.
  std::vector<AttemptRecord> attempts;
  /// Index of the ladder rung that decided (kHolds/kViolated); -1 when no
  /// rung did or retry was disabled.
  int decided_rung = -1;
};

// --- the batch API (PR 4) ---------------------------------------------------

/// N properties against one spec in one call. The engine performs the
/// spec-level pre-pass once, then feeds the worker pool a fused shard
/// stream across all N searches: a pool of J workers drains the union of
/// every property's (assignment, core) shards, so one property's huge
/// search cannot serialize behind another's. Budgets (`options.timeout_*`
/// etc.) are shared by the whole batch.
struct BatchRequest {
  /// The property catalog (not owned; must outlive the call). Required.
  const std::vector<Property>* properties = nullptr;
  /// Subset of `properties` to verify, by index, in this order. Empty
  /// verifies the whole catalog in catalog order.
  std::vector<int> property_indices;

  /// One set of options for every property (they share the pre-pass).
  VerifyOptions options;
  /// Escalation ladder applied batch-wide: each rung re-runs only the
  /// properties still undecided for a budget-limited reason.
  RetryPolicy retry;
  /// Worker threads, as in `VerifyRequest::jobs`.
  int jobs = 1;
  /// Optional persistent result cache, as in `VerifyRequest::cache`.
  ResultCache* cache = nullptr;
};

/// Outcome of `Verifier::RunBatch`.
struct BatchResponse {
  /// One response per requested property, in request order. Verdicts and
  /// counterexample validity are identical to N sequential `Run` calls at
  /// any `jobs` value (the PR-3 determinism contract, lifted to batches).
  std::vector<VerifyResponse> responses;
  /// Counters summed (max for the high-water marks) across `responses`;
  /// `merged.seconds` is the batch wall time.
  VerifyStats merged;

  /// True when every response is kHolds.
  bool all_hold() const {
    for (const VerifyResponse& r : responses) {
      if (r.verdict != Verdict::kHolds) return false;
    }
    return true;
  }
};

/// Structured pre-flight validation of a property against a spec (ISSUE
/// 2): every page atom names a known page, every relation atom resolves in
/// the catalog with the declared arity, and every free variable of the
/// body is bound by the forall block. Returns kOk when the property can be
/// verified without tripping an internal invariant; otherwise an
/// InvalidArgument Status naming the property and the offending atom.
/// `Verifier::Run` runs this automatically.
Status ValidatePropertyForSpec(const WebAppSpec& spec,
                               const Property& property);

/// The candidate budgets of a request: `options.max_candidates` and every
/// rung of `retry.ladder` must lie in [0, kMaxCandidatesLimit] (a core is
/// addressed as an int64 bitmap of its candidates). InvalidArgument
/// otherwise. `Verifier::Run` and `RunBatch` run this automatically.
Status ValidateCandidateBudgets(const VerifyOptions& options,
                                const RetryPolicy& retry);

/// The verifier. Reusable across properties of one spec; mints fresh
/// symbols (page domains, C∃ witnesses) into the spec's symbol table.
class Verifier {
 public:
  /// `spec` must outlive the verifier and validate cleanly
  /// (`WAVE_CHECK`ed). Prefer `Create` for untrusted input: it reports
  /// validation issues as a Status instead of aborting.
  explicit Verifier(WebAppSpec* spec);
  ~Verifier();

  /// Status-returning construction path: validates `spec` first and
  /// returns FailedPrecondition (listing the issues) instead of aborting.
  static StatusOr<std::unique_ptr<Verifier>> Create(WebAppSpec* spec);

  /// The one supported entry point (PR 3): resolves the request's property
  /// selector, pre-validates it against the spec, then runs the search —
  /// sharded over `request.jobs` workers, wrapped in the retry ladder when
  /// `request.retry.enabled`. Returns InvalidArgument for a bad selector
  /// or a property that fails `ValidatePropertyForSpec`; search-level
  /// failures (budgets, overflow) are a kUnknown verdict, not an error
  /// Status.
  StatusOr<VerifyResponse> Run(const VerifyRequest& request);

  /// The batch entry point (PR 4): validates every selected property,
  /// serves persistent-cache hits, then verifies the rest in one fused
  /// attempt per retry rung (see `BatchRequest`). Returns InvalidArgument
  /// for a null/out-of-range selection, a property failing
  /// `ValidatePropertyForSpec` or a budget failing
  /// `ValidateCandidateBudgets` — before verifying anything.
  StatusOr<BatchResponse> RunBatch(const BatchRequest& request);

  const PreparedSpec& prepared() const { return prepared_; }

  /// The session owning this verifier's pre-pass caches (never null).
  /// Exposed for cache inspection (`session().stats()`) — the engine
  /// consults it automatically on every Run/RunBatch.
  VerifierSession& session() { return *session_; }

 private:
  /// Proof that the spec was validated: the constructor taking it does not
  /// validate again.
  struct Validated {};
  /// `Validated` for a spec that validates; aborts otherwise.
  static Validated CheckValid(const WebAppSpec& spec);
  Verifier(WebAppSpec* spec, Validated);

  WebAppSpec* spec_;
  PreparedSpec prepared_;
  std::unique_ptr<VerifierSession> session_;
};

}  // namespace wave

#endif  // WAVE_VERIFIER_VERIFIER_H_
