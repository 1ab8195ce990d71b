// Verification sessions (ISSUE 4): per-spec memoization of the pre-pass
// artifacts the search engine derives before any worker starts.
//
// A `VerifierSession` owns the caches for ONE spec. The engine's pre-pass
// has three layers, each keyed by exactly what it depends on:
//
//   1. spec artifacts   — the structural spec fingerprint (computed when
//                         a persistent cache first asks for it), the rules'
//                         dataflow facts (`SpecFacts`: each rule's resolved
//                         leaves, CW, page reads, the copy-edge graph and
//                         the rules' comparison sets closed over it), and
//                         the warmed page-domain table. Depend only on the
//                         spec; built once per session. Layers 2 and 3 add
//                         a property's seeds and reads to these facts and
//                         walk no rule again.
//   2. property plans   — negation, abstraction, GPVW automaton, relevance
//                         sets, C∃ candidate constants. Depend on property
//                         content (not its name), cached by its
//                         fingerprint. The GPVW translation itself is
//                         additionally cached by the canonical skeleton of
//                         the abstracted propositional formula, so two
//                         structurally identical properties (e.g. the same
//                         template over different relations) share one
//                         Büchi translation.
//   3. pre-pass sets    — assignment contexts, candidate cores, extension
//                         tables. Depend on the property plan AND the
//                         `VerifyOptions` fields that shape candidate
//                         enumeration (`heuristic1`, `heuristic2`,
//                         `exhaustive_existential`, `max_candidates`) —
//                         and on nothing else: tracer/metrics/heartbeat or
//                         budget changes hit the same entry.
//
// `Verifier::Run` and `Verifier::RunBatch` reach these caches through the
// verifier's session, so a batch of N properties (or N sequential calls on
// one verifier) pays the spec-level work once; `VerifyStats::
// prepass_reuses` and the `verify.prepass.*` metrics surface the reuse.
//
// Thread-safety: NONE — the session is engine-coordinator state, touched
// only from the thread that called Run/RunBatch (workers only read the
// immutable artifacts handed to them). This mirrors `Verifier` itself.
#ifndef WAVE_VERIFIER_SESSION_H_
#define WAVE_VERIFIER_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/candidates.h"
#include "analysis/dataflow.h"
#include "buchi/buchi.h"
#include "buchi/gpvw.h"
#include "common/fingerprint.h"
#include "fo/prepared.h"
#include "obs/tracer.h"
#include "spec/web_app.h"
#include "verifier/governor.h"
#include "verifier/verifier.h"

namespace wave {

/// Property-level immutable plan: everything the search needs that does
/// not depend on the C∃ assignment. Built once (sequentially) per distinct
/// property content, then only read — by the coordinator and the workers.
struct PropertyPlan {
  const WebAppSpec* spec = nullptr;
  BuchiAutomaton automaton;
  std::vector<FormulaPtr> raw_components;
  std::vector<std::string> free_vars;
  std::vector<SymbolId> fresh_values;
  std::vector<std::vector<SymbolId>> var_candidates;

  /// The negation is unsatisfiable over infinite words: the property holds
  /// on all runs of any system, and the plan has no candidate/relevance
  /// data (the search never runs).
  bool decided_holds = false;

  /// The session's spec facts (what the rules read per page included).
  const SpecFacts* facts = nullptr;

  // Relevance sets (the paper's "prune the partial configurations with
  // tuples that are irrelevant to the rules and property"): the spec's
  // reads plus the property's.
  std::vector<bool> relevant;
  std::set<RelationId> property_prev_reads;

  /// Page-domain lookup table: `page_domain_table[p]` points into the
  /// PageDomains cache, fully warmed before the workers start so the hot
  /// loops never touch the (lazily minting, mutex-free) cache itself.
  std::vector<const PageDomain*> page_domain_table;

  GpvwStats gpvw_stats;
  /// True when the Büchi translation was served from the session's GPVW
  /// cache instead of running the tableau construction.
  bool gpvw_cache_hit = false;
};

/// Everything one C∃ assignment contributes to the search, frozen before
/// the workers start: instantiated/prepared components, the constant
/// universe, the dataflow analysis, and — crucially — every candidate set
/// the search can reach, pre-built into lock-free lookup tables. Lives
/// behind a unique_ptr because the analysis and the CandidateBuilder keep
/// pointers to `component_facts`.
struct AssignmentContext {
  int index = 0;
  std::map<std::string, SymbolId> binding;
  std::vector<FormulaPtr> instantiated;
  std::vector<PreparedFormula> components;
  /// The instantiated components' leaves, resolved by the spec facts.
  std::vector<FormulaFacts> component_facts;
  /// C = CW ∪ (property constants) ∪ C∃, sorted.
  std::vector<SymbolId> constant_vector;
  /// Dense membership table of C, indexed by symbol id; ids past its end
  /// are outside C.
  std::vector<bool> in_universe;
  std::unique_ptr<ComparisonAnalysis> analysis;
  std::unique_ptr<CandidateBuilder> builder;

  const CandidateSet* core_candidates = nullptr;
  /// Cores of this assignment: 2^|core_candidates| (0 when overflowed).
  int64_t num_cores = 0;
  bool core_overflow = false;
  std::string overflow_message;

  /// Extension candidate sets, indexed `page * ext_stride + (prev + 1)`
  /// for every (page, prev) pair reachable by `Advance` (prev = -1 is the
  /// initial configuration). Overflowed sets are stored too — the search
  /// reports them at use time, like the sequential code did.
  std::vector<const CandidateSet*> ext_table;
  int ext_stride = 0;

  double build_us = 0;  // wall time to build this context (pre-pass)

  /// True when `value` is in the constant universe C.
  bool InUniverse(SymbolId value) const {
    return static_cast<size_t>(value) < in_universe.size() &&
           in_universe[value];
  }

  const CandidateSet* extension(int page, int prev_page) const {
    return ext_table[page * ext_stride + (prev_page + 1)];
  }
};

/// The layer-3 product of the pre-pass for one (property, options) pair:
/// the plan plus every assignment context, in the exact order the
/// sequential search enumerates C∃ bindings. A core-candidate overflow
/// truncates the build at the offending assignment (which is then the
/// last element, with `core_overflow` set) — deterministic per options, so
/// truncated artifacts are cached like complete ones.
struct PrepassArtifacts {
  const PropertyPlan* plan = nullptr;  // owned by the session's plan cache
  std::vector<std::unique_ptr<AssignmentContext>> ctxs;
  double dataflow_us = 0;  // dataflow wall time when this was built

  bool truncated() const {
    return !ctxs.empty() && ctxs.back()->core_overflow;
  }
};

/// Cumulative cache counters of one session; deltas around an attempt give
/// that attempt's `prepass_reuses` and `verify.prepass.*` metrics.
struct SessionStats {
  int64_t spec_builds = 0;    // spec-artifact layer built (0 or 1)
  int64_t spec_reuses = 0;    // ... served from the session
  int64_t plan_builds = 0;    // property plans built
  int64_t plan_reuses = 0;    // ... served from the plan cache
  int64_t gpvw_hits = 0;      // Büchi translations served from cache
  int64_t gpvw_misses = 0;    // ... actually translated
  int64_t context_builds = 0;   // assignment-context sets built
  int64_t context_reuses = 0;   // ... served from the pre-pass cache
  int64_t context_evictions = 0;  // pre-pass entries evicted (LRU)

  int64_t reuses() const { return spec_reuses + plan_reuses + context_reuses; }
};

/// Result of `VerifierSession::GetPrepass`. Exactly one of `artifacts`
/// (cached; pinned until `UnpinPrepass`) and `partial` (a budget limit
/// tripped mid-build; caller-owned, never cached) is set — both null means
/// the plan was already decided and there is nothing to build.
struct PrepassResult {
  const PrepassArtifacts* artifacts = nullptr;
  std::unique_ptr<PrepassArtifacts> partial;
  bool reused = false;
  bool tripped = false;

  const PrepassArtifacts* get() const {
    return artifacts != nullptr ? artifacts : partial.get();
  }
};

/// Content fingerprint of a property: the forall block plus the rendered
/// body — deliberately name-blind, so renaming a property (or repeating
/// its content under two names) shares cached artifacts.
Fingerprint FingerprintProperty(const Property& property,
                                const SymbolTable& symbols);

/// Structural fingerprint of a spec: catalog schemas, pages, rules and the
/// home page, all rendered through symbol NAMES — stable across processes,
/// which is what makes it usable in the persistent result-cache key.
Fingerprint FingerprintSpec(const WebAppSpec& spec);

/// The per-spec artifact caches. One per `Verifier`; see the file comment
/// for the three layers and their keys.
class VerifierSession {
 public:
  /// `spec` must outlive the session (the `Verifier` owns both and tears
  /// them down together); the session mints fresh values into it.
  explicit VerifierSession(WebAppSpec* spec);
  ~VerifierSession();

  VerifierSession(const VerifierSession&) = delete;
  VerifierSession& operator=(const VerifierSession&) = delete;

  /// Layer 1: structural fingerprint of the owned spec (also the prefix of
  /// every persistent-cache key), computed on first use: only cached runs
  /// read it. Builds the spec artifacts first, so the witnesses they mint
  /// keep their names whatever symbols a cache hit then interns.
  const Fingerprint& SpecFingerprint();

  /// Layer 1: the rules' dataflow facts. Builds the spec artifacts on
  /// first use.
  const SpecFacts& facts();

  /// Layer 2: the plan for `property`, built on a miss (GPVW translation
  /// under a "gpvw" tracer span, served from the skeleton cache when a
  /// structurally identical property was translated before). With a
  /// `ledger`, the translation reports its memory and polls the deadline,
  /// cancellation and memory ceiling; when one trips mid-translation the
  /// result is null and neither the plan nor the automaton is cached. A
  /// translation whose automaton would pass a size cap (buchi/gpvw.h)
  /// also returns null, caches nothing and sets `*too_large` when given;
  /// it leaves the ledger alone, so the batch's other properties go on.
  const PropertyPlan* GetPlan(const Property& property, obs::Tracer* tracer,
                              BudgetLedger* ledger = nullptr,
                              bool* too_large = nullptr);

  /// Layer 3: assignment contexts for (property, options). On a miss the
  /// build runs under `ledger` — checked between assignments, like the
  /// pre-pass always was — and a mid-build trip returns the partial,
  /// uncached artifacts (`tripped` set). Cached artifacts come back
  /// pinned; release them with `UnpinPrepass` once the attempt's merge no
  /// longer reads them.
  PrepassResult GetPrepass(const Property& property,
                           const VerifyOptions& options, BudgetLedger* ledger,
                           obs::Tracer* tracer);

  void UnpinPrepass(const PrepassArtifacts* artifacts);

  const SessionStats& stats() const { return stats_; }
  WebAppSpec* spec() { return spec_; }

 private:
  struct PlanEntry;
  struct PrepassEntry;
  struct GpvwEntry;

  void EnsureSpecArtifacts();

  WebAppSpec* spec_;

  bool spec_artifacts_built_ = false;
  std::optional<Fingerprint> spec_fingerprint_;
  std::unique_ptr<SpecFacts> facts_;
  std::unique_ptr<PageDomains> page_domains_;
  std::vector<const PageDomain*> page_domain_table_;

  std::map<Fingerprint, std::unique_ptr<PlanEntry>> plans_;
  std::map<std::string, std::unique_ptr<GpvwEntry>> gpvw_cache_;

  /// Pre-pass key: property fingerprint × the candidate-shaping options.
  using PrepassKey = std::pair<Fingerprint, std::tuple<bool, bool, bool, int>>;
  std::map<PrepassKey, std::unique_ptr<PrepassEntry>> prepass_;
  uint64_t use_clock_ = 0;

  SessionStats stats_;
};

}  // namespace wave

#endif  // WAVE_VERIFIER_SESSION_H_
