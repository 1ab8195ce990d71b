#include "verifier/session.h"

#include <algorithm>
#include <optional>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/fault.h"
#include "common/stopwatch.h"
#include "ltl/abstraction.h"

namespace wave {

namespace {

/// The spec's reads plus those of the property's components.
void ComputeRelevance(const SpecFacts& facts,
                      const std::vector<FormulaFacts>& components,
                      PropertyPlan* plan) {
  plan->relevant = facts.reads();
  for (const FormulaFacts& c : components) {
    for (const AtomFact& atom : c.atoms) {
      if (atom.relation == kInvalidRelation) continue;
      plan->relevant[atom.relation] = true;
      if (atom.previous) plan->property_prev_reads.insert(atom.relation);
    }
  }
}

/// Renders a term through symbol names (variables keep their own name) —
/// the process-stable building block of the spec fingerprint.
void AddTerm(FingerprintBuilder* fp, const SymbolTable& symbols,
             const Term& t) {
  if (t.kind == Term::Kind::kVariable) {
    fp->AddTag("var");
    fp->AddString(t.variable);
  } else {
    fp->AddTag("const");
    fp->AddString(symbols.Name(t.constant));
  }
}

}  // namespace

Fingerprint FingerprintProperty(const Property& property,
                                const SymbolTable& symbols) {
  FingerprintBuilder fp;
  fp.AddTag("property");
  fp.AddInt(static_cast<int64_t>(property.forall_vars.size()));
  for (const std::string& v : property.forall_vars) fp.AddString(v);
  fp.AddTag("body");
  fp.AddString(property.body != nullptr ? property.body->ToString(symbols)
                                        : "");
  return fp.Finish();
}

Fingerprint FingerprintSpec(const WebAppSpec& spec) {
  const SymbolTable& symbols = spec.symbols();
  const Catalog& catalog = spec.catalog();
  FingerprintBuilder fp;
  fp.AddTag("spec");
  fp.AddString(spec.name);

  fp.AddTag("catalog");
  fp.AddInt(catalog.size());
  for (RelationId id = 0; id < catalog.size(); ++id) {
    const RelationSchema& schema = catalog.schema(id);
    fp.AddString(schema.name);
    fp.AddInt(schema.arity);
    fp.AddInt(static_cast<int64_t>(schema.kind));
  }

  fp.AddTag("pages");
  fp.AddInt(spec.num_pages());
  fp.AddInt(spec.home_page());
  for (int p = 0; p < spec.num_pages(); ++p) {
    const PageSchema& page = spec.page(p);
    fp.AddString(page.name);
    fp.AddTag("inputs");
    for (RelationId input : page.inputs) {
      fp.AddString(catalog.schema(input).name);
    }
    auto add_rule = [&](const char* kind, RelationId relation,
                        const std::vector<Term>& head,
                        const FormulaPtr& body) {
      fp.AddTag(kind);
      fp.AddString(relation != kInvalidRelation
                       ? catalog.schema(relation).name
                       : "");
      for (const Term& t : head) AddTerm(&fp, symbols, t);
      fp.AddString(body != nullptr ? body->ToString(symbols) : "");
    };
    for (const InputRule& r : page.input_rules) {
      add_rule("input_rule", r.relation, r.head, r.body);
    }
    for (const StateRule& r : page.state_rules) {
      add_rule(r.insert ? "state_rule+" : "state_rule-", r.relation, r.head,
               r.body);
    }
    for (const ActionRule& r : page.action_rules) {
      add_rule("action_rule", r.relation, r.head, r.body);
    }
    for (const TargetRule& r : page.target_rules) {
      fp.AddTag("target_rule");
      fp.AddInt(r.target_page);
      fp.AddString(r.condition != nullptr ? r.condition->ToString(symbols)
                                          : "");
    }
  }
  return fp.Finish();
}

struct VerifierSession::GpvwEntry {
  BuchiAutomaton automaton;
  GpvwStats stats;
};

struct VerifierSession::PlanEntry {
  PropertyPlan plan;
};

struct VerifierSession::PrepassEntry {
  PrepassArtifacts artifacts;
  int pins = 0;
  uint64_t last_use = 0;
};

VerifierSession::VerifierSession(WebAppSpec* spec) : spec_(spec) {}

VerifierSession::~VerifierSession() = default;

void VerifierSession::EnsureSpecArtifacts() {
  if (spec_artifacts_built_) return;
  facts_ = std::make_unique<SpecFacts>(*spec_);
  page_domains_ = std::make_unique<PageDomains>(spec_, facts_.get());
  // Warm every page domain now, on the coordinator thread: the cache mints
  // witness symbols lazily, and the plans' lookup tables must point at
  // fully built entries before any worker reads them.
  page_domain_table_.resize(spec_->num_pages());
  for (int p = 0; p < spec_->num_pages(); ++p) {
    page_domain_table_[p] = &page_domains_->Get(p);
  }
  spec_artifacts_built_ = true;
  ++stats_.spec_builds;
}

const Fingerprint& VerifierSession::SpecFingerprint() {
  EnsureSpecArtifacts();
  if (!spec_fingerprint_.has_value()) {
    spec_fingerprint_ = FingerprintSpec(*spec_);
  }
  return *spec_fingerprint_;
}

const SpecFacts& VerifierSession::facts() {
  EnsureSpecArtifacts();
  return *facts_;
}

const PropertyPlan* VerifierSession::GetPlan(const Property& property,
                                             obs::Tracer* tracer,
                                             BudgetLedger* ledger,
                                             bool* too_large) {
  if (spec_artifacts_built_) {
    ++stats_.spec_reuses;
  } else {
    EnsureSpecArtifacts();
  }
  Fingerprint key = FingerprintProperty(property, spec_->symbols());
  auto it = plans_.find(key);
  if (it != plans_.end()) {
    ++stats_.plan_reuses;
    return &it->second->plan;
  }
  ++stats_.plan_builds;
  WAVE_FAULT("session.plan.build");  // delay: a slow cold plan build

  auto entry = std::make_unique<PlanEntry>();
  PropertyPlan* plan = &entry->plan;
  plan->spec = spec_;
  plan->facts = facts_.get();
  plan->page_domain_table = page_domain_table_;

  // ϕ := ¬ϕ0 — search for a pseudorun satisfying the negation.
  LtlPtr negated = LtlFormula::Not(property.body);
  Abstraction abstraction = AbstractLtl(negated, spec_->symbols());
  plan->raw_components = abstraction.components;

  // The automaton depends only on the propositional skeleton; structurally
  // identical properties share one translation through this cache.
  std::string skeleton =
      std::to_string(abstraction.components.size()) + "#" +
      abstraction.arena.ToString(abstraction.root, [](int p) {
        return "p" + std::to_string(p);
      });
  auto gpvw_it = gpvw_cache_.find(skeleton);
  if (gpvw_it != gpvw_cache_.end()) {
    plan->automaton = gpvw_it->second->automaton;
    plan->gpvw_stats = gpvw_it->second->stats;
    plan->gpvw_cache_hit = true;
    ++stats_.gpvw_hits;
  } else {
    ++stats_.gpvw_misses;
    obs::ScopedSpan span(tracer, "gpvw");
    GpvwOptions gpvw_options;
    gpvw_options.stats = &plan->gpvw_stats;
    if (ledger != nullptr) {
      // No worker runs yet, so the translation reports its memory through
      // worker 0's slot, and clears it when done.
      gpvw_options.stop = [ledger](int64_t bytes) {
        ledger->ReportWorkerMemory(0, bytes);
        return ledger->Check(/*expansion_budget=*/false) !=
               UnknownReason::kNone;
      };
    }
    std::optional<BuchiAutomaton> automaton =
        LtlToBuchi(&abstraction.arena, abstraction.root,
                   static_cast<int>(abstraction.components.size()),
                   gpvw_options);
    if (ledger != nullptr) ledger->ReportWorkerMemory(0, 0);
    if (!automaton.has_value()) {
      // The ledger tripped mid-translation, or the automaton would pass a
      // size cap: nothing of this plan is kept.
      if (too_large != nullptr) *too_large = plan->gpvw_stats.over_size_cap;
      return nullptr;
    }
    plan->automaton = std::move(*automaton);
    auto cached = std::make_unique<GpvwEntry>();
    cached->automaton = plan->automaton;
    cached->stats = plan->gpvw_stats;
    gpvw_cache_[skeleton] = std::move(cached);
  }

  if (plan->automaton.IsEmptyLanguage()) {
    // The negation is unsatisfiable over infinite words: ϕ0 holds on all
    // runs of any system.
    plan->decided_holds = true;
  } else {
    // Free variables: the property's outermost universal block. Every free
    // variable of the body must be declared there.
    plan->free_vars = property.forall_vars;
    {
      std::set<std::string> declared(plan->free_vars.begin(),
                                     plan->free_vars.end());
      for (const FormulaPtr& c : plan->raw_components) {
        for (const std::string& v : c->FreeVariables()) {
          WAVE_CHECK_MSG(declared.count(v) > 0,
                         "property " << property.name << ": free variable '"
                                     << v
                                     << "' not bound by the forall block");
        }
      }
    }

    // Candidate constants per free variable (dataflow-guided C∃): the
    // constants any of the variable's attribute positions may be compared
    // to, its directly equated constants, and one fresh value.
    std::vector<FormulaFacts> components;
    for (const FormulaPtr& c : plan->raw_components) {
      components.push_back(facts_->Gather(*c));
    }
    ComparisonAnalysis uninstantiated(*facts_, components);
    for (const std::string& v : plan->free_vars) {
      std::set<SymbolId> candidates;
      for (const FormulaFacts& c : components) {
        const int slot = c.Slot(v);
        if (slot < 0) continue;
        for (int pos : c.vars[slot].positions) {
          const std::vector<SymbolId>& cs = uninstantiated.constants(pos);
          candidates.insert(cs.begin(), cs.end());
        }
        candidates.insert(c.vars[slot].pinned.begin(),
                          c.vars[slot].pinned.end());
      }
      plan->fresh_values.push_back(spec_->symbols().MintFresh("free." + v));
      plan->var_candidates.push_back(
          std::vector<SymbolId>(candidates.begin(), candidates.end()));
    }

    ComputeRelevance(*facts_, components, plan);
  }

  const PropertyPlan* result = &entry->plan;
  plans_[key] = std::move(entry);
  return result;
}

namespace {

/// Enumerates the C∃ bindings in exactly the order the sequential search
/// visited them, so shard index order reproduces the old chronology.
void EnumerateBindings(const PropertyPlan& plan, bool exhaustive, size_t i,
                       std::map<std::string, SymbolId>* binding,
                       std::vector<std::map<std::string, SymbolId>>* out) {
  if (i == plan.free_vars.size()) {
    out->push_back(*binding);
    return;
  }
  std::vector<SymbolId> values = plan.var_candidates[i];
  values.push_back(plan.fresh_values[i]);
  if (exhaustive) {
    // Equality patterns among fresh values: variable i may reuse the
    // fresh value of any earlier variable (canonical partition labels).
    for (size_t j = 0; j < i; ++j) values.push_back(plan.fresh_values[j]);
  }
  for (SymbolId v : values) {
    (*binding)[plan.free_vars[i]] = v;
    EnumerateBindings(plan, exhaustive, i + 1, binding, out);
  }
  binding->erase(plan.free_vars[i]);
}

std::unique_ptr<AssignmentContext> BuildAssignmentContext(
    WebAppSpec* spec, const SpecFacts& facts, PageDomains* page_domains,
    const PropertyPlan& plan,
    const VerifyOptions& options,
    const std::map<std::string, SymbolId>& binding, int index,
    obs::Tracer* tracer, double* dataflow_us) {
  auto ctx = std::make_unique<AssignmentContext>();
  ctx->index = index;
  ctx->binding = binding;
  Stopwatch build_watch;

  // Instantiate and prepare ϕ's FO components as sentences.
  PageResolver resolver = [spec](const std::string& name) {
    return spec->PageIndex(name);
  };
  for (const FormulaPtr& c : plan.raw_components) {
    FormulaPtr inst = c->SubstituteConstants(binding);
    ctx->instantiated.push_back(inst);
    ctx->components.push_back(
        PreparedFormula::Prepare(inst, spec->catalog(), {}, resolver));
    ctx->component_facts.push_back(facts.Gather(*inst));
  }

  // C = CW ∪ (property constants) ∪ C∃.
  std::vector<SymbolId>& universe = ctx->constant_vector;
  universe = facts.constants();
  for (const FormulaFacts& c : ctx->component_facts) {
    universe.insert(universe.end(), c.constants.begin(), c.constants.end());
  }
  for (const auto& [var, value] : binding) universe.push_back(value);
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());
  if (!ctx->constant_vector.empty()) {
    ctx->in_universe.resize(ctx->constant_vector.back() + 1);
    for (SymbolId c : ctx->constant_vector) ctx->in_universe[c] = true;
  }

  // Dataflow analysis over the instantiated property + spec, and the
  // candidate sets it prunes.
  obs::ScopedSpan dataflow_span(tracer, "dataflow");
  Stopwatch dataflow_watch;
  ctx->analysis =
      std::make_unique<ComparisonAnalysis>(facts, ctx->component_facts);
  CandidateOptions candidate_options;
  candidate_options.heuristic1 = options.heuristic1;
  candidate_options.heuristic2 = options.heuristic2;
  candidate_options.max_candidates = options.max_candidates;
  ctx->builder = std::make_unique<CandidateBuilder>(
      &facts, page_domains, ctx->analysis.get(), &ctx->component_facts,
      ctx->constant_vector, candidate_options);

  const CandidateSet& core = ctx->builder->CoreCandidates();
  ctx->core_candidates = &core;
  // The shard address encodes the core as an int64 bitmap, so ≥ 63
  // candidate tuples is treated as overflow too (the 2^63-core powerset
  // could never be enumerated anyway).
  if (core.overflow || core.tuples.size() > 62) {
    ctx->core_overflow = true;
    ctx->overflow_message =
        "core candidate set overflow (" +
        std::to_string(core.approx_tuple_count) + " candidate tuples); " +
        "Heuristic 1 " +
        (options.heuristic1 ? "insufficient" : "disabled");
  } else {
    ctx->num_cores = int64_t{1} << core.tuples.size();
    // Warm every (page, prev_page) extension pair `Advance` can produce —
    // the initial (home, -1), same-page stays, and every target edge — so
    // the workers never call the memoizing builder concurrently.
    const int stride = spec->num_pages() + 1;
    ctx->ext_stride = stride;
    ctx->ext_table.assign(
        static_cast<size_t>(spec->num_pages()) * stride, nullptr);
    auto warm = [&](int page, int prev) {
      if (page < 0 || page >= spec->num_pages()) return;
      const CandidateSet*& slot = ctx->ext_table[page * stride + (prev + 1)];
      if (slot == nullptr) {
        slot = &ctx->builder->ExtensionCandidates(page, prev);
      }
    };
    warm(spec->home_page(), -1);
    for (int q = 0; q < spec->num_pages(); ++q) {
      warm(q, q);
      for (const TargetRule& t : spec->page(q).target_rules) {
        warm(t.target_page, q);
      }
    }
  }
  dataflow_span.End();
  *dataflow_us += dataflow_watch.ElapsedMicros();
  ctx->build_us = build_watch.ElapsedMicros();
  return ctx;
}

}  // namespace

PrepassResult VerifierSession::GetPrepass(const Property& property,
                                          const VerifyOptions& options,
                                          BudgetLedger* ledger,
                                          obs::Tracer* tracer) {
  PrepassResult result;
  // Silent plan lookup: when the attempt already called GetPlan (the normal
  // engine sequence) the reuse was counted there — counting it again here
  // would double every attempt's `prepass_reuses` delta.
  Fingerprint property_fp = FingerprintProperty(property, spec_->symbols());
  const PropertyPlan* plan;
  auto plan_it = plans_.find(property_fp);
  if (plan_it != plans_.end()) {
    plan = &plan_it->second->plan;
  } else {
    plan = GetPlan(property, tracer);
  }
  if (plan->decided_holds) return result;

  PrepassKey key{property_fp,
                 {options.heuristic1, options.heuristic2,
                  options.exhaustive_existential, options.max_candidates}};
  auto it = prepass_.find(key);
  if (it != prepass_.end()) {
    ++stats_.context_reuses;
    it->second->last_use = ++use_clock_;
    ++it->second->pins;
    result.artifacts = &it->second->artifacts;
    result.reused = true;
    return result;
  }

  WAVE_FAULT("session.prepass.build");  // delay: a slow cold pre-pass
  // Build — everything that mints symbols or touches a memoizing cache
  // happens here, on one thread, in a deterministic order: C∃ contexts
  // (dataflow + candidate sets), extension tables. The workers then only
  // read. A core-candidate overflow truncates the build at that assignment
  // — exactly where the sequential search would have stopped.
  auto artifacts = std::make_unique<PrepassArtifacts>();
  artifacts->plan = plan;

  std::vector<std::map<std::string, SymbolId>> bindings;
  {
    std::map<std::string, SymbolId> binding;
    EnumerateBindings(*plan, options.exhaustive_existential, 0, &binding,
                      &bindings);
  }

  for (size_t i = 0; i < bindings.size(); ++i) {
    if (ledger != nullptr && ledger->Check() != UnknownReason::kNone) {
      // A budget tripped mid-build: the artifacts are incomplete in a
      // budget-dependent (NOT options-deterministic) way, so they must
      // never be cached. Hand them back caller-owned.
      result.partial = std::move(artifacts);
      result.tripped = true;
      return result;
    }
    obs::ScopedSpan assignment_span(tracer, "assignment");
    artifacts->ctxs.push_back(BuildAssignmentContext(
        spec_, *facts_, page_domains_.get(), *plan, options, bindings[i],
        static_cast<int>(i), tracer, &artifacts->dataflow_us));
    if (artifacts->ctxs.back()->core_overflow) break;
  }

  ++stats_.context_builds;
  // Insert with LRU eviction; pinned entries (a live attempt still reads
  // them) are never eviction victims.
  constexpr size_t kMaxPrepassEntries = 32;
  while (prepass_.size() >= kMaxPrepassEntries) {
    auto victim = prepass_.end();
    for (auto e = prepass_.begin(); e != prepass_.end(); ++e) {
      if (e->second->pins > 0) continue;
      if (victim == prepass_.end() ||
          e->second->last_use < victim->second->last_use) {
        victim = e;
      }
    }
    if (victim == prepass_.end()) break;  // everything pinned
    prepass_.erase(victim);
    ++stats_.context_evictions;
  }
  auto entry = std::make_unique<PrepassEntry>();
  entry->artifacts = std::move(*artifacts);
  entry->last_use = ++use_clock_;
  entry->pins = 1;
  result.artifacts = &entry->artifacts;
  prepass_[key] = std::move(entry);
  return result;
}

void VerifierSession::UnpinPrepass(const PrepassArtifacts* artifacts) {
  if (artifacts == nullptr) return;
  for (auto& [key, entry] : prepass_) {
    if (&entry->artifacts == artifacts) {
      WAVE_CHECK_MSG(entry->pins > 0, "UnpinPrepass without matching pin");
      --entry->pins;
      return;
    }
  }
  // Partial (caller-owned) artifacts are never registered; ignore.
}

}  // namespace wave
