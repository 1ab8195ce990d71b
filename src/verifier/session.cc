#include "verifier/session.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/fault.h"
#include "common/stopwatch.h"
#include "ltl/abstraction.h"

namespace wave {

namespace {

/// Adds the relations `f` reads to `current` and (through `prev` atoms) to
/// `prev`; undeclared relations are skipped.
void CollectReads(const Catalog& catalog, const Formula& f,
                  std::set<RelationId>* current, std::set<RelationId>* prev) {
  f.VisitLeaves([&](const Formula& leaf) {
    if (leaf.kind() != Formula::Kind::kAtom) return;
    RelationId id = catalog.Find(leaf.relation());
    if (id != kInvalidRelation) (leaf.previous() ? prev : current)->insert(id);
  });
}

void ComputeRelevance(const WebAppSpec& spec, PropertyPlan* plan) {
  const Catalog& catalog = spec.catalog();
  plan->relevant.assign(catalog.size(), false);
  plan->prev_read_by_page.assign(spec.num_pages(), {});

  std::set<RelationId> property_current, property_prev;
  for (const FormulaPtr& c : plan->raw_components) {
    CollectReads(catalog, *c, &property_current, &property_prev);
  }
  for (RelationId id : property_current) plan->relevant[id] = true;
  for (RelationId id : property_prev) plan->relevant[id] = true;
  plan->property_prev_reads = property_prev;
  plan->property_reads_prev = !property_prev.empty();

  for (int p = 0; p < spec.num_pages(); ++p) {
    const PageSchema& page = spec.page(p);
    std::set<RelationId> current, prev;
    auto walk = [&](const FormulaPtr& body) {
      CollectReads(catalog, *body, &current, &prev);
    };
    for (const InputRule& r : page.input_rules) walk(r.body);
    for (const StateRule& r : page.state_rules) walk(r.body);
    for (const ActionRule& r : page.action_rules) walk(r.body);
    for (const TargetRule& r : page.target_rules) walk(r.condition);
    for (RelationId id : current) plan->relevant[id] = true;
    for (RelationId id : prev) plan->relevant[id] = true;
    plan->prev_read_by_page[p] = prev;
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

VerifierSession::VerifierSession(WebAppSpec* spec, PageDomains* page_domains)
    : spec_(spec), page_domains_(page_domains) {}

VerifierSession::~VerifierSession() = default;

void VerifierSession::EnsureSpecArtifacts() {
  if (spec_artifacts_built_) return;
  spec_fingerprint_ = FingerprintSpec(*spec_);
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
  return spec_fingerprint_;
}

const PropertyPlan* VerifierSession::GetPlan(const Property& property,
                                             obs::Tracer* tracer) {
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
    obs::ScopedSpan span(tracer, "gpvw");
    GpvwOptions gpvw_options;
    gpvw_options.stats = &plan->gpvw_stats;
    plan->automaton =
        LtlToBuchi(&abstraction.arena, abstraction.root,
                   static_cast<int>(abstraction.components.size()),
                   gpvw_options);
    auto cached = std::make_unique<GpvwEntry>();
    cached->automaton = plan->automaton;
    cached->stats = plan->gpvw_stats;
    gpvw_cache_[skeleton] = std::move(cached);
    ++stats_.gpvw_misses;
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
    ComparisonAnalysis uninstantiated(*spec_, plan->raw_components);
    LocalFacts occurrences;
    for (const FormulaPtr& c : plan->raw_components) {
      occurrences.Walk(spec_->catalog(), *c);
    }
    for (const std::string& v : plan->free_vars) {
      std::set<SymbolId> candidates;
      const LocalVar& facts = occurrences.vars[v];
      for (const AttrPos& pos : facts.all_positions) {
        const std::set<SymbolId>& cs = uninstantiated.constants(pos);
        candidates.insert(cs.begin(), cs.end());
      }
      candidates.insert(facts.pinned.begin(), facts.pinned.end());
      plan->fresh_values.push_back(spec_->symbols().MintFresh("free." + v));
      plan->var_candidates.push_back(
          std::vector<SymbolId>(candidates.begin(), candidates.end()));
    }

    ComputeRelevance(*spec_, plan);
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
    WebAppSpec* spec, PageDomains* page_domains, const PropertyPlan& plan,
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
  }

  // C = CW ∪ (property constants) ∪ C∃.
  ctx->constant_universe = spec->SpecConstants();
  for (const FormulaPtr& c : ctx->instantiated) {
    std::set<SymbolId> cs = c->Constants();
    ctx->constant_universe.insert(cs.begin(), cs.end());
  }
  for (const auto& [var, value] : binding) {
    ctx->constant_universe.insert(value);
  }
  ctx->constant_vector.assign(ctx->constant_universe.begin(),
                              ctx->constant_universe.end());
  if (!ctx->constant_vector.empty()) {
    ctx->in_universe.resize(ctx->constant_vector.back() + 1);
    for (SymbolId c : ctx->constant_vector) ctx->in_universe[c] = true;
  }

  // Dataflow analysis over the instantiated property + spec, and the
  // candidate sets it prunes.
  obs::ScopedSpan dataflow_span(tracer, "dataflow");
  Stopwatch dataflow_watch;
  ctx->analysis =
      std::make_unique<ComparisonAnalysis>(*spec, ctx->instantiated);
  CandidateOptions candidate_options;
  candidate_options.heuristic1 = options.heuristic1;
  candidate_options.heuristic2 = options.heuristic2;
  candidate_options.max_candidates = options.max_candidates;
  ctx->builder = std::make_unique<CandidateBuilder>(
      spec, page_domains, ctx->analysis.get(), &ctx->instantiated,
      ctx->constant_universe, candidate_options);

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
        spec_, page_domains_, *plan, options, bindings[i],
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
