#include "analysis/candidates.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "obs/alloc.h"

namespace wave {

PageDomains::PageDomains(WebAppSpec* spec, const SpecFacts* facts)
    : spec_(spec),
      facts_(facts),
      domains_(spec->num_pages()),
      built_(spec->num_pages(), false),
      rule_witnesses_(facts->num_witnesses(), kInvalidSymbol),
      property_witnesses_(spec->num_pages()) {}

const PageDomain& PageDomains::Get(int page) {
  PageDomain& domain = domains_[page];
  if (built_[page]) return domain;
  built_[page] = true;

  const PageSchema& schema = spec_->page(page);
  const Catalog& catalog = spec_->catalog();
  SymbolTable& symbols = spec_->symbols();
  domain.input_values.assign(facts_->num_input_slots(), kInvalidSymbol);
  for (RelationId input : schema.inputs) {
    const RelationSchema& relation = catalog.schema(input);
    for (int j = 0; j < relation.arity; ++j) {
      const SymbolId v = symbols.MintFresh(schema.name + "." + relation.name +
                                           "." + std::to_string(j));
      const int slot = facts_->InputSlot({input, j});
      if (slot >= 0) domain.input_values[slot] = v;  // else: invalid spec
    }
  }
  for (SymbolId v : domain.input_values) {
    if (v != kInvalidSymbol) domain.all_values.push_back(v);
  }
  // Witnesses for every option-rule body variable that is neither a head
  // variable nor pinned to a constant, in atom order.
  for (const RuleFacts& rule : facts_->rules(page)) {
    if (rule.kind != 'i') break;  // input rules come first
    const std::vector<LocalVar>& vars = rule.body.vars;
    std::vector<bool> skip(vars.size(), false);
    for (const TermFact& t : rule.head) {
      if (t.is_variable()) skip[t.var] = true;
    }
    for (size_t k = 0; k < vars.size(); ++k) {
      if (!vars[k].pinned.empty()) skip[k] = true;
    }
    for (const AtomFact& atom : rule.body.atoms) {
      for (const TermFact& t : atom.args) {
        if (!t.is_variable() || skip[t.var]) continue;
        skip[t.var] = true;
        domain.all_values.push_back(
            symbols.MintFresh(schema.name + ".w." + vars[t.var].name));
      }
    }
  }
  std::sort(domain.all_values.begin(), domain.all_values.end());
  return domain;
}

SymbolId PageDomains::Mint(int page, const std::string& tag) {
  return spec_->symbols().MintFresh(spec_->page(page).name + ".w." + tag);
}

SymbolId PageDomains::RuleWitness(int page, const RuleFacts& rule, int var) {
  SymbolId& witness = rule_witnesses_[rule.witness_base + var];
  if (witness == kInvalidSymbol) {
    witness = Mint(page, std::string(1, rule.kind) +
                             std::to_string(rule.index) + "." +
                             rule.body.vars[var].name);
  }
  return witness;
}

int PageDomains::PropertyVar(int component, const std::string& var) {
  std::string tag = "p" + std::to_string(component) + "." + var;
  auto [it, added] = property_vars_.emplace(
      tag, static_cast<int>(property_tags_.size()));
  if (added) property_tags_.push_back(std::move(tag));
  return it->second;
}

SymbolId PageDomains::PropertyWitness(int page, int id) {
  std::vector<SymbolId>& witnesses = property_witnesses_[page];
  if (witnesses.size() <= static_cast<size_t>(id)) {
    witnesses.resize(property_tags_.size(), kInvalidSymbol);
  }
  if (witnesses[id] == kInvalidSymbol) {
    witnesses[id] = Mint(page, property_tags_[id]);
  }
  return witnesses[id];
}

CandidateBuilder::CandidateBuilder(
    const SpecFacts* facts, PageDomains* domains,
    const ComparisonAnalysis* analysis,
    const std::vector<FormulaFacts>* property_components,
    const std::vector<SymbolId>& constant_universe,
    const CandidateOptions& options)
    : facts_(facts),
      domains_(domains),
      analysis_(analysis),
      property_components_(property_components),
      universe_(constant_universe),
      options_(options) {
  if (!universe_.empty()) {
    in_universe_.resize(universe_.back() + 1);
    for (SymbolId c : universe_) in_universe_[c] = true;
  }
  if (property_components_ != nullptr) {
    for (size_t r = 0; r < property_components_->size(); ++r) {
      std::vector<int>& ids = property_vars_.emplace_back();
      for (const LocalVar& var : (*property_components_)[r].vars) {
        ids.push_back(domains_->PropertyVar(static_cast<int>(r), var.name));
      }
    }
  }
}

void CandidateBuilder::AppendProduct(
    RelationId relation, const std::vector<std::vector<SymbolId>>& value_sets,
    bool require_fresh, CandidateSet* out) {
  // Count first (the product may be astronomically large).
  double product = 1;
  for (const auto& vs : value_sets) {
    if (vs.empty()) return;  // empty attribute set: no candidate tuples
    product *= static_cast<double>(vs.size());
  }
  if (product > 1e6) {
    // Too large to even enumerate for the fresh-value filter; count the
    // whole product as candidates.
    out->approx_tuple_count += product;
    out->overflow = true;
    return;
  }
  // Materialize the product.
  Tuple tuple(value_sets.size());
  std::vector<size_t> idx(value_sets.size(), 0);
  while (true) {
    bool fresh = false;
    for (size_t i = 0; i < value_sets.size(); ++i) {
      tuple[i] = value_sets[i][idx[i]];
      if (!InUniverse(tuple[i])) fresh = true;
    }
    // The budget counts distinct tuples: an atom's fresh and constant
    // instantiations coincide when a variable has no dataflow constant, and
    // atoms across rules often coincide. Until the budget is spent `out`
    // holds every distinct tuple so far; past it nothing more is kept, so
    // `approx_tuple_count` then counts every tuple, an upper bound.
    if ((!require_fresh || fresh) &&
        (out->overflow ||
         std::none_of(out->tuples.begin(), out->tuples.end(),
                      [&](const std::pair<RelationId, Tuple>& seen) {
                        return seen.first == relation && seen.second == tuple;
                      }))) {
      out->approx_tuple_count += 1;
      if (static_cast<int>(out->tuples.size()) >= options_.max_candidates) {
        out->overflow = true;
      } else {
        out->tuples.emplace_back(relation, tuple);
        obs::CountAlloc(static_cast<int64_t>(
            sizeof(out->tuples.back()) + tuple.size() * sizeof(SymbolId)));
      }
    }
    // Advance the mixed-radix counter.
    size_t i = 0;
    while (i < idx.size() && ++idx[i] == value_sets[i].size()) {
      idx[i] = 0;
      ++i;
    }
    if (i == idx.size()) break;
  }
}

void CandidateBuilder::BuildCore() {
  core_built_ = true;
  const Catalog& catalog = facts_->spec().catalog();
  for (RelationId id = 0; id < catalog.size(); ++id) {
    const RelationSchema& schema = catalog.schema(id);
    if (schema.kind != RelationKind::kDatabase) continue;
    std::vector<std::vector<SymbolId>> value_sets(schema.arity);
    for (int i = 0; i < schema.arity; ++i) {
      if (options_.heuristic1) {
        for (SymbolId c : analysis_->constants({id, i})) {
          if (InUniverse(c)) value_sets[i].push_back(c);
        }
      } else {
        value_sets[i] = universe_;
      }
    }
    AppendProduct(id, value_sets, /*require_fresh=*/false, &core_);
  }
}

const CandidateSet& CandidateBuilder::CoreCandidates() {
  if (!core_built_) BuildCore();
  return core_;
}

template <typename Witness>
void CandidateBuilder::AddFormulaCandidates(const FormulaFacts& f, int page,
                                            int prev_page,
                                            const Witness& witness,
                                            CandidateSet* out) {
  const Catalog& catalog = facts_->spec().catalog();
  const PageDomain& current = domains_->Get(page);
  const PageDomain* previous =
      prev_page >= 0 ? &domains_->Get(prev_page) : nullptr;

  // Fresh value of a variable: a linked input position's page value, else a
  // per-variable witness; pinned variables always take their constant(s).
  auto fresh_values = [&](int var, std::vector<SymbolId>* values) {
    const LocalVar& info = f.vars[var];
    values->assign(info.pinned.begin(), info.pinned.end());
    if (!values->empty()) return;
    for (const auto& [slot, is_prev] : info.inputs) {
      const PageDomain* domain = is_prev ? previous : &current;
      if (domain == nullptr) continue;
      const SymbolId value = domain->input_values[slot];
      if (value != kInvalidSymbol) values->push_back(value);
    }
    if (values->empty()) values->push_back(witness(var));
  };
  // Constants mode: the dataflow-allowed constants of any position the
  // variable occupies (falling back to the fresh values).
  auto constant_values = [&](int var, std::vector<SymbolId>* values) {
    const LocalVar& info = f.vars[var];
    values->assign(info.pinned.begin(), info.pinned.end());
    if (!values->empty()) return;
    for (int pos : info.positions) {
      for (SymbolId c : analysis_->constants(pos)) {
        if (InUniverse(c)) values->push_back(c);
      }
    }
    std::sort(values->begin(), values->end());
    values->erase(std::unique(values->begin(), values->end()), values->end());
    if (values->empty()) fresh_values(var, values);
  };

  std::vector<std::vector<SymbolId>> value_sets;
  for (const AtomFact& atom : f.atoms) {
    if (atom.relation == kInvalidRelation ||
        catalog.schema(atom.relation).kind != RelationKind::kDatabase) {
      continue;
    }
    value_sets.resize(atom.args.size());
    for (int mode = 0; mode < 2; ++mode) {
      for (size_t k = 0; k < atom.args.size(); ++k) {
        const TermFact& t = atom.args[k];
        if (!t.is_variable()) {
          value_sets[k].assign(1, t.constant);
        } else if (mode == 0) {
          fresh_values(t.var, &value_sets[k]);
        } else {
          constant_values(t.var, &value_sets[k]);
        }
      }
      AppendProduct(atom.relation, value_sets, /*require_fresh=*/true, out);
    }
  }
}

CandidateSet CandidateBuilder::BuildExtension(int page, int prev_page) {
  CandidateSet out;

  if (!options_.heuristic2) {
    // Heuristic 2 disabled: every tuple over C ∪ C_{V_t} ∪ C_{V_s} with at
    // least one fresh value is a candidate — Example 3.4's regime.
    std::vector<SymbolId> universe = universe_;
    const PageDomain& current = domains_->Get(page);
    universe.insert(universe.end(), current.all_values.begin(),
                    current.all_values.end());
    if (prev_page >= 0) {
      const PageDomain& previous = domains_->Get(prev_page);
      universe.insert(universe.end(), previous.all_values.begin(),
                      previous.all_values.end());
    }
    std::sort(universe.begin(), universe.end());
    universe.erase(std::unique(universe.begin(), universe.end()),
                   universe.end());
    const Catalog& catalog = facts_->spec().catalog();
    for (RelationId id = 0; id < catalog.size(); ++id) {
      const RelationSchema& schema = catalog.schema(id);
      if (schema.kind != RelationKind::kDatabase) continue;
      std::vector<std::vector<SymbolId>> value_sets(schema.arity, universe);
      AppendProduct(id, value_sets, /*require_fresh=*/true, &out);
    }
    return out;
  }

  for (const RuleFacts& rule : facts_->rules(page)) {
    AddFormulaCandidates(
        rule.body, page, prev_page,
        [&](int var) { return domains_->RuleWitness(page, rule, var); },
        &out);
  }
  if (property_components_ != nullptr) {
    for (size_t r = 0; r < property_components_->size(); ++r) {
      const std::vector<int>& ids = property_vars_[r];
      AddFormulaCandidates(
          (*property_components_)[r], page, prev_page,
          [&](int var) { return domains_->PropertyWitness(page, ids[var]); },
          &out);
    }
  }

  std::sort(out.tuples.begin(), out.tuples.end());
  if (!out.overflow) {
    out.approx_tuple_count = static_cast<double>(out.tuples.size());
  }
  return out;
}

const CandidateSet& CandidateBuilder::ExtensionCandidates(int page,
                                                          int prev_page) {
  auto key = std::make_pair(page, prev_page);
  auto it = extensions_.find(key);
  if (it != extensions_.end()) return it->second;
  return extensions_.emplace(key, BuildExtension(page, prev_page))
      .first->second;
}

}  // namespace wave
