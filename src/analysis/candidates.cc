#include "analysis/candidates.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "obs/alloc.h"

namespace wave {

void LocalFacts::Walk(const Catalog& catalog, const Formula& f) {
  f.VisitLeaves([&](const Formula& leaf) {
    const std::vector<Term>& args = leaf.args();
    if (leaf.kind() == Formula::Kind::kEquals) {
      if (args[0].is_variable() && !args[1].is_variable()) {
        vars[args[0].variable].pinned.insert(args[1].constant);
      } else if (args[1].is_variable() && !args[0].is_variable()) {
        vars[args[1].variable].pinned.insert(args[0].constant);
      }
      return;
    }
    if (leaf.kind() != Formula::Kind::kAtom) return;
    RelationId id = catalog.Find(leaf.relation());
    if (id == kInvalidRelation) return;
    bool is_input = IsInputKind(catalog.schema(id).kind);
    for (size_t i = 0; i < args.size(); ++i) {
      if (!args[i].is_variable()) continue;
      LocalVar& v = vars[args[i].variable];
      AttrPos pos{id, static_cast<int>(i)};
      v.all_positions.insert(pos);
      if (is_input) v.input_positions.insert({pos, leaf.previous()});
    }
  });
}

CandidateBuilder::CandidateBuilder(
    WebAppSpec* spec, PageDomains* domains,
    const ComparisonAnalysis* analysis,
    const std::vector<FormulaPtr>* property_components,
    const std::set<SymbolId>& constant_universe,
    const CandidateOptions& options)
    : spec_(spec),
      domains_(domains),
      analysis_(analysis),
      property_components_(property_components),
      constant_universe_(constant_universe),
      options_(options) {}

const PageDomain& PageDomains::Get(int page) {
  auto it = domains_.find(page);
  if (it != domains_.end()) return it->second;

  PageDomain domain;
  const PageSchema& schema = spec_->page(page);
  SymbolTable& symbols = spec_->symbols();
  const std::string prefix = schema.name;

  for (RelationId input : schema.inputs) {
    int arity = spec_->catalog().schema(input).arity;
    for (int j = 0; j < arity; ++j) {
      SymbolId v = symbols.MintFresh(
          prefix + "." + spec_->catalog().schema(input).name + "." +
          std::to_string(j));
      domain.input_values[{input, j}] = v;
    }
  }
  for (size_t r = 0; r < schema.input_rules.size(); ++r) {
    const InputRule& rule = schema.input_rules[r];
    std::set<std::string> head_vars;
    for (const Term& t : rule.head) {
      if (t.is_variable()) head_vars.insert(t.variable);
    }
    LocalFacts facts;
    facts.Walk(spec_->catalog(), *rule.body);
    // Witnesses for every body variable that is neither a head variable nor
    // pinned to a constant.
    rule.body->VisitLeaves([&](const Formula& atom) {
      if (atom.kind() != Formula::Kind::kAtom) return;
      for (const Term& t : atom.args()) {
        if (!t.is_variable() || head_vars.count(t.variable) > 0 ||
            !facts.vars[t.variable].pinned.empty()) {
          continue;
        }
        auto key = std::make_pair(static_cast<int>(r), t.variable);
        if (domain.witnesses.count(key) == 0) {
          domain.witnesses[key] =
              symbols.MintFresh(prefix + ".w." + t.variable);
        }
      }
    });
  }
  for (const auto& [pos, v] : domain.input_values) domain.all_values.push_back(v);
  for (const auto& [key, v] : domain.witnesses) domain.all_values.push_back(v);
  std::sort(domain.all_values.begin(), domain.all_values.end());

  return domains_.emplace(page, std::move(domain)).first->second;
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
      if (constant_universe_.count(tuple[i]) == 0) fresh = true;
    }
    // The budget counts distinct tuples: an atom's fresh and constant
    // instantiations coincide when a variable has no dataflow constant, and
    // atoms across rules often coincide. Past the budget nothing more is
    // kept, so `approx_tuple_count` then counts every tuple, an upper bound.
    if ((!require_fresh || fresh) &&
        (out->overflow || seen_.emplace(relation, tuple).second)) {
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
  seen_.clear();
  std::vector<SymbolId> universe(constant_universe_.begin(),
                                 constant_universe_.end());
  for (RelationId id = 0; id < spec_->catalog().size(); ++id) {
    const RelationSchema& schema = spec_->catalog().schema(id);
    if (schema.kind != RelationKind::kDatabase) continue;
    std::vector<std::vector<SymbolId>> value_sets(schema.arity);
    for (int i = 0; i < schema.arity; ++i) {
      if (options_.heuristic1) {
        const std::set<SymbolId>& allowed = analysis_->constants({id, i});
        for (SymbolId c : allowed) {
          if (constant_universe_.count(c) > 0) value_sets[i].push_back(c);
        }
      } else {
        value_sets[i] = universe;
      }
    }
    AppendProduct(id, value_sets, /*require_fresh=*/false, &core_);
  }
}

const CandidateSet& CandidateBuilder::CoreCandidates() {
  if (!core_built_) BuildCore();
  return core_;
}

SymbolId PageDomains::Witness(int page, const std::string& tag) {
  auto key = std::make_pair(page, tag);
  auto it = generic_witnesses_.find(key);
  if (it != generic_witnesses_.end()) return it->second;
  SymbolId v = spec_->symbols().MintFresh(spec_->page(page).name + ".w." + tag);
  return generic_witnesses_.emplace(key, v).first->second;
}

void CandidateBuilder::AddFormulaCandidates(
    const FormulaPtr& body, int page, int prev_page,
    const std::string& formula_tag, RelationId option_head_relation,
    const std::vector<Term>* option_head, CandidateSet* out) {
  const Catalog& catalog = spec_->catalog();
  LocalFacts facts;
  facts.Walk(catalog, *body);
  if (option_head != nullptr) {
    // Option-rule head variables are the values of the generated input
    // tuple: treat the head columns as (current-step) input positions.
    for (size_t j = 0; j < option_head->size(); ++j) {
      const Term& t = (*option_head)[j];
      if (!t.is_variable()) continue;
      AttrPos pos{option_head_relation, static_cast<int>(j)};
      facts.vars[t.variable].all_positions.insert(pos);
      facts.vars[t.variable].input_positions.insert({pos, false});
    }
  }

  const PageDomain& current = page_domain(page);
  const PageDomain* previous =
      prev_page >= 0 ? &page_domain(prev_page) : nullptr;

  // Fresh value of a variable: a linked input position's page value, else a
  // per-variable witness; pinned variables always take their constant(s).
  auto fresh_values = [&](const std::string& var) {
    const LocalVar& info = facts.vars[var];
    std::vector<SymbolId> values(info.pinned.begin(), info.pinned.end());
    if (!values.empty()) return values;
    for (const auto& [pos, is_prev] : info.input_positions) {
      const PageDomain* domain = is_prev ? previous : &current;
      if (domain == nullptr) continue;
      auto it = domain->input_values.find(pos);
      if (it != domain->input_values.end()) values.push_back(it->second);
    }
    if (values.empty()) {
      values.push_back(domains_->Witness(page, formula_tag + "." + var));
    }
    return values;
  };
  // Constants mode: the dataflow-allowed constants of any position the
  // variable occupies (falling back to the fresh values).
  auto constant_values = [&](const std::string& var) {
    const LocalVar& info = facts.vars[var];
    std::vector<SymbolId> values(info.pinned.begin(), info.pinned.end());
    if (!values.empty()) return values;
    std::set<SymbolId> cs;
    for (const AttrPos& pos : info.all_positions) {
      for (SymbolId c : analysis_->constants(pos)) {
        if (constant_universe_.count(c) > 0) cs.insert(c);
      }
    }
    if (!cs.empty()) return std::vector<SymbolId>(cs.begin(), cs.end());
    return fresh_values(var);
  };

  body->VisitLeaves([&](const Formula& atom) {
    if (atom.kind() != Formula::Kind::kAtom) return;
    RelationId id = catalog.Find(atom.relation());
    if (id == kInvalidRelation) return;
    if (catalog.schema(id).kind != RelationKind::kDatabase) return;
    for (int mode = 0; mode < 2; ++mode) {
      std::vector<std::vector<SymbolId>> value_sets(atom.args().size());
      for (size_t k = 0; k < atom.args().size(); ++k) {
        const Term& t = atom.args()[k];
        if (!t.is_variable()) {
          value_sets[k] = {t.constant};
        } else {
          value_sets[k] =
              mode == 0 ? fresh_values(t.variable) : constant_values(t.variable);
        }
      }
      AppendProduct(id, value_sets, /*require_fresh=*/true, out);
    }
  });
}

CandidateSet CandidateBuilder::BuildExtension(int page, int prev_page) {
  CandidateSet out;
  seen_.clear();

  if (!options_.heuristic2) {
    // Heuristic 2 disabled: every tuple over C ∪ C_{V_t} ∪ C_{V_s} with at
    // least one fresh value is a candidate — Example 3.4's regime.
    const PageDomain& current = page_domain(page);
    std::set<SymbolId> values(constant_universe_.begin(),
                              constant_universe_.end());
    values.insert(current.all_values.begin(), current.all_values.end());
    if (prev_page >= 0) {
      const PageDomain& previous = page_domain(prev_page);
      values.insert(previous.all_values.begin(), previous.all_values.end());
    }
    std::vector<SymbolId> universe(values.begin(), values.end());
    for (RelationId id = 0; id < spec_->catalog().size(); ++id) {
      const RelationSchema& schema = spec_->catalog().schema(id);
      if (schema.kind != RelationKind::kDatabase) continue;
      std::vector<std::vector<SymbolId>> value_sets(schema.arity, universe);
      AppendProduct(id, value_sets, /*require_fresh=*/true, &out);
    }
    return out;
  }

  const PageSchema& schema = spec_->page(page);
  for (size_t r = 0; r < schema.input_rules.size(); ++r) {
    const InputRule& rule = schema.input_rules[r];
    AddFormulaCandidates(rule.body, page, prev_page,
                         "i" + std::to_string(r), rule.relation, &rule.head,
                         &out);
  }
  for (size_t r = 0; r < schema.state_rules.size(); ++r) {
    AddFormulaCandidates(schema.state_rules[r].body, page, prev_page,
                         "s" + std::to_string(r), kInvalidRelation, nullptr,
                         &out);
  }
  for (size_t r = 0; r < schema.action_rules.size(); ++r) {
    AddFormulaCandidates(schema.action_rules[r].body, page, prev_page,
                         "a" + std::to_string(r), kInvalidRelation, nullptr,
                         &out);
  }
  for (size_t r = 0; r < schema.target_rules.size(); ++r) {
    AddFormulaCandidates(schema.target_rules[r].condition, page, prev_page,
                         "t" + std::to_string(r), kInvalidRelation, nullptr,
                         &out);
  }
  if (property_components_ != nullptr) {
    for (size_t r = 0; r < property_components_->size(); ++r) {
      AddFormulaCandidates((*property_components_)[r], page, prev_page,
                           "p" + std::to_string(r), kInvalidRelation, nullptr,
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
