#include "spec/prepared_spec.h"

#include <algorithm>
#include <set>

namespace wave {

namespace {

PreparedRule PrepareRule(RelationId relation, const std::vector<Term>& head,
                         const FormulaPtr& body, const WebAppSpec& spec,
                         const PageResolver& pages) {
  PreparedRule rule;
  rule.relation = relation;
  rule.head = head;
  rule.head_vars = HeadVariables(head);
  for (const Term& t : head) {
    rule.head_slots.push_back(
        t.is_variable()
            ? static_cast<int>(std::find(rule.head_vars.begin(),
                                         rule.head_vars.end(), t.variable) -
                               rule.head_vars.begin())
            : -1);
  }
  rule.prepared =
      PreparedFormula::Prepare(body, spec.catalog(), rule.head_vars, pages);
  return rule;
}

}  // namespace

std::vector<Tuple> DerivedTuples::Tuples(int g) const {
  std::vector<Tuple> out;
  for (size_t i = 0; i < size(g); ++i) {
    out.emplace_back(tuple(g, i), tuple(g, i) + groups_[g].arity);
  }
  return out;
}

void DerivedTuples::Derive(const PreparedRule& rule,
                           const ConfigurationView& view,
                           const std::vector<SymbolId>& domain) {
  assignments_.clear();
  const size_t count =
      rule.prepared.EnumerateSatisfying(view, domain, &scratch_, &assignments_);
  Group group;
  group.relation = rule.relation;
  group.arity = rule.head.size();
  group.begin = values_.size();
  group.count = count;
  // Head variables appear in first-occurrence order, so distinct sorted
  // assignments instantiate distinct sorted head tuples.
  const size_t width = rule.head_vars.size();
  for (size_t a = 0; a < count; ++a) {
    const SymbolId* assignment = assignments_.data() + a * width;
    for (size_t i = 0; i < group.arity; ++i) {
      values_.push_back(rule.head_slots[i] >= 0
                            ? assignment[rule.head_slots[i]]
                            : rule.head[i].constant);
    }
  }
  groups_.push_back(group);
}

PreparedSpec::PreparedSpec(const WebAppSpec* spec) : spec_(spec) {
  PageResolver resolver = [spec](const std::string& name) {
    return spec->PageIndex(name);
  };
  for (int p = 0; p < spec->num_pages(); ++p) {
    const PageSchema& page = spec->page(p);
    PreparedPage out;
    out.inputs = page.inputs;
    for (const InputRule& r : page.input_rules) {
      out.input_rules.push_back(
          PrepareRule(r.relation, r.head, r.body, *spec, resolver));
    }
    for (const StateRule& r : page.state_rules) {
      (r.insert ? out.state_inserts : out.state_deletes)
          .push_back(PrepareRule(r.relation, r.head, r.body, *spec,
                                 resolver));
    }
    for (const ActionRule& r : page.action_rules) {
      out.action_rules.push_back(
          PrepareRule(r.relation, r.head, r.body, *spec, resolver));
    }
    for (const TargetRule& r : page.target_rules) {
      PreparedTarget t;
      t.target_page = r.target_page;
      t.condition = PreparedFormula::Prepare(r.condition, spec->catalog(),
                                             {}, resolver);
      out.targets.push_back(std::move(t));
    }
    pages_.push_back(std::move(out));
  }
  for (SymbolId c : spec->SpecConstants()) spec_constants_.push_back(c);
}

void PreparedSpec::ComputeOptions(const ConfigurationView& view,
                                  const std::vector<SymbolId>& domain,
                                  DerivedTuples* options) const {
  options->Clear();
  for (const PreparedRule& rule : pages_[view.current_page()].input_rules) {
    options->Derive(rule, view, domain);
  }
}

void PreparedSpec::DeriveActions(const ConfigurationView& view,
                                 const std::vector<SymbolId>& domain,
                                 DerivedTuples* actions) const {
  actions->Clear();
  // Actions see the chosen input, previous input and current state.
  for (const PreparedRule& rule : pages_[view.current_page()].action_rules) {
    actions->Derive(rule, view, domain);
  }
}

int PreparedSpec::Advance(const ConfigurationView& view,
                          const std::vector<SymbolId>& domain,
                          DerivedTuples* inserts,
                          DerivedTuples* deletes) const {
  const int current = view.current_page();
  const PreparedPage& page = pages_[current];

  // Target page: exactly one satisfied condition moves; otherwise stay
  // ("if several conditions are true, no transition occurs").
  int target = -1;
  bool unique = true;
  std::vector<SymbolId>& regs = inserts->scratch_.regs;
  for (const PreparedTarget& t : page.targets) {
    regs.assign(t.condition.num_slots(), kInvalidSymbol);
    if (t.condition.EvalClosed(view, domain, &regs)) {
      if (target == -1) {
        target = t.target_page;
      } else if (target != t.target_page) {
        unique = false;
      }
    }
  }

  // State update: every rule is evaluated against the *current*
  // configuration; the caller applies the two sets.
  inserts->Clear();
  deletes->Clear();
  for (const PreparedRule& rule : page.state_inserts) {
    inserts->Derive(rule, view, domain);
  }
  for (const PreparedRule& rule : page.state_deletes) {
    deletes->Derive(rule, view, domain);
  }
  return (target != -1 && unique) ? target : current;
}

InputOptions PreparedSpec::ComputeOptions(
    const Configuration& config, const std::vector<SymbolId>& domain) const {
  DerivedTuples derived;
  ComputeOptions(ConfigurationAdapter(&config), domain, &derived);
  InputOptions options;
  for (int g = 0; g < derived.num_groups(); ++g) {
    options[derived.relation(g)] = derived.Tuples(g);
  }
  return options;
}

void PreparedSpec::ApplyInput(const InputChoice& choice,
                              const std::vector<SymbolId>& domain,
                              Configuration* config) const {
  // Clear all input and action relations, then install the choice.
  const Catalog& catalog = spec_->catalog();
  for (RelationId id = 0; id < catalog.size(); ++id) {
    RelationKind kind = catalog.schema(id).kind;
    if (IsInputKind(kind) || kind == RelationKind::kAction) {
      config->data.relation(id).Clear();
    }
  }
  for (const auto& [relation, tuple] : choice) {
    config->data.relation(relation).Insert(tuple);
  }
  DerivedTuples actions;
  DeriveActions(ConfigurationAdapter(config), domain, &actions);
  for (int g = 0; g < actions.num_groups(); ++g) {
    for (const Tuple& t : actions.Tuples(g)) {
      config->data.relation(actions.relation(g)).Insert(t);
    }
  }
}

Configuration PreparedSpec::Advance(const Configuration& config,
                                    const std::vector<SymbolId>& domain) const {
  const Catalog& catalog = spec_->catalog();
  DerivedTuples insert_groups, delete_groups;
  Configuration next;
  next.page = Advance(ConfigurationAdapter(&config), domain, &insert_groups,
                      &delete_groups);
  next.data = config.data;
  next.previous = Instance(&catalog);

  // Apply the insert/delete sets with insert∧delete conflicts as no-ops.
  std::set<std::pair<RelationId, Tuple>> inserts, deletes;
  for (int g = 0; g < insert_groups.num_groups(); ++g) {
    for (Tuple& t : insert_groups.Tuples(g)) {
      inserts.emplace(insert_groups.relation(g), std::move(t));
    }
  }
  for (int g = 0; g < delete_groups.num_groups(); ++g) {
    for (Tuple& t : delete_groups.Tuples(g)) {
      deletes.emplace(delete_groups.relation(g), std::move(t));
    }
  }
  for (const auto& entry : deletes) {
    if (inserts.count(entry) > 0) continue;  // conflict: no-op
    next.data.relation(entry.first).Erase(entry.second);
  }
  for (const auto& entry : inserts) {
    if (deletes.count(entry) > 0) continue;  // conflict: no-op
    next.data.relation(entry.first).Insert(entry.second);
  }

  // Previous inputs of the successor are the current inputs; clear the
  // current input and action relations (they belong to the new step).
  for (RelationId id = 0; id < catalog.size(); ++id) {
    RelationKind kind = catalog.schema(id).kind;
    if (IsInputKind(kind)) {
      next.previous.relation(id) = config.data.relation(id);
      next.data.relation(id).Clear();
    } else if (kind == RelationKind::kAction) {
      next.data.relation(id).Clear();
    }
  }
  return next;
}

Configuration PreparedSpec::MakeInitial(const Instance& database) const {
  const Catalog& catalog = spec_->catalog();
  Configuration config;
  config.page = spec_->home_page();
  config.data = Instance(&catalog);
  config.previous = Instance(&catalog);
  for (RelationId id = 0; id < catalog.size(); ++id) {
    if (catalog.schema(id).kind == RelationKind::kDatabase) {
      config.data.relation(id) = database.relation(id);
    }
  }
  return config;
}

std::vector<SymbolId> PreparedSpec::EvaluationDomain(
    const Configuration& config, const std::vector<SymbolId>& extra) const {
  std::vector<SymbolId> domain = config.data.ActiveDomain();
  std::vector<SymbolId> prev = config.previous.ActiveDomain();
  domain.insert(domain.end(), prev.begin(), prev.end());
  domain.insert(domain.end(), spec_constants_.begin(), spec_constants_.end());
  domain.insert(domain.end(), extra.begin(), extra.end());
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
  return domain;
}

}  // namespace wave
