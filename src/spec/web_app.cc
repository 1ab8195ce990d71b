#include "spec/web_app.h"

#include <algorithm>

#include "common/check.h"
#include "fo/input_bounded.h"

namespace wave {

namespace {

/// True if `f` reads a current-step (non-`prev`) input relation or input
/// constant.
bool HasCurrentInputAtom(const Formula& f, const Catalog& catalog) {
  bool found = false;
  f.VisitLeaves([&](const Formula& leaf) {
    if (leaf.kind() != Formula::Kind::kAtom || leaf.previous()) return;
    RelationId id = catalog.Find(leaf.relation());
    found |= id != kInvalidRelation && IsInputKind(catalog.schema(id).kind);
  });
  return found;
}

}  // namespace

std::vector<std::string> HeadVariables(const std::vector<Term>& head) {
  std::vector<std::string> vars;
  for (const Term& t : head) {
    if (t.is_variable() &&
        std::find(vars.begin(), vars.end(), t.variable) == vars.end()) {
      vars.push_back(t.variable);
    }
  }
  return vars;
}

int WebAppSpec::AddPage(PageSchema page) {
  WAVE_CHECK_MSG(page_index_.find(page.name) == page_index_.end(),
                 "page '" << page.name << "' declared twice");
  int index = static_cast<int>(pages_.size());
  page_index_.emplace(page.name, index);
  pages_.push_back(std::move(page));
  return index;
}

int WebAppSpec::PageIndex(std::string_view name) const {
  auto it = page_index_.find(name);
  return it == page_index_.end() ? -1 : it->second;
}

std::set<SymbolId> WebAppSpec::SpecConstants() const {
  std::set<SymbolId> out;
  auto add_formula = [&out](const FormulaPtr& f) {
    std::set<SymbolId> cs = f->Constants();
    out.insert(cs.begin(), cs.end());
  };
  auto add_head = [&out](const std::vector<Term>& head) {
    for (const Term& t : head) {
      if (!t.is_variable()) out.insert(t.constant);
    }
  };
  for (const PageSchema& page : pages_) {
    for (const InputRule& r : page.input_rules) {
      add_head(r.head);
      add_formula(r.body);
    }
    for (const StateRule& r : page.state_rules) {
      add_head(r.head);
      add_formula(r.body);
    }
    for (const ActionRule& r : page.action_rules) {
      add_head(r.head);
      add_formula(r.body);
    }
    for (const TargetRule& r : page.target_rules) add_formula(r.condition);
  }
  return out;
}

std::vector<std::string> WebAppSpec::Validate() const {
  std::vector<std::string> issues;
  // `where` names the rule or page at fault. It is built only for an issue
  // that is reported, so a clean spec builds no strings.
  using Where = FunctionRef<std::string()>;
  auto report = [&issues](Where where, const std::string& what) {
    issues.push_back(where() + ": " + what);
  };

  if (pages_.empty()) {
    issues.push_back("spec has no pages");
    return issues;
  }
  if (home_page_ < 0 || home_page_ >= num_pages()) {
    issues.push_back("home page index out of range");
  }

  // Atom checks shared by rule bodies and target conditions, which may
  // not read action relations (actions are write-only).
  auto check_reads = [&](Where where, const Formula& f) {
    CheckAtoms(f, where, &issues);
    f.VisitLeaves([&](const Formula& leaf) {
      if (leaf.kind() != Formula::Kind::kAtom) return;
      RelationId id = catalog_.Find(leaf.relation());
      if (id != kInvalidRelation &&
          catalog_.schema(id).kind == RelationKind::kAction) {
        report(where, "reads action relation '" + leaf.relation() +
                          "' (actions are write-only)");
      }
    });
  };

  // Shared checks for a rule head + body. The variable lists are reused
  // from rule to rule.
  std::vector<std::string_view> head_vars, body_vars;
  auto check_rule = [&](Where where, RelationId relation,
                        RelationKind expected_kind,
                        const std::vector<Term>& head, const FormulaPtr& body) {
    if (relation == kInvalidRelation) {
      report(where, "head relation is undeclared");
      return;
    }
    const RelationSchema& schema = catalog_.schema(relation);
    if (schema.kind != expected_kind &&
        !(expected_kind == RelationKind::kInput &&
          schema.kind == RelationKind::kInputConstant)) {
      report(where, "head relation " + schema.name + " has kind " +
                        RelationKindName(schema.kind) + ", expected " +
                        RelationKindName(expected_kind));
    }
    if (static_cast<int>(head.size()) != schema.arity) {
      report(where, "head arity " + std::to_string(head.size()) +
                        " does not match " + schema.name + "/" +
                        std::to_string(schema.arity));
    }
    // Safety: head variables == free variables of the body.
    head_vars.clear();
    for (const Term& t : head) {
      if (t.is_variable() && std::find(head_vars.begin(), head_vars.end(),
                                       t.variable) == head_vars.end()) {
        head_vars.push_back(t.variable);
      }
    }
    body_vars.clear();
    body->AppendFreeVariables(&body_vars);
    for (std::string_view v : body_vars) {
      if (std::find(head_vars.begin(), head_vars.end(), v) ==
          head_vars.end()) {
        report(where, "body free variable '" + std::string(v) +
                          "' not in rule head");
      }
    }
    for (std::string_view v : head_vars) {
      if (std::find(body_vars.begin(), body_vars.end(), v) ==
          body_vars.end()) {
        report(where, "head variable '" + std::string(v) +
                          "' is unconstrained by the rule body");
      }
    }
    check_reads(where, *body);
  };

  for (const PageSchema& page : pages_) {
    auto prefix = [&page] { return "page " + page.name; };
    // "page P, <kind> rule R" (R is "?" when undeclared).
    auto rule_where = [&](const char* kind, RelationId relation) {
      return prefix() + ", " + kind + " rule " +
             (relation == kInvalidRelation ? "?"
                                           : catalog_.schema(relation).name);
    };
    // Input declarations.
    for (RelationId id : page.inputs) {
      if (!IsInputKind(catalog_.schema(id).kind)) {
        report(prefix, "declared input " + catalog_.schema(id).name +
                           " is not an input relation");
      }
    }
    // Every input relation (not constant) needs exactly one options rule.
    auto has_rule = [&page](RelationId id, size_t before) {
      return std::any_of(
          page.input_rules.begin(), page.input_rules.begin() + before,
          [id](const InputRule& r) { return r.relation == id; });
    };
    for (size_t i = 0; i < page.input_rules.size(); ++i) {
      const InputRule& r = page.input_rules[i];
      check_rule([&] { return rule_where("input", r.relation); }, r.relation,
                 RelationKind::kInput, r.head, r.body);
      if (r.relation != kInvalidRelation) {
        if (has_rule(r.relation, i)) {
          report(prefix, "multiple options rules for input " +
                             catalog_.schema(r.relation).name);
        }
        if (std::find(page.inputs.begin(), page.inputs.end(), r.relation) ==
            page.inputs.end()) {
          report(prefix, "options rule for undeclared input " +
                             catalog_.schema(r.relation).name);
        }
        if (catalog_.schema(r.relation).kind ==
            RelationKind::kInputConstant) {
          report(prefix, "input constant " +
                             catalog_.schema(r.relation).name +
                             " cannot have an options rule");
        }
      }
    }
    for (RelationId id : page.inputs) {
      if (catalog_.schema(id).kind == RelationKind::kInput &&
          !has_rule(id, page.input_rules.size())) {
        report(prefix, "input " + catalog_.schema(id).name +
                           " lacks an options rule");
      }
    }
    // Input rules may not read the *current* step's input (the model: they
    // see database, state and previous input only).
    for (const InputRule& r : page.input_rules) {
      if (r.relation != kInvalidRelation &&
          HasCurrentInputAtom(*r.body, catalog_)) {
        report(prefix, "input rule " + catalog_.schema(r.relation).name +
                           " reads a current-step input (only `prev` input "
                           "atoms are allowed in option rules)");
      }
    }
    for (const StateRule& r : page.state_rules) {
      check_rule([&] { return rule_where("state", r.relation); }, r.relation,
                 RelationKind::kState, r.head, r.body);
    }
    for (const ActionRule& r : page.action_rules) {
      check_rule([&] { return rule_where("action", r.relation); }, r.relation,
                 RelationKind::kAction, r.head, r.body);
    }
    for (const TargetRule& r : page.target_rules) {
      if (r.target_page < 0 || r.target_page >= num_pages()) {
        report(prefix, "target rule points to an unknown page");
        continue;
      }
      auto target_where = [&] {
        return prefix() + ", target condition for " +
               pages_[r.target_page].name;
      };
      body_vars.clear();
      r.condition->AppendFreeVariables(&body_vars);
      if (!body_vars.empty()) {
        report(prefix, "target condition for " +
                           pages_[r.target_page].name +
                           " has free variables (must be a sentence)");
      }
      check_reads(target_where, *r.condition);
    }
  }
  return issues;
}

void WebAppSpec::CheckAtoms(const Formula& f,
                            FunctionRef<std::string()> where,
                            std::vector<std::string>* issues) const {
  f.VisitLeaves([&](const Formula& leaf) {
    if (leaf.kind() == Formula::Kind::kPage) {
      if (PageIndex(leaf.page()) < 0) {
        issues->push_back(where() + ": page atom 'at " + leaf.page() +
                          "' references unknown page '" + leaf.page() + "'");
      }
      return;
    }
    if (leaf.kind() != Formula::Kind::kAtom) return;
    RelationId id = catalog_.Find(leaf.relation());
    if (id == kInvalidRelation) {
      issues->push_back(where() + ": undeclared relation '" +
                        leaf.relation() + "'");
    } else if (static_cast<int>(leaf.args().size()) !=
               catalog_.schema(id).arity) {
      issues->push_back(where() + ": atom " + leaf.relation() + "/" +
                        std::to_string(leaf.args().size()) +
                        " does not match declared arity " +
                        std::to_string(catalog_.schema(id).arity));
    }
  });
}

Status WebAppSpec::ValidateStatus() const {
  std::vector<std::string> issues = Validate();
  if (issues.empty()) return Status::Ok();
  std::string joined;
  for (const std::string& issue : issues) {
    if (!joined.empty()) joined += "; ";
    joined += issue;
  }
  return Status::FailedPrecondition("spec does not validate: " + joined,
                                    WAVE_LOC);
}

std::vector<std::string> WebAppSpec::CheckInputBoundedness() const {
  std::vector<std::string> issues;
  for (const PageSchema& page : pages_) {
    const std::string prefix = "page " + page.name;
    for (const InputRule& r : page.input_rules) {
      auto found = CheckInputBounded(
          r.body, catalog_, FormulaRole::kInputOptionRule,
          prefix + ", input rule " + catalog_.schema(r.relation).name);
      issues.insert(issues.end(), found.begin(), found.end());
    }
    for (const StateRule& r : page.state_rules) {
      auto found = CheckInputBounded(
          r.body, catalog_, FormulaRole::kRule,
          prefix + ", state rule " + catalog_.schema(r.relation).name);
      issues.insert(issues.end(), found.begin(), found.end());
    }
    for (const ActionRule& r : page.action_rules) {
      auto found = CheckInputBounded(
          r.body, catalog_, FormulaRole::kRule,
          prefix + ", action rule " + catalog_.schema(r.relation).name);
      issues.insert(issues.end(), found.begin(), found.end());
    }
    for (const TargetRule& r : page.target_rules) {
      auto found = CheckInputBounded(
          r.condition, catalog_, FormulaRole::kRule,
          prefix + ", target rule -> " + pages_[r.target_page].name);
      issues.insert(issues.end(), found.begin(), found.end());
    }
  }
  return issues;
}

std::string WebAppSpec::StatsString() const {
  int num_db = 0, num_state = 0, num_input = 0, num_action = 0,
      num_const_inputs = 0;
  int max_db_arity = 0;
  for (RelationId id = 0; id < catalog_.size(); ++id) {
    const RelationSchema& s = catalog_.schema(id);
    switch (s.kind) {
      case RelationKind::kDatabase:
        ++num_db;
        max_db_arity = std::max(max_db_arity, s.arity);
        break;
      case RelationKind::kState:
        ++num_state;
        break;
      case RelationKind::kInput:
        ++num_input;
        break;
      case RelationKind::kInputConstant:
        ++num_const_inputs;
        break;
      case RelationKind::kAction:
        ++num_action;
        break;
    }
  }
  return std::to_string(num_pages()) + " pages, " + std::to_string(num_db) +
         " database relations (max arity " + std::to_string(max_db_arity) +
         "), " + std::to_string(num_state) + " state relations, " +
         std::to_string(num_input) + " input relations, " +
         std::to_string(num_const_inputs) + " input constants, " +
         std::to_string(num_action) + " action relations, " +
         std::to_string(SpecConstants().size()) + " constants";
}

}  // namespace wave
