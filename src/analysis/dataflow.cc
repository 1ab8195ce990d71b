#include "analysis/dataflow.h"

#include <string>

#include "common/check.h"

namespace wave {

namespace {

/// Union-find over variable names with per-class payloads gathered later.
class VarClasses {
 public:
  int ClassOf(const std::string& var) {
    auto it = index_.find(var);
    if (it == index_.end()) {
      int id = static_cast<int>(parent_.size());
      parent_.push_back(id);
      index_.emplace(var, id);
      return id;
    }
    return Find(it->second);
  }

  void Union(const std::string& a, const std::string& b) {
    int ra = ClassOf(a), rb = ClassOf(b);
    if (ra != rb) parent_[ra] = rb;
  }

  int Find(int i) {
    while (parent_[i] != i) {
      parent_[i] = parent_[parent_[i]];
      i = parent_[i];
    }
    return i;
  }

 private:
  std::map<std::string, int> index_;
  std::vector<int> parent_;
};

struct FormulaFacts {
  VarClasses classes;
  // Raw facts collected during the walk; unions may still reshuffle class
  // roots, so aggregation into per-class maps happens in Finalize().
  std::vector<std::pair<std::string, AttrPos>> var_positions;
  std::vector<std::pair<std::string, SymbolId>> var_constants;
  std::vector<std::pair<AttrPos, SymbolId>> explicit_constants;
  // Populated by Finalize(), keyed by final class roots.
  std::map<int, std::set<AttrPos>> positions;
  std::map<int, std::set<SymbolId>> constants;

  void AddAtom(const Catalog& catalog, const std::string& relation,
               const std::vector<Term>& args) {
    RelationId id = catalog.Find(relation);
    if (id == kInvalidRelation) return;
    for (size_t i = 0; i < args.size(); ++i) {
      AttrPos pos{id, static_cast<int>(i)};
      if (args[i].is_variable()) {
        classes.ClassOf(args[i].variable);
        var_positions.emplace_back(args[i].variable, pos);
      } else {
        explicit_constants.emplace_back(pos, args[i].constant);
      }
    }
  }

  void AddEquality(const Term& a, const Term& b) {
    if (a.is_variable() && b.is_variable()) {
      classes.Union(a.variable, b.variable);
    } else if (a.is_variable()) {
      var_constants.emplace_back(a.variable, b.constant);
    } else if (b.is_variable()) {
      var_constants.emplace_back(b.variable, a.constant);
    }
  }

  void Walk(const Catalog& catalog, const Formula& f) {
    f.VisitLeaves([&](const Formula& leaf) {
      if (leaf.kind() == Formula::Kind::kAtom) {
        AddAtom(catalog, leaf.relation(), leaf.args());
      } else if (leaf.kind() == Formula::Kind::kEquals) {
        AddEquality(leaf.args()[0], leaf.args()[1]);
      }
    });
  }

  void Finalize() {
    for (const auto& [var, pos] : var_positions) {
      positions[classes.ClassOf(var)].insert(pos);
    }
    for (const auto& [var, c] : var_constants) {
      constants[classes.ClassOf(var)].insert(c);
    }
  }
};

}  // namespace

ComparisonAnalysis::ComparisonAnalysis(
    const WebAppSpec& spec, const std::vector<FormulaPtr>& extra_formulas)
    : spec_(&spec) {
  for (int p = 0; p < spec.num_pages(); ++p) {
    const PageSchema& page = spec.page(p);
    for (const InputRule& r : page.input_rules) {
      ProcessFormula(r.body, r.relation, &r.head);
    }
    for (const StateRule& r : page.state_rules) {
      ProcessFormula(r.body, r.relation, &r.head);
    }
    for (const ActionRule& r : page.action_rules) {
      ProcessFormula(r.body, r.relation, &r.head);
    }
    for (const TargetRule& r : page.target_rules) {
      ProcessFormula(r.condition, kInvalidRelation, nullptr);
    }
  }
  for (const FormulaPtr& f : extra_formulas) {
    ProcessFormula(f, kInvalidRelation, nullptr);
  }

  // Backward fixpoint over copy edges: a source position inherits the
  // comparison sets of the (head) position its value is copied into.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [target, sources] : copy_edges_) {
      const std::set<SymbolId>& target_constants = constants_[target];
      const std::set<AttrPos>& target_links = input_links_[target];
      for (const AttrPos& src : sources) {
        std::set<SymbolId>& src_constants = constants_[src];
        for (SymbolId c : target_constants) {
          if (src_constants.insert(c).second) changed = true;
        }
        std::set<AttrPos>& src_links = input_links_[src];
        for (const AttrPos& l : target_links) {
          if (src_links.insert(l).second) changed = true;
        }
      }
    }
  }
}

void ComparisonAnalysis::ProcessFormula(const FormulaPtr& body,
                                        RelationId head_relation,
                                        const std::vector<Term>* head) {
  const Catalog& catalog = spec_->catalog();
  FormulaFacts facts;
  facts.Walk(catalog, *body);
  facts.Finalize();

  // Head terms participate in the body's equality classes: a head constant
  // is an (explicit) comparison for every position of its column's class,
  // and a head variable makes its column a copy target of the class.
  if (head != nullptr && head_relation != kInvalidRelation) {
    for (size_t j = 0; j < head->size(); ++j) {
      AttrPos head_pos{head_relation, static_cast<int>(j)};
      const Term& t = (*head)[j];
      if (t.is_variable()) {
        int cls = facts.classes.ClassOf(t.variable);
        // The head column belongs to the class (it is "compared" to every
        // other position of the class by the copy), and comparisons made
        // against the head column elsewhere flow back to the class.
        for (const AttrPos& src : facts.positions[cls]) {
          copy_edges_[head_pos].insert(src);
        }
        facts.positions[cls].insert(head_pos);
      } else {
        facts.explicit_constants.emplace_back(head_pos, t.constant);
      }
    }
  }

  for (const auto& [pos, c] : facts.explicit_constants) {
    constants_[pos].insert(c);
  }
  for (auto& [cls, positions] : facts.positions) {
    const std::set<SymbolId>& cs = facts.constants[cls];
    // Input positions in the class induce input links for every member.
    std::set<AttrPos> inputs_in_class;
    for (const AttrPos& pos : positions) {
      if (IsInputKind(catalog.schema(pos.relation).kind)) {
        inputs_in_class.insert(pos);
      }
    }
    for (const AttrPos& pos : positions) {
      constants_[pos].insert(cs.begin(), cs.end());
      for (const AttrPos& in : inputs_in_class) {
        input_links_[pos].insert(in);
      }
    }
  }
}

const std::set<SymbolId>& ComparisonAnalysis::constants(AttrPos pos) const {
  auto it = constants_.find(pos);
  return it == constants_.end() ? empty_constants_ : it->second;
}

const std::set<AttrPos>& ComparisonAnalysis::input_links(AttrPos pos) const {
  auto it = input_links_.find(pos);
  return it == input_links_.end() ? empty_links_ : it->second;
}

}  // namespace wave
