#include "analysis/dataflow.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "common/check.h"

namespace wave {

namespace {

template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

/// Adds `value` to the sorted vector `v`; true when it was new.
template <typename T>
bool InsertSorted(std::vector<T>* v, const T& value) {
  auto it = std::lower_bound(v->begin(), v->end(), value);
  if (it != v->end() && *it == value) return false;
  v->insert(it, value);
  return true;
}

/// Adds the sorted `from` to the sorted `to`; true when `to` grew.
template <typename T>
bool MergeSorted(std::vector<T>* to, const std::vector<T>& from) {
  if (std::includes(to->begin(), to->end(), from.begin(), from.end())) {
    return false;
  }
  std::vector<T> merged;
  merged.reserve(to->size() + from.size());
  std::set_union(to->begin(), to->end(), from.begin(), from.end(),
                 std::back_inserter(merged));
  to->swap(merged);
  return true;
}

/// What one formula contributes to the analysis: comparisons at positions
/// and, for a rule, copy edges from its head positions.
struct Seeds {
  std::vector<std::pair<int, SymbolId>> constants;  // (position, constant)
  std::vector<std::pair<int, int>> edges;           // (head, source)
};

/// Collects `f`'s seeds: equality classes over its variables, explicit
/// constants, and (given a head) copy edges from the head's positions to
/// the body positions of each head variable's class.
void CollectSeeds(const SpecFacts& facts, const FormulaFacts& f,
                  RelationId head_relation, const std::vector<TermFact>* head,
                  Seeds* out) {
  std::vector<int> parent(f.vars.size());
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  for (const auto& [a, b] : f.equalities) {
    if (a.is_variable() && b.is_variable()) parent[find(a.var)] = find(b.var);
  }

  // Positions per class root; constants at positions go in directly.
  std::vector<std::vector<int>> positions(f.vars.size());
  for (const AtomFact& atom : f.atoms) {
    if (atom.relation == kInvalidRelation) continue;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const int pos = facts.Position({atom.relation, static_cast<int>(i)});
      const TermFact& t = atom.args[i];
      if (t.is_variable()) {
        positions[find(t.var)].push_back(pos);
      } else {
        out->constants.emplace_back(pos, t.constant);
      }
    }
  }
  // A head column joins its variable's class (the copy "compares" it to
  // every position of the class), and comparisons made against the head
  // column elsewhere flow back to the class.
  if (head != nullptr && head_relation != kInvalidRelation) {
    for (size_t j = 0; j < head->size(); ++j) {
      const int pos = facts.Position({head_relation, static_cast<int>(j)});
      const TermFact& t = (*head)[j];
      if (t.is_variable()) {
        std::vector<int>& cls = positions[find(t.var)];
        for (int src : cls) out->edges.emplace_back(pos, src);
        cls.push_back(pos);
      } else {
        out->constants.emplace_back(pos, t.constant);
      }
    }
  }

  // Every position of a class is compared to the class's constants.
  std::vector<std::vector<SymbolId>> class_constants(f.vars.size());
  for (size_t v = 0; v < f.vars.size(); ++v) {
    const std::vector<SymbolId>& pinned = f.vars[v].pinned;
    std::vector<SymbolId>& cs = class_constants[find(static_cast<int>(v))];
    cs.insert(cs.end(), pinned.begin(), pinned.end());
  }
  for (size_t root = 0; root < f.vars.size(); ++root) {
    std::vector<int>& cls = positions[root];
    if (cls.empty()) continue;
    SortUnique(&cls);
    for (int pos : cls) {
      for (SymbolId c : class_constants[root]) {
        out->constants.emplace_back(pos, c);
      }
    }
  }
}

}  // namespace

int FormulaFacts::Slot(const std::string& var) const {
  for (size_t i = 0; i < vars.size(); ++i) {
    if (vars[i].name == var) return static_cast<int>(i);
  }
  return -1;
}

SpecFacts::SpecFacts(const WebAppSpec& spec) : spec_(&spec) {
  const Catalog& catalog = spec.catalog();
  offsets_.push_back(0);
  for (RelationId id = 0; id < catalog.size(); ++id) {
    offsets_.push_back(offsets_.back() + catalog.schema(id).arity);
  }
  input_slots_.assign(num_positions(), -1);
  for (RelationId id = 0; id < catalog.size(); ++id) {
    if (!IsInputKind(catalog.schema(id).kind)) continue;
    for (int c = 0; c < catalog.schema(id).arity; ++c) {
      input_slots_[offsets_[id] + c] = num_input_slots_++;
    }
  }

  // Each rule's leaves, once.
  rules_.resize(spec.num_pages());
  reads_.assign(catalog.size(), false);
  prev_reads_.resize(spec.num_pages());
  for (int p = 0; p < spec.num_pages(); ++p) {
    const PageSchema& page = spec.page(p);
    std::vector<RuleFacts>& rules = rules_[p];
    auto add = [&](char kind, size_t index, RelationId head_relation,
                   const std::vector<Term>* head, const Formula& body) {
      RuleFacts rule;
      rule.kind = kind;
      rule.index = static_cast<int>(index);
      rule.head_relation = head_relation;
      rule.body = Gather(body);
      FormulaFacts& facts = rule.body;
      for (size_t j = 0; head != nullptr && j < head->size(); ++j) {
        const Term& t = (*head)[j];
        TermFact term;
        if (t.is_variable()) {
          term.var = facts.Slot(t.variable);
          if (term.var < 0) {
            term.var = static_cast<int>(facts.vars.size());
            facts.vars.push_back(LocalVar{t.variable, {}, {}, {}});
          }
          if (kind == 'i') {
            // An option tuple's values: current-step input positions.
            const int pos = Position({head_relation, static_cast<int>(j)});
            LocalVar& var = facts.vars[term.var];
            InsertSorted(&var.positions, pos);
            if (input_slots_[pos] >= 0) {
              InsertSorted(&var.inputs,
                           std::make_pair(input_slots_[pos], false));
            }
          }
        } else {
          term.constant = t.constant;
          constants_.push_back(t.constant);
        }
        rule.head.push_back(term);
      }
      constants_.insert(constants_.end(), facts.constants.begin(),
                        facts.constants.end());
      for (const AtomFact& atom : facts.atoms) {
        if (atom.relation == kInvalidRelation) continue;
        reads_[atom.relation] = true;
        if (atom.previous) prev_reads_[p].push_back(atom.relation);
      }
      rule.witness_base = num_witnesses_;
      num_witnesses_ += static_cast<int>(facts.vars.size());
      rules.push_back(std::move(rule));
    };
    for (size_t r = 0; r < page.input_rules.size(); ++r) {
      const InputRule& rule = page.input_rules[r];
      add('i', r, rule.relation, &rule.head, *rule.body);
    }
    for (size_t r = 0; r < page.state_rules.size(); ++r) {
      const StateRule& rule = page.state_rules[r];
      add('s', r, rule.relation, &rule.head, *rule.body);
    }
    for (size_t r = 0; r < page.action_rules.size(); ++r) {
      const ActionRule& rule = page.action_rules[r];
      add('a', r, rule.relation, &rule.head, *rule.body);
    }
    for (size_t r = 0; r < page.target_rules.size(); ++r) {
      add('t', r, kInvalidRelation, nullptr, *page.target_rules[r].condition);
    }
    SortUnique(&prev_reads_[p]);
  }
  SortUnique(&constants_);

  // The rules' seeds and copy edges, then their closure.
  Seeds seeds;
  for (const std::vector<RuleFacts>& rules : rules_) {
    for (const RuleFacts& rule : rules) {
      CollectSeeds(*this, rule.body, rule.head_relation, &rule.head, &seeds);
    }
  }
  closure_.resize(num_positions());
  for (const auto& [pos, c] : seeds.constants) closure_[pos].push_back(c);
  sources_.resize(num_positions());
  for (const auto& [head, src] : seeds.edges) {
    if (src != head) sources_[head].push_back(src);
  }
  std::vector<int> work;
  std::vector<bool> queued(num_positions(), false);
  for (int pos = 0; pos < num_positions(); ++pos) {
    SortUnique(&closure_[pos]);
    SortUnique(&sources_[pos]);
    if (!closure_[pos].empty()) {
      work.push_back(pos);
      queued[pos] = true;
    }
  }
  // Backward propagation: a source inherits the sets of every position its
  // value is copied into.
  while (!work.empty()) {
    const int target = work.back();
    work.pop_back();
    queued[target] = false;
    for (int src : sources_[target]) {
      if (MergeSorted(&closure_[src], closure_[target]) && !queued[src]) {
        work.push_back(src);
        queued[src] = true;
      }
    }
  }
}

FormulaFacts SpecFacts::Gather(const Formula& f) const {
  const Catalog& catalog = spec_->catalog();
  FormulaFacts out;
  auto resolve = [&](const Term& t) {
    TermFact term;
    if (!t.is_variable()) {
      term.constant = t.constant;
      out.constants.push_back(t.constant);
      return term;
    }
    term.var = out.Slot(t.variable);
    if (term.var < 0) {
      term.var = static_cast<int>(out.vars.size());
      out.vars.push_back(LocalVar{t.variable, {}, {}, {}});
    }
    return term;
  };
  f.VisitLeaves([&](const Formula& leaf) {
    const std::vector<Term>& args = leaf.args();
    if (leaf.kind() == Formula::Kind::kEquals) {
      const TermFact a = resolve(args[0]);
      const TermFact b = resolve(args[1]);
      if (a.is_variable() && !b.is_variable()) {
        out.vars[a.var].pinned.push_back(b.constant);
      } else if (b.is_variable() && !a.is_variable()) {
        out.vars[b.var].pinned.push_back(a.constant);
      }
      out.equalities.emplace_back(a, b);
      return;
    }
    if (leaf.kind() != Formula::Kind::kAtom) return;
    AtomFact atom;
    atom.relation = catalog.Find(leaf.relation());
    atom.previous = leaf.previous();
    const bool is_input = atom.relation != kInvalidRelation &&
                          IsInputKind(catalog.schema(atom.relation).kind);
    for (size_t i = 0; i < args.size(); ++i) {
      const TermFact t = resolve(args[i]);
      atom.args.push_back(t);
      if (!t.is_variable() || atom.relation == kInvalidRelation) continue;
      const int pos = Position({atom.relation, static_cast<int>(i)});
      LocalVar& var = out.vars[t.var];
      var.positions.push_back(pos);
      if (is_input) var.inputs.emplace_back(input_slots_[pos], atom.previous);
    }
    out.atoms.push_back(std::move(atom));
  });
  for (LocalVar& var : out.vars) {
    SortUnique(&var.pinned);
    SortUnique(&var.positions);
    SortUnique(&var.inputs);
  }
  SortUnique(&out.constants);
  return out;
}

ComparisonAnalysis::ComparisonAnalysis(
    const SpecFacts& facts, const std::vector<FormulaFacts>& property_formulas)
    : facts_(&facts) {
  Seeds seeds;
  for (const FormulaFacts& f : property_formulas) {
    CollectSeeds(facts, f, kInvalidRelation, nullptr, &seeds);
  }
  if (seeds.constants.empty()) return;

  own_.assign(facts.num_positions(), -1);
  auto own = [&](int pos) {
    if (own_[pos] < 0) {
      own_[pos] = static_cast<int>(sets_.size());
      sets_.push_back(facts.closure(pos));
    }
    return own_[pos];
  };
  std::vector<int> work;
  std::vector<bool> queued(facts.num_positions(), false);
  auto changed = [&](int pos) {
    if (!queued[pos]) {
      work.push_back(pos);
      queued[pos] = true;
    }
  };
  for (const auto& [pos, c] : seeds.constants) {
    if (InsertSorted(&sets_[own(pos)], c)) changed(pos);
  }
  // The spec's closure already holds everything the rules' own seeds
  // imply; push only what the property adds.
  while (!work.empty()) {
    const int target = work.back();
    work.pop_back();
    queued[target] = false;
    for (int src : facts.sources(target)) {
      const int to = own(src);
      if (MergeSorted(&sets_[to], sets_[own_[target]])) changed(src);
    }
  }
}

}  // namespace wave
