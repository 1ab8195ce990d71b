// A `WebAppSpec` with every rule compiled to a `PreparedFormula` — the
// analogue of the paper's prepared SQL statements (Section 4): resolve and
// "optimize" each rule once, re-execute it with fresh parameters at every
// step of the search. A `PreparedSpec` is immutable once built, so every
// search worker can read one instance.
#ifndef WAVE_SPEC_PREPARED_SPEC_H_
#define WAVE_SPEC_PREPARED_SPEC_H_

#include <string>
#include <vector>

#include "fo/prepared.h"
#include "spec/runtime.h"
#include "spec/web_app.h"

namespace wave {

/// A compiled head ← body rule.
struct PreparedRule {
  RelationId relation = kInvalidRelation;
  std::vector<Term> head;
  std::vector<std::string> head_vars;  // free-variable order of `prepared`
  /// Per head position: its variable's index in `head_vars`, or -1 for a
  /// constant.
  std::vector<int> head_slots;
  PreparedFormula prepared;
};

/// Head tuples derived by a page's rules over a view, grouped per rule in
/// rule order. A group's tuples are distinct and in lexicographic order.
/// Reused from call to call, a warm buffer allocates nothing.
class DerivedTuples {
 public:
  int num_groups() const { return static_cast<int>(groups_.size()); }
  /// The relation group `g`'s rule derives.
  RelationId relation(int g) const { return groups_[g].relation; }
  /// Number of tuples in group `g`.
  size_t size(int g) const { return groups_[g].count; }
  /// Tuple `i` of group `g`: its relation's arity of values.
  const SymbolId* tuple(int g, size_t i) const {
    return values_.data() + groups_[g].begin + i * groups_[g].arity;
  }
  /// Group `g`'s tuples as `Tuple`s.
  std::vector<Tuple> Tuples(int g) const;

 private:
  friend class PreparedSpec;

  struct Group {
    RelationId relation = kInvalidRelation;
    size_t arity = 0;
    size_t begin = 0;  // offset in `values_`
    size_t count = 0;
  };

  void Clear() {
    groups_.clear();
    values_.clear();
  }
  /// Appends the group `rule` derives over `view`.
  void Derive(const PreparedRule& rule, const ConfigurationView& view,
              const std::vector<SymbolId>& domain);

  std::vector<Group> groups_;
  std::vector<SymbolId> values_;       // every group's tuples, back to back
  std::vector<SymbolId> assignments_;  // one rule's head-variable values
  EvalScratch scratch_;
};

struct PreparedTarget {
  int target_page = -1;
  PreparedFormula condition;
};

/// One page with compiled rules.
struct PreparedPage {
  std::vector<RelationId> inputs;
  std::vector<PreparedRule> input_rules;       // one per input relation
  std::vector<PreparedRule> state_inserts;
  std::vector<PreparedRule> state_deletes;
  std::vector<PreparedRule> action_rules;
  std::vector<PreparedTarget> targets;
};

/// Compiled spec + the step semantics used by runs and pseudoruns.
class PreparedSpec {
 public:
  /// `spec` must outlive this object and must already validate cleanly.
  explicit PreparedSpec(const WebAppSpec* spec);

  PreparedSpec(PreparedSpec&&) = default;

  const WebAppSpec& spec() const { return *spec_; }
  const PreparedPage& page(int index) const { return pages_[index]; }

  // --- over a view (the search's bitset pseudoconfigurations) -----------
  /// The options the current page of `view` generates, evaluated over its
  /// database, state and previous inputs: one group per input rule.
  void ComputeOptions(const ConfigurationView& view,
                      const std::vector<SymbolId>& domain,
                      DerivedTuples* options) const;

  /// The actions the current page of `view` derives, once its input choice
  /// is in place and its action relations are empty: one group per action
  /// rule.
  void DeriveActions(const ConfigurationView& view,
                     const std::vector<SymbolId>& domain,
                     DerivedTuples* actions) const;

  /// The successor's page (per target rules; stays on the same page unless
  /// exactly one condition holds), with the state tuples the current
  /// page's rules insert and delete, one group per rule. An insert that is
  /// also deleted is a no-op both ways.
  int Advance(const ConfigurationView& view,
              const std::vector<SymbolId>& domain, DerivedTuples* inserts,
              DerivedTuples* deletes) const;

  // --- over a `Configuration` (runs, validation, the baseline) -----------
  /// Options the page of `config` generates, evaluated over the database,
  /// state and previous inputs of `config`.
  InputOptions ComputeOptions(const Configuration& config,
                              const std::vector<SymbolId>& domain) const;

  /// Writes the input choice and the induced actions into `config` (whose
  /// page, state and previous inputs are already in place).
  void ApplyInput(const InputChoice& choice,
                  const std::vector<SymbolId>& domain,
                  Configuration* config) const;

  /// Computes the successor skeleton of `config`: next page, updated
  /// state, previous inputs = current inputs. Input and action relations
  /// of the result are empty — fill them with `ApplyInput` after choosing
  /// inputs from `ComputeOptions`.
  Configuration Advance(const Configuration& config,
                        const std::vector<SymbolId>& domain) const;

  /// Fresh initial configuration: home page, given database contents (only
  /// database relations of `database` are consulted), empty state/inputs.
  Configuration MakeInitial(const Instance& database) const;

  /// The evaluation domain: spec constants ∪ active domain of `config` ∪
  /// `extra` values.
  std::vector<SymbolId> EvaluationDomain(
      const Configuration& config,
      const std::vector<SymbolId>& extra = {}) const;

 private:
  const WebAppSpec* spec_;
  std::vector<PreparedPage> pages_;
  std::vector<SymbolId> spec_constants_;
};

}  // namespace wave

#endif  // WAVE_SPEC_PREPARED_SPEC_H_
