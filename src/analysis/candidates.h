// Candidate-tuple construction for database cores and extensions
// (Heuristics 1 and 2, paper Section 3.2), plus the per-page fresh-value
// domains C_V of Section 3.1.
//
// Core candidates: ground tuples over C = CW ∪ C∃ whose every attribute
// holds a constant the dataflow analysis says that attribute may be
// compared to. `cores(C)` is then the powerset of the candidate list,
// enumerated with a bitmap counter.
//
// Extension candidates at a transition into page V_t from page V_s: tuples
// over C ∪ C_{V_t} ∪ C_{V_s} with at least one page-domain value. They are
// constructed *per database-atom occurrence* in the formulas evaluated
// against that window — V_t's option/state/action/target rules and the
// property's FO components. Each atom contributes:
//   * a "fresh" instantiation: every variable takes the page value of an
//     input position it is compared to in this formula (current inputs map
//     to C_{V_t}, previous inputs to C_{V_s}; option-rule head variables to
//     the value of their own input position), or a fresh per-variable
//     witness, or the constant it is locally equated to;
//   * "constant" instantiations: the product over each variable's
//     dataflow-allowed constants (falling back to the fresh value where
//     none exist).
// Tuples entirely over C are excluded (they belong to the core, whose
// content must stay globally consistent). This realizes Heuristic 2 plus
// the witness tuples option rules need to generate fresh input choices;
// mixed fresh/constant instantiations beyond the two modes are not
// enumerated (see DESIGN.md).
//
// The rules' atoms come resolved from `SpecFacts` (dataflow.h), so building
// a set walks no formula and looks up no name.
#ifndef WAVE_ANALYSIS_CANDIDATES_H_
#define WAVE_ANALYSIS_CANDIDATES_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dataflow.h"
#include "relational/relation.h"
#include "spec/web_app.h"

namespace wave {

/// Default candidate-tuple budget per core/extension set.
inline constexpr int kDefaultMaxCandidates = 20;
/// Largest budget: a core is addressed as a bitmap of its candidates in an
/// int64, so more than 62 could never be enumerated.
inline constexpr int kMaxCandidatesLimit = 62;

/// Fresh values minted for one page (the paper's C_V).
struct PageDomain {
  /// The page's value of each of its input positions, indexed by
  /// `SpecFacts::InputSlot`; kInvalidSymbol at other pages' inputs.
  std::vector<SymbolId> input_values;
  /// Every value of this domain (sorted): the input values and the
  /// witnesses of option-rule variables that are neither head variables
  /// nor equated to constants.
  std::vector<SymbolId> all_values;
};

/// A set of candidate tuples for a powerset enumeration.
struct CandidateSet {
  /// Materialized candidates ((relation, tuple) pairs, fixed order — bit i
  /// of an enumeration bitmap corresponds to tuples[i]).
  std::vector<std::pair<RelationId, Tuple>> tuples;
  /// True if the set was too large to materialize under the budget; then
  /// only `approx_tuple_count` is meaningful.
  bool overflow = false;
  /// Number of candidate tuples (exact when materialized; the full product
  /// count when overflowed). The number of cores/extensions to enumerate is
  /// 2^approx_tuple_count — Example 3.4's 2^17,270,412,688 shows up here.
  double approx_tuple_count = 0.0;
};

/// Options controlling candidate construction.
struct CandidateOptions {
  bool heuristic1 = true;  // core pruning
  bool heuristic2 = true;  // extension pruning
  /// Candidate tuples beyond this are reported as overflow (the powerset
  /// would be unenumerable anyway).
  int max_candidates = kDefaultMaxCandidates;
};

/// The fresh values of one spec: each page's domain C_V, and the witness
/// values extension candidates mint lazily. A session shares them across
/// properties and C∃ assignments; symbols are minted in first-use order.
class PageDomains {
 public:
  /// Mints into `spec`'s symbol table; relation schemas are never
  /// modified. `facts` (over the same spec) must outlive this.
  PageDomains(WebAppSpec* spec, const SpecFacts* facts);

  /// C_V of `page`, minted on first use.
  const PageDomain& Get(int page);

  /// The witness of variable slot `var` of `rule`, one of `page`'s rules.
  SymbolId RuleWitness(int page, const RuleFacts& rule, int var);

  /// Id of variable `var` of a property's FO component `component`:
  /// properties with the same component index and variable name share
  /// witnesses.
  int PropertyVar(int component, const std::string& var);
  /// The witness of property variable `id` (see `PropertyVar`) at `page`.
  SymbolId PropertyWitness(int page, int id);

 private:
  SymbolId Mint(int page, const std::string& tag);

  WebAppSpec* spec_;
  const SpecFacts* facts_;
  std::vector<PageDomain> domains_;
  std::vector<bool> built_;
  std::vector<SymbolId> rule_witnesses_;  // SpecFacts' witness table
  std::map<std::string, int> property_vars_;  // "p<component>.<var>" -> id
  std::vector<std::string> property_tags_;    // by id
  std::vector<std::vector<SymbolId>> property_witnesses_;  // [page][id]
};

/// Builds candidate sets for cores and extensions.
class CandidateBuilder {
 public:
  /// `analysis` must be built from `facts` with the property's
  /// *instantiated* components, which are also passed, gathered, as
  /// `property_components` (null for none). `constant_universe` is
  /// C = CW ∪ C∃, sorted. Every pointee must outlive the builder.
  CandidateBuilder(const SpecFacts* facts, PageDomains* domains,
                   const ComparisonAnalysis* analysis,
                   const std::vector<FormulaFacts>* property_components,
                   const std::vector<SymbolId>& constant_universe,
                   const CandidateOptions& options);

  /// Candidate tuples for database cores.
  const CandidateSet& CoreCandidates();

  /// Candidate tuples for extensions on a transition into `page` from
  /// `prev_page` (-1 for the initial configuration, where there is no
  /// previous page). Memoized per (page, prev_page).
  const CandidateSet& ExtensionCandidates(int page, int prev_page);

 private:
  void BuildCore();
  CandidateSet BuildExtension(int page, int prev_page);

  /// Adds the per-atom instantiations of one formula's database atoms (see
  /// the file comment) to `out`; `witness(k)` is the witness value of its
  /// variable slot k at `page`.
  template <typename Witness>
  void AddFormulaCandidates(const FormulaFacts& f, int page, int prev_page,
                            const Witness& witness, CandidateSet* out);

  /// Appends the product of `value_sets` as tuples of `relation` to `out`
  /// (respecting the overflow budget), skipping tuples already in `out`.
  /// `require_fresh` keeps only tuples with at least one
  /// non-constant-universe value.
  void AppendProduct(RelationId relation,
                     const std::vector<std::vector<SymbolId>>& value_sets,
                     bool require_fresh, CandidateSet* out);

  bool InUniverse(SymbolId value) const {
    return static_cast<size_t>(value) < in_universe_.size() &&
           in_universe_[value];
  }

  const SpecFacts* facts_;
  PageDomains* domains_;
  const ComparisonAnalysis* analysis_;
  const std::vector<FormulaFacts>* property_components_;
  std::vector<SymbolId> universe_;
  std::vector<bool> in_universe_;
  CandidateOptions options_;
  /// `PageDomains::PropertyVar` of each property component's variables.
  std::vector<std::vector<int>> property_vars_;

  bool core_built_ = false;
  CandidateSet core_;
  std::map<std::pair<int, int>, CandidateSet> extensions_;
};

}  // namespace wave

#endif  // WAVE_ANALYSIS_CANDIDATES_H_
