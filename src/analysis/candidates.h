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
#ifndef WAVE_ANALYSIS_CANDIDATES_H_
#define WAVE_ANALYSIS_CANDIDATES_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dataflow.h"
#include "relational/relation.h"
#include "spec/web_app.h"

namespace wave {

/// What one formula says about a variable, gathered from its leaves.
struct LocalVar {
  std::set<SymbolId> pinned;  // constants the variable is equated to
  // Input positions the variable occurs at: (position, is_previous).
  std::set<std::pair<AttrPos, bool>> input_positions;
  std::set<AttrPos> all_positions;
};

/// Per-variable facts of one or more formulas: candidate instantiation
/// reads them per formula, the C∃ candidates of a property's free
/// variables over all of its FO components.
struct LocalFacts {
  std::map<std::string, LocalVar> vars;

  /// Adds `f`'s var=const equalities and the positions of its atoms over
  /// declared relations.
  void Walk(const Catalog& catalog, const Formula& f);
};

/// Fresh values minted for one page (the paper's C_V).
struct PageDomain {
  /// Value representing the input at position (relation, column).
  std::map<AttrPos, SymbolId> input_values;
  /// Witness values for option-rule variables that are neither head
  /// variables nor equated to constants, keyed by (rule index, var name).
  std::map<std::pair<int, std::string>, SymbolId> witnesses;
  /// Every value of this domain (sorted).
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
  int max_candidates = 24;
};

/// Lazily mints and caches the fresh-value domain C_V of each page. Owned
/// separately from `CandidateBuilder` so the (spec-dependent, property-
/// independent) domains are shared across C∃ iterations.
class PageDomains {
 public:
  /// Mints fresh symbols into the spec's symbol table; relation schemas
  /// are never modified.
  explicit PageDomains(WebAppSpec* spec) : spec_(spec) {}

  const PageDomain& Get(int page);

  /// A stable fresh witness value for `tag` at `page` (minted on first use).
  SymbolId Witness(int page, const std::string& tag);

 private:
  WebAppSpec* spec_;
  std::map<int, PageDomain> domains_;
  std::map<std::pair<int, std::string>, SymbolId> generic_witnesses_;
};

/// Builds candidate sets for cores and extensions.
class CandidateBuilder {
 public:
  /// `analysis` must be built over the same spec with the *instantiated*
  /// property components, which are also passed as `property_components`.
  /// `constant_universe` is C = CW ∪ C∃.
  CandidateBuilder(WebAppSpec* spec, PageDomains* domains,
                   const ComparisonAnalysis* analysis,
                   const std::vector<FormulaPtr>* property_components,
                   const std::set<SymbolId>& constant_universe,
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
  /// the file comment) to `out`. `formula_tag` namespaces witness values;
  /// option rules pass their head so head variables map to the page value
  /// of their input position.
  void AddFormulaCandidates(const FormulaPtr& body, int page, int prev_page,
                            const std::string& formula_tag,
                            RelationId option_head_relation,
                            const std::vector<Term>* option_head,
                            CandidateSet* out);

  /// Appends the product of `value_sets` as tuples of `relation` to `out`
  /// (respecting the overflow budget), skipping tuples already in `seen_`.
  /// `require_fresh` keeps only tuples with at least one
  /// non-constant-universe value.
  void AppendProduct(RelationId relation,
                     const std::vector<std::vector<SymbolId>>& value_sets,
                     bool require_fresh, CandidateSet* out);

  const PageDomain& page_domain(int page) { return domains_->Get(page); }

  WebAppSpec* spec_;
  PageDomains* domains_;
  const ComparisonAnalysis* analysis_;
  const std::vector<FormulaPtr>* property_components_;
  std::set<SymbolId> constant_universe_;
  CandidateOptions options_;

  std::set<std::pair<RelationId, Tuple>> seen_;  // the set being built

  bool core_built_ = false;
  CandidateSet core_;
  std::map<std::pair<int, int>, CandidateSet> extensions_;
};

}  // namespace wave

#endif  // WAVE_ANALYSIS_CANDIDATES_H_
