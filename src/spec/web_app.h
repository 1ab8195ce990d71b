// Web application specifications — the paper's model (Section 2.1).
//
// A spec is a set of page schemas over a shared relational catalog. Each
// page schema declares which inputs it requests and carries four families
// of FO rules:
//   input rules    Options_R(x̄) ← φ     options offered for input R
//   state rules    [¬]S(x̄)      ← φ     insertions/deletions into states
//   action rules   A(x̄)         ← φ     output tuples emitted this step
//   target rules   P             ← φ     next-page conditions
#ifndef WAVE_SPEC_WEB_APP_H_
#define WAVE_SPEC_WEB_APP_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/function_ref.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/symbol_table.h"
#include "fo/formula.h"
#include "relational/schema.h"

namespace wave {

/// Options_R(head) ← body. `head` is typically a tuple of distinct
/// variables; the body's free variables must be exactly the head's
/// variables.
struct InputRule {
  RelationId relation = kInvalidRelation;
  std::vector<Term> head;
  FormulaPtr body;
};

/// S(head) ← body (insert) or ¬S(head) ← body (delete).
struct StateRule {
  RelationId relation = kInvalidRelation;
  bool insert = true;
  std::vector<Term> head;
  FormulaPtr body;
};

/// A(head) ← body.
struct ActionRule {
  RelationId relation = kInvalidRelation;
  std::vector<Term> head;
  FormulaPtr body;
};

/// TARGET ← condition (condition is a sentence).
struct TargetRule {
  int target_page = -1;
  FormulaPtr condition;
};

/// One Web page schema.
struct PageSchema {
  std::string name;
  /// Inputs requested by this page: input relations (with an options rule
  /// each) and input constants (free text; no options rule).
  std::vector<RelationId> inputs;
  std::vector<InputRule> input_rules;
  std::vector<StateRule> state_rules;
  std::vector<ActionRule> action_rules;
  std::vector<TargetRule> target_rules;
};

/// Variables of a rule head, in first-occurrence order.
std::vector<std::string> HeadVariables(const std::vector<Term>& head);

/// A complete Web application specification.
///
/// Owns the symbol table (interned data constants) and the relation
/// catalog. Pages are added with `AddPage` and then frozen by `Validate`.
class WebAppSpec {
 public:
  WebAppSpec() = default;

  WebAppSpec(const WebAppSpec&) = default;
  WebAppSpec& operator=(const WebAppSpec&) = default;
  WebAppSpec(WebAppSpec&&) = default;
  WebAppSpec& operator=(WebAppSpec&&) = default;

  std::string name;

  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Adds a page; names must be unique. Returns its index.
  int AddPage(PageSchema page);

  int PageIndex(std::string_view name) const;  // -1 if unknown
  const PageSchema& page(int index) const { return pages_[index]; }
  /// Mutable access for construction-time rule insertion (parser/builders).
  PageSchema* mutable_page(int index) { return &pages_[index]; }
  int num_pages() const { return static_cast<int>(pages_.size()); }

  void set_home_page(int index) { home_page_ = index; }
  int home_page() const { return home_page_; }

  /// All constants (symbol ids) mentioned in any rule — the paper's CW.
  std::set<SymbolId> SpecConstants() const;

  /// Structural validation: arities, relation kinds, rule safety (head
  /// variables == body free variables), body atom arities, page atoms in
  /// rule bodies, sentence-ness of target rules, home page set. Returns
  /// hard errors.
  std::vector<std::string> Validate() const;

  /// Appends one "<where>: <problem>" line per faulty leaf of `f`, in visit
  /// order: a relation atom over an undeclared relation or with the wrong
  /// number of arguments, or a page atom naming an unknown page. These are
  /// the parser's own atom errors, in its words, for formulas built through
  /// the API or checked against another spec. `where` is called only for a
  /// faulty leaf. `Validate` runs it on every rule body and target
  /// condition, `ValidatePropertyForSpec` on every property component.
  void CheckAtoms(const Formula& f, FunctionRef<std::string()> where,
                  std::vector<std::string>* issues) const;

  /// `Validate()` as a structured error: OK when clean, otherwise
  /// FailedPrecondition listing every issue. The Status-returning
  /// construction paths (`Verifier::Create`, CLI loading) use this.
  Status ValidateStatus() const;

  /// Input-boundedness check of every rule (the completeness precondition;
  /// violations downgrade WAVE to a sound-but-incomplete verifier).
  std::vector<std::string> CheckInputBoundedness() const;

  /// Summary line used by benches ("19 pages, 4 database relations, ...").
  std::string StatsString() const;

 private:
  SymbolTable symbols_;
  Catalog catalog_;
  std::vector<PageSchema> pages_;
  StringMap<int> page_index_;
  int home_page_ = 0;
};

}  // namespace wave

#endif  // WAVE_SPEC_WEB_APP_H_
