// First-order formulas (relational calculus) — the rule and property
// building blocks of the paper's model (Section 2.1).
//
// Atoms refer to relations of a `Catalog` by name; `previous` marks atoms
// reading the *previous* step's input ("prev R(x)"). Page atoms ("at HP")
// test the current Web page of a configuration. Formulas are immutable and
// shared via `FormulaPtr`.
#ifndef WAVE_FO_FORMULA_H_
#define WAVE_FO_FORMULA_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/function_ref.h"
#include "common/symbol_table.h"

namespace wave {

/// A term: either a named variable or an interned constant.
struct Term {
  enum class Kind { kVariable, kConstant };

  Kind kind = Kind::kConstant;
  std::string variable;            // valid when kind == kVariable
  SymbolId constant = kInvalidSymbol;  // valid when kind == kConstant

  static Term Var(std::string name) {
    Term t;
    t.kind = Kind::kVariable;
    t.variable = std::move(name);
    return t;
  }
  static Term Const(SymbolId value) {
    Term t;
    t.kind = Kind::kConstant;
    t.constant = value;
    return t;
  }

  bool is_variable() const { return kind == Kind::kVariable; }

  friend bool operator==(const Term& a, const Term& b) {
    if (a.kind != b.kind) return false;
    return a.is_variable() ? a.variable == b.variable
                           : a.constant == b.constant;
  }
};

class Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

/// Immutable FO formula node.
class Formula {
 public:
  enum class Kind {
    kTrue,
    kFalse,
    kAtom,     // R(t1..tk), possibly over previous input
    kEquals,   // t1 = t2
    kPage,     // current page is `page`
    kNot,
    kAnd,
    kOr,
    kImplies,
    kExists,
    kForall,
  };

  Kind kind() const { return kind_; }

  // --- Factory functions -------------------------------------------------
  static FormulaPtr True();
  static FormulaPtr False();
  static FormulaPtr Atom(std::string relation, std::vector<Term> args,
                         bool previous = false);
  static FormulaPtr Equals(Term lhs, Term rhs);
  static FormulaPtr Page(std::string page);
  static FormulaPtr Not(FormulaPtr f);
  static FormulaPtr And(FormulaPtr lhs, FormulaPtr rhs);
  static FormulaPtr Or(FormulaPtr lhs, FormulaPtr rhs);
  static FormulaPtr Implies(FormulaPtr lhs, FormulaPtr rhs);
  static FormulaPtr Exists(std::vector<std::string> vars, FormulaPtr body);
  static FormulaPtr Forall(std::vector<std::string> vars, FormulaPtr body);

  // --- Accessors (valid for the relevant kinds only) ----------------------
  const std::string& relation() const { return name_; }   // kAtom
  const std::string& page() const { return name_; }       // kPage
  bool previous() const { return previous_; }              // kAtom
  const std::vector<Term>& args() const { return args_; }  // kAtom, kEquals
  const FormulaPtr& left() const { return left_; }
  const FormulaPtr& right() const { return right_; }
  const FormulaPtr& body() const { return left_; }         // kNot/kExists/kForall
  const std::vector<std::string>& vars() const { return vars_; }

  // --- Analysis ------------------------------------------------------------
  /// Calls `visit` on every leaf — relation atom (`prev` atoms included),
  /// equality and page atom — left to right in pre-order. `true` and
  /// `false` are skipped. Read-only walks that need neither quantifier
  /// scope nor a rebuilt formula go through this one recursion.
  void VisitLeaves(FunctionRef<void(const Formula&)> visit) const;

  /// Free variables, in first-occurrence order.
  std::vector<std::string> FreeVariables() const;
  /// Appends each free variable not yet in `out`, in first-occurrence
  /// order. The views name this formula's own strings.
  void AppendFreeVariables(std::vector<std::string_view>* out) const;

  /// All constants mentioned anywhere in the formula.
  std::set<SymbolId> Constants() const;

  /// Replaces free occurrences of the mapped variables by constants.
  FormulaPtr SubstituteConstants(
      const std::map<std::string, SymbolId>& binding) const;

  /// Renders with `symbols` used for constant names.
  std::string ToString(const SymbolTable& symbols) const;

 private:
  /// Lets the factories reach the constructor through `std::make_shared`.
  struct Key {
    explicit Key() = default;
  };

 public:
  explicit Formula(Key) {}

 private:
  static std::shared_ptr<Formula> New(Kind kind);
  static FormulaPtr Binary(Kind kind, FormulaPtr lhs, FormulaPtr rhs);
  static FormulaPtr Quantified(Kind kind, std::vector<std::string> vars,
                               FormulaPtr body);

  /// The variables of the quantifiers enclosing a subformula, innermost
  /// first.
  struct BoundScope {
    const std::vector<std::string>* vars;
    const BoundScope* outer;
  };
  void CollectFree(const BoundScope* bound,
                   std::vector<std::string_view>* out) const;

  Kind kind_ = Kind::kTrue;
  std::string name_;        // relation or page
  bool previous_ = false;
  std::vector<Term> args_;  // atom args, or [lhs, rhs] for kEquals
  FormulaPtr left_;
  FormulaPtr right_;
  std::vector<std::string> vars_;
};

}  // namespace wave

#endif  // WAVE_FO_FORMULA_H_
