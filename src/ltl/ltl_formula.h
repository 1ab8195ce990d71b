// LTL-FO: linear-time temporal logic whose atoms are FO formulas over a
// configuration (Section 2.1 of the paper). An LTL-FO *property* is an
// LTL-FO formula with its remaining free variables universally quantified
// at the very end:   ∀x̄ φ1(x̄).
//
// Temporal operators: G (always), F (eventually), X (next), U (until),
// B (before: `p B q` — either q never holds, or p holds strictly before
// the first time q holds; the paper's footnote 1 semantics).
#ifndef WAVE_LTL_LTL_FORMULA_H_
#define WAVE_LTL_LTL_FORMULA_H_

#include <memory>
#include <string>
#include <vector>

#include "fo/formula.h"

namespace wave {

class LtlFormula;
using LtlPtr = std::shared_ptr<const LtlFormula>;

/// Immutable LTL-FO formula node.
class LtlFormula {
 public:
  enum class Kind {
    kFo,       // embedded FO formula (an eventual "FO component")
    kNot,
    kAnd,
    kOr,
    kImplies,
    kG,
    kF,
    kX,
    kU,
    kB,
  };

  Kind kind() const { return kind_; }
  const FormulaPtr& fo() const { return fo_; }
  const LtlPtr& left() const { return left_; }
  const LtlPtr& right() const { return right_; }
  const LtlPtr& body() const { return left_; }

  static LtlPtr Fo(FormulaPtr f);
  static LtlPtr Not(LtlPtr f);
  static LtlPtr And(LtlPtr l, LtlPtr r);
  static LtlPtr Or(LtlPtr l, LtlPtr r);
  static LtlPtr Implies(LtlPtr l, LtlPtr r);
  static LtlPtr G(LtlPtr f);
  static LtlPtr F(LtlPtr f);
  static LtlPtr X(LtlPtr f);
  static LtlPtr U(LtlPtr l, LtlPtr r);
  static LtlPtr B(LtlPtr l, LtlPtr r);

  /// Free variables of all embedded FO formulas, first-occurrence order.
  std::vector<std::string> FreeVariables() const;
  /// Appends each such variable not yet in `out`, in first-occurrence
  /// order. The views name the embedded formulas' own strings.
  void AppendFreeVariables(std::vector<std::string_view>* out) const;

  /// True if the subtree contains any temporal operator.
  bool ContainsTemporal() const;

  /// Substitutes constants for free variables in every FO component.
  LtlPtr SubstituteConstants(
      const std::map<std::string, SymbolId>& binding) const;

  std::string ToString(const SymbolTable& symbols) const;

 private:
  /// Lets the factories reach the constructor through `std::make_shared`.
  struct Key {
    explicit Key() = default;
  };

 public:
  explicit LtlFormula(Key) {}

 private:
  static LtlPtr Make(Kind kind, LtlPtr left, LtlPtr right = nullptr);

  Kind kind_ = Kind::kFo;
  FormulaPtr fo_;
  LtlPtr left_;
  LtlPtr right_;
};

/// A named property: ∀ forall_vars. body, plus the expected verdict used by
/// experiment harnesses.
struct Property {
  std::string name;                      // e.g. "P5"
  std::string type_code;                 // e.g. "T1" (paper's taxonomy)
  std::string description;
  std::vector<std::string> forall_vars;  // outermost universal block
  LtlPtr body;

  std::string ToString(const SymbolTable& symbols) const;
};

}  // namespace wave

#endif  // WAVE_LTL_LTL_FORMULA_H_
