#include "ltl/ltl_formula.h"

#include <map>

#include "common/check.h"
#include "common/strings.h"

namespace wave {

// Each factory allocates its node and control block together.

LtlPtr LtlFormula::Make(Kind kind, LtlPtr left, LtlPtr right) {
  auto f = std::make_shared<LtlFormula>(Key());
  f->kind_ = kind;
  f->left_ = std::move(left);
  f->right_ = std::move(right);
  return f;
}

LtlPtr LtlFormula::Fo(FormulaPtr fo) {
  auto f = std::make_shared<LtlFormula>(Key());
  f->kind_ = Kind::kFo;
  f->fo_ = std::move(fo);
  return f;
}

LtlPtr LtlFormula::Not(LtlPtr body) { return Make(Kind::kNot, std::move(body)); }

LtlPtr LtlFormula::And(LtlPtr l, LtlPtr r) {
  return Make(Kind::kAnd, std::move(l), std::move(r));
}

LtlPtr LtlFormula::Or(LtlPtr l, LtlPtr r) {
  return Make(Kind::kOr, std::move(l), std::move(r));
}

LtlPtr LtlFormula::Implies(LtlPtr l, LtlPtr r) {
  return Make(Kind::kImplies, std::move(l), std::move(r));
}

LtlPtr LtlFormula::G(LtlPtr body) { return Make(Kind::kG, std::move(body)); }

LtlPtr LtlFormula::F(LtlPtr body) { return Make(Kind::kF, std::move(body)); }

LtlPtr LtlFormula::X(LtlPtr body) { return Make(Kind::kX, std::move(body)); }

LtlPtr LtlFormula::U(LtlPtr l, LtlPtr r) {
  return Make(Kind::kU, std::move(l), std::move(r));
}

LtlPtr LtlFormula::B(LtlPtr l, LtlPtr r) {
  return Make(Kind::kB, std::move(l), std::move(r));
}

void LtlFormula::AppendFreeVariables(
    std::vector<std::string_view>* out) const {
  if (kind_ == Kind::kFo) {
    fo_->AppendFreeVariables(out);
    return;
  }
  if (left_ != nullptr) left_->AppendFreeVariables(out);
  if (right_ != nullptr) right_->AppendFreeVariables(out);
}

std::vector<std::string> LtlFormula::FreeVariables() const {
  std::vector<std::string_view> views;
  AppendFreeVariables(&views);
  return {views.begin(), views.end()};
}

bool LtlFormula::ContainsTemporal() const {
  switch (kind_) {
    case Kind::kFo:
      return false;
    case Kind::kNot:
      return left_->ContainsTemporal();
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kImplies:
      return left_->ContainsTemporal() || right_->ContainsTemporal();
    case Kind::kG:
    case Kind::kF:
    case Kind::kX:
    case Kind::kU:
    case Kind::kB:
      return true;
  }
  WAVE_CHECK(false);
  return false;
}

LtlPtr LtlFormula::SubstituteConstants(
    const std::map<std::string, SymbolId>& binding) const {
  switch (kind_) {
    case Kind::kFo:
      return Fo(fo_->SubstituteConstants(binding));
    case Kind::kNot:
      return Not(left_->SubstituteConstants(binding));
    case Kind::kAnd:
      return And(left_->SubstituteConstants(binding),
                 right_->SubstituteConstants(binding));
    case Kind::kOr:
      return Or(left_->SubstituteConstants(binding),
                right_->SubstituteConstants(binding));
    case Kind::kImplies:
      return Implies(left_->SubstituteConstants(binding),
                     right_->SubstituteConstants(binding));
    case Kind::kG:
      return G(left_->SubstituteConstants(binding));
    case Kind::kF:
      return F(left_->SubstituteConstants(binding));
    case Kind::kX:
      return X(left_->SubstituteConstants(binding));
    case Kind::kU:
      return U(left_->SubstituteConstants(binding),
               right_->SubstituteConstants(binding));
    case Kind::kB:
      return B(left_->SubstituteConstants(binding),
               right_->SubstituteConstants(binding));
  }
  WAVE_CHECK(false);
  return nullptr;
}

std::string LtlFormula::ToString(const SymbolTable& symbols) const {
  switch (kind_) {
    case Kind::kFo:
      return "[" + fo_->ToString(symbols) + "]";
    case Kind::kNot:
      return "!(" + left_->ToString(symbols) + ")";
    case Kind::kAnd:
      return "(" + left_->ToString(symbols) + " & " +
             right_->ToString(symbols) + ")";
    case Kind::kOr:
      return "(" + left_->ToString(symbols) + " | " +
             right_->ToString(symbols) + ")";
    case Kind::kImplies:
      return "(" + left_->ToString(symbols) + " -> " +
             right_->ToString(symbols) + ")";
    case Kind::kG:
      return "G(" + left_->ToString(symbols) + ")";
    case Kind::kF:
      return "F(" + left_->ToString(symbols) + ")";
    case Kind::kX:
      return "X(" + left_->ToString(symbols) + ")";
    case Kind::kU:
      return "(" + left_->ToString(symbols) + " U " +
             right_->ToString(symbols) + ")";
    case Kind::kB:
      return "(" + left_->ToString(symbols) + " B " +
             right_->ToString(symbols) + ")";
  }
  WAVE_CHECK(false);
  return "";
}

std::string Property::ToString(const SymbolTable& symbols) const {
  std::string out;
  if (!forall_vars.empty()) {
    out = "forall " + Join(forall_vars, ",") + ": ";
  }
  return out + body->ToString(symbols);
}

}  // namespace wave
