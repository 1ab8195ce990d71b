#include "fo/formula.h"

#include <algorithm>

#include "common/check.h"
#include "common/strings.h"

namespace wave {

namespace {

std::string TermToString(const Term& t, const SymbolTable& symbols) {
  if (t.is_variable()) return t.variable;
  return "\"" + symbols.Name(t.constant) + "\"";
}

}  // namespace

// Each factory allocates its node and control block together, then sets the
// node's fields.

std::shared_ptr<Formula> Formula::New(Kind kind) {
  auto f = std::make_shared<Formula>(Key());
  f->kind_ = kind;
  return f;
}

FormulaPtr Formula::True() { return New(Kind::kTrue); }

FormulaPtr Formula::False() { return New(Kind::kFalse); }

FormulaPtr Formula::Atom(std::string relation, std::vector<Term> args,
                         bool previous) {
  std::shared_ptr<Formula> f = New(Kind::kAtom);
  f->name_ = std::move(relation);
  f->args_ = std::move(args);
  f->previous_ = previous;
  return f;
}

FormulaPtr Formula::Equals(Term lhs, Term rhs) {
  std::shared_ptr<Formula> f = New(Kind::kEquals);
  f->args_.reserve(2);
  f->args_.push_back(std::move(lhs));
  f->args_.push_back(std::move(rhs));
  return f;
}

FormulaPtr Formula::Page(std::string page) {
  std::shared_ptr<Formula> f = New(Kind::kPage);
  f->name_ = std::move(page);
  return f;
}

FormulaPtr Formula::Not(FormulaPtr body) {
  std::shared_ptr<Formula> f = New(Kind::kNot);
  f->left_ = std::move(body);
  return f;
}

FormulaPtr Formula::Binary(Kind kind, FormulaPtr lhs, FormulaPtr rhs) {
  std::shared_ptr<Formula> f = New(kind);
  f->left_ = std::move(lhs);
  f->right_ = std::move(rhs);
  return f;
}

FormulaPtr Formula::And(FormulaPtr lhs, FormulaPtr rhs) {
  return Binary(Kind::kAnd, std::move(lhs), std::move(rhs));
}

FormulaPtr Formula::Or(FormulaPtr lhs, FormulaPtr rhs) {
  return Binary(Kind::kOr, std::move(lhs), std::move(rhs));
}

FormulaPtr Formula::Implies(FormulaPtr lhs, FormulaPtr rhs) {
  return Binary(Kind::kImplies, std::move(lhs), std::move(rhs));
}

FormulaPtr Formula::Quantified(Kind kind, std::vector<std::string> vars,
                               FormulaPtr body) {
  WAVE_CHECK(!vars.empty());
  std::shared_ptr<Formula> f = New(kind);
  f->vars_ = std::move(vars);
  f->left_ = std::move(body);
  return f;
}

FormulaPtr Formula::Exists(std::vector<std::string> vars, FormulaPtr body) {
  return Quantified(Kind::kExists, std::move(vars), std::move(body));
}

FormulaPtr Formula::Forall(std::vector<std::string> vars, FormulaPtr body) {
  return Quantified(Kind::kForall, std::move(vars), std::move(body));
}

void Formula::VisitLeaves(FunctionRef<void(const Formula&)> visit) const {
  switch (kind_) {
    case Kind::kTrue:
    case Kind::kFalse:
      return;
    case Kind::kAtom:
    case Kind::kEquals:
    case Kind::kPage:
      visit(*this);
      return;
    case Kind::kNot:
    case Kind::kExists:
    case Kind::kForall:
      left_->VisitLeaves(visit);
      return;
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kImplies:
      left_->VisitLeaves(visit);
      right_->VisitLeaves(visit);
      return;
  }
}

void Formula::CollectFree(const BoundScope* bound,
                          std::vector<std::string_view>* out) const {
  switch (kind_) {
    case Kind::kTrue:
    case Kind::kFalse:
    case Kind::kPage:
      return;
    case Kind::kAtom:
    case Kind::kEquals:
      for (const Term& t : args_) {
        if (!t.is_variable() ||
            std::find(out->begin(), out->end(), t.variable) != out->end()) {
          continue;
        }
        bool is_bound = false;
        for (const BoundScope* s = bound; s != nullptr && !is_bound;
             s = s->outer) {
          is_bound = std::find(s->vars->begin(), s->vars->end(),
                               t.variable) != s->vars->end();
        }
        if (!is_bound) out->push_back(t.variable);
      }
      return;
    case Kind::kNot:
      left_->CollectFree(bound, out);
      return;
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kImplies:
      left_->CollectFree(bound, out);
      right_->CollectFree(bound, out);
      return;
    case Kind::kExists:
    case Kind::kForall: {
      const BoundScope inner{&vars_, bound};
      left_->CollectFree(&inner, out);
      return;
    }
  }
}

void Formula::AppendFreeVariables(std::vector<std::string_view>* out) const {
  CollectFree(nullptr, out);
}

std::vector<std::string> Formula::FreeVariables() const {
  std::vector<std::string_view> views;
  AppendFreeVariables(&views);
  return {views.begin(), views.end()};
}

std::set<SymbolId> Formula::Constants() const {
  std::set<SymbolId> out;
  VisitLeaves([&out](const Formula& leaf) {
    for (const Term& t : leaf.args()) {
      if (!t.is_variable()) out.insert(t.constant);
    }
  });
  return out;
}

FormulaPtr Formula::SubstituteConstants(
    const std::map<std::string, SymbolId>& binding) const {
  switch (kind_) {
    case Kind::kTrue:
      return True();
    case Kind::kFalse:
      return False();
    case Kind::kPage:
      return Page(name_);
    case Kind::kAtom:
    case Kind::kEquals: {
      std::vector<Term> args = args_;
      for (Term& t : args) {
        if (t.is_variable()) {
          auto it = binding.find(t.variable);
          if (it != binding.end()) t = Term::Const(it->second);
        }
      }
      if (kind_ == Kind::kEquals) {
        return Equals(std::move(args[0]), std::move(args[1]));
      }
      return Atom(name_, std::move(args), previous_);
    }
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
    case Kind::kExists:
    case Kind::kForall: {
      // Bound variables shadow the binding.
      std::map<std::string, SymbolId> inner = binding;
      for (const std::string& v : vars_) inner.erase(v);
      FormulaPtr body = left_->SubstituteConstants(inner);
      return kind_ == Kind::kExists ? Exists(vars_, std::move(body))
                                    : Forall(vars_, std::move(body));
    }
  }
  WAVE_CHECK(false);
  return nullptr;
}

std::string Formula::ToString(const SymbolTable& symbols) const {
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kFalse:
      return "false";
    case Kind::kPage:
      return "at " + name_;
    case Kind::kAtom: {
      std::vector<std::string> parts;
      parts.reserve(args_.size());
      for (const Term& t : args_) parts.push_back(TermToString(t, symbols));
      std::string head = previous_ ? "prev " + name_ : name_;
      return head + "(" + Join(parts, ",") + ")";
    }
    case Kind::kEquals:
      return TermToString(args_[0], symbols) + " = " +
             TermToString(args_[1], symbols);
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
    case Kind::kExists:
    case Kind::kForall: {
      std::string q = kind_ == Kind::kExists ? "exists" : "forall";
      std::vector<std::string> vs(vars_.begin(), vars_.end());
      return q + " " + Join(vs, ",") + ": (" + left_->ToString(symbols) + ")";
    }
  }
  WAVE_CHECK(false);
  return "";
}

}  // namespace wave
