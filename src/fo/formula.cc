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

// Each factory builds a node field-by-field inside a static member function
// (which can use the private default constructor) and moves it to the heap.

FormulaPtr Formula::True() {
  Formula f;
  f.kind_ = Kind::kTrue;
  return FormulaPtr(new Formula(std::move(f)));
}

FormulaPtr Formula::False() {
  Formula f;
  f.kind_ = Kind::kFalse;
  return FormulaPtr(new Formula(std::move(f)));
}

FormulaPtr Formula::Atom(std::string relation, std::vector<Term> args,
                         bool previous) {
  Formula f;
  f.kind_ = Kind::kAtom;
  f.name_ = std::move(relation);
  f.args_ = std::move(args);
  f.previous_ = previous;
  return FormulaPtr(new Formula(std::move(f)));
}

FormulaPtr Formula::Equals(Term lhs, Term rhs) {
  Formula f;
  f.kind_ = Kind::kEquals;
  f.args_ = {std::move(lhs), std::move(rhs)};
  return FormulaPtr(new Formula(std::move(f)));
}

FormulaPtr Formula::Page(std::string page) {
  Formula f;
  f.kind_ = Kind::kPage;
  f.name_ = std::move(page);
  return FormulaPtr(new Formula(std::move(f)));
}

FormulaPtr Formula::Not(FormulaPtr f0) {
  Formula f;
  f.kind_ = Kind::kNot;
  f.left_ = std::move(f0);
  return FormulaPtr(new Formula(std::move(f)));
}

FormulaPtr Formula::And(FormulaPtr lhs, FormulaPtr rhs) {
  Formula f;
  f.kind_ = Kind::kAnd;
  f.left_ = std::move(lhs);
  f.right_ = std::move(rhs);
  return FormulaPtr(new Formula(std::move(f)));
}

FormulaPtr Formula::Or(FormulaPtr lhs, FormulaPtr rhs) {
  Formula f;
  f.kind_ = Kind::kOr;
  f.left_ = std::move(lhs);
  f.right_ = std::move(rhs);
  return FormulaPtr(new Formula(std::move(f)));
}

FormulaPtr Formula::Implies(FormulaPtr lhs, FormulaPtr rhs) {
  Formula f;
  f.kind_ = Kind::kImplies;
  f.left_ = std::move(lhs);
  f.right_ = std::move(rhs);
  return FormulaPtr(new Formula(std::move(f)));
}

FormulaPtr Formula::Exists(std::vector<std::string> vars, FormulaPtr body) {
  WAVE_CHECK(!vars.empty());
  Formula f;
  f.kind_ = Kind::kExists;
  f.vars_ = std::move(vars);
  f.left_ = std::move(body);
  return FormulaPtr(new Formula(std::move(f)));
}

FormulaPtr Formula::Forall(std::vector<std::string> vars, FormulaPtr body) {
  WAVE_CHECK(!vars.empty());
  Formula f;
  f.kind_ = Kind::kForall;
  f.vars_ = std::move(vars);
  f.left_ = std::move(body);
  return FormulaPtr(new Formula(std::move(f)));
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

void Formula::CollectFree(std::set<std::string>* bound,
                          std::vector<std::string>* out,
                          std::set<std::string>* seen) const {
  switch (kind_) {
    case Kind::kTrue:
    case Kind::kFalse:
    case Kind::kPage:
      return;
    case Kind::kAtom:
    case Kind::kEquals:
      for (const Term& t : args_) {
        if (t.is_variable() && bound->count(t.variable) == 0 &&
            seen->insert(t.variable).second) {
          out->push_back(t.variable);
        }
      }
      return;
    case Kind::kNot:
      left_->CollectFree(bound, out, seen);
      return;
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kImplies:
      left_->CollectFree(bound, out, seen);
      right_->CollectFree(bound, out, seen);
      return;
    case Kind::kExists:
    case Kind::kForall: {
      std::vector<std::string> newly_bound;
      for (const std::string& v : vars_) {
        if (bound->insert(v).second) newly_bound.push_back(v);
      }
      left_->CollectFree(bound, out, seen);
      for (const std::string& v : newly_bound) bound->erase(v);
      return;
    }
  }
}

std::vector<std::string> Formula::FreeVariables() const {
  std::set<std::string> bound, seen;
  std::vector<std::string> out;
  CollectFree(&bound, &out, &seen);
  return out;
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
