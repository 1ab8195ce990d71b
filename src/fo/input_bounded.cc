#include "fo/input_bounded.h"

#include <set>

#include "common/check.h"
#include "fo/nnf.h"

namespace wave {

namespace {

struct Checker {
  const Catalog* catalog;
  FormulaRole role;
  const std::string* context;
  std::vector<std::string> issues;

  void Report(const std::string& message) {
    issues.push_back(*context + ": " + message);
  }

  RelationKind KindOf(const FormulaPtr& atom) {
    RelationId id = catalog->Find(atom->relation());
    // Unknown relations are reported by spec validation, not here; treat
    // them as database relations so the walk can continue.
    if (id == kInvalidRelation) return RelationKind::kDatabase;
    return catalog->schema(id).kind;
  }

  /// Flattens nested And (`conjunction == true`) or Or chains.
  void Flatten(const FormulaPtr& f, Formula::Kind op,
               std::vector<FormulaPtr>* out) {
    if (f->kind() == op) {
      Flatten(f->left(), op, out);
      Flatten(f->right(), op, out);
    } else {
      out->push_back(f);
    }
  }

  /// Adds to `covered` the variables appearing in `atom` if it is an input
  /// atom.
  void CoverFromInputAtom(const FormulaPtr& atom,
                          std::set<std::string>* covered) {
    if (atom->kind() != Formula::Kind::kAtom) return;
    if (!IsInputKind(KindOf(atom))) return;
    for (const Term& t : atom->args()) {
      if (t.is_variable()) covered->insert(t.variable);
    }
  }

  /// Reports if any of `vars` occurs in a state or action atom within `f`.
  void CheckNoStateActionUse(const FormulaPtr& f,
                             const std::set<std::string>& vars) {
    switch (f->kind()) {
      case Formula::Kind::kAtom: {
        RelationKind kind = KindOf(f);
        if (kind != RelationKind::kState && kind != RelationKind::kAction) {
          return;
        }
        for (const Term& t : f->args()) {
          if (t.is_variable() && vars.count(t.variable) > 0) {
            Report("input-bounded variable '" + t.variable +
                   "' occurs in " + std::string(RelationKindName(kind)) +
                   " atom " + f->relation());
          }
        }
        return;
      }
      case Formula::Kind::kNot:
        CheckNoStateActionUse(f->body(), vars);
        return;
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr:
        CheckNoStateActionUse(f->left(), vars);
        CheckNoStateActionUse(f->right(), vars);
        return;
      case Formula::Kind::kExists:
      case Formula::Kind::kForall: {
        std::set<std::string> inner = vars;
        for (const std::string& v : f->vars()) inner.erase(v);
        CheckNoStateActionUse(f->body(), inner);
        return;
      }
      default:
        return;
    }
  }

  /// Walks an NNF formula.
  void Walk(const FormulaPtr& f) {
    switch (f->kind()) {
      case Formula::Kind::kTrue:
      case Formula::Kind::kFalse:
      case Formula::Kind::kPage:
      case Formula::Kind::kEquals:
        return;
      case Formula::Kind::kAtom: {
        if (role == FormulaRole::kInputOptionRule) {
          RelationKind kind = KindOf(f);
          if (kind == RelationKind::kState) {
            for (const Term& t : f->args()) {
              if (t.is_variable()) {
                Report("state atom " + f->relation() +
                       " in input-option rule must be ground (variable '" +
                       t.variable + "')");
              }
            }
          }
        }
        return;
      }
      case Formula::Kind::kNot:
        Walk(f->body());
        return;
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr:
        Walk(f->left());
        Walk(f->right());
        return;
      case Formula::Kind::kExists: {
        if (role == FormulaRole::kInputOptionRule) {
          // Option rules may quantify existentially without an input guard
          // (their restriction is only: existential-only, ground state
          // atoms).
          Walk(f->body());
          return;
        }
        // NNF shape required: ∃x̄ (I₁ ∧ … ∧ rest) where every quantified
        // variable occurs in some positive input atom among the conjuncts
        // (equivalent to the paper's nested one-variable form
        // ∃x(R(x,ȳ) ∧ φ)).
        std::vector<FormulaPtr> conjuncts;
        Flatten(f->body(), Formula::Kind::kAnd, &conjuncts);
        std::set<std::string> covered;
        for (const FormulaPtr& c : conjuncts) {
          CoverFromInputAtom(c, &covered);
        }
        for (const std::string& v : f->vars()) {
          if (covered.count(v) == 0) {
            Report("existentially quantified variable '" + v +
                   "' lacks a positive input-atom guard");
          }
        }
        std::set<std::string> vars(f->vars().begin(), f->vars().end());
        CheckNoStateActionUse(f->body(), vars);
        Walk(f->body());
        return;
      }
      case Formula::Kind::kForall: {
        if (role == FormulaRole::kInputOptionRule) {
          Report("input-option rule uses universal quantification");
        }
        // NNF shape required: ∀x̄ (¬I₁ ∨ … ∨ rest), i.e. the NNF of
        // ∀x̄ (I₁ ∧ … → rest), with every quantified variable in some
        // negated input atom among the disjuncts.
        std::vector<FormulaPtr> disjuncts;
        Flatten(f->body(), Formula::Kind::kOr, &disjuncts);
        std::set<std::string> covered;
        for (const FormulaPtr& d : disjuncts) {
          if (d->kind() == Formula::Kind::kNot) {
            CoverFromInputAtom(d->body(), &covered);
          }
        }
        for (const std::string& v : f->vars()) {
          if (covered.count(v) == 0) {
            Report("universally quantified variable '" + v +
                   "' lacks an input-atom guard (expected form "
                   "forall x: I(x,..) -> ...)");
          }
        }
        std::set<std::string> vars(f->vars().begin(), f->vars().end());
        CheckNoStateActionUse(f->body(), vars);
        Walk(f->body());
        return;
      }
      case Formula::Kind::kImplies:
        WAVE_CHECK(false);  // not present in NNF
    }
  }

  static std::string VarsToString(const std::vector<std::string>& vars) {
    std::string out;
    for (size_t i = 0; i < vars.size(); ++i) {
      if (i > 0) out += ",";
      out += vars[i];
    }
    return out;
  }
};

}  // namespace

std::vector<std::string> CheckInputBounded(const FormulaPtr& formula,
                                           const Catalog& catalog,
                                           FormulaRole role,
                                           const std::string& context) {
  Checker checker{&catalog, role, &context, {}};
  checker.Walk(ToNNF(formula));
  return checker.issues;
}

}  // namespace wave
