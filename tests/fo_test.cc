// FO module tests: AST utilities, NNF, input-boundedness, and the prepared
// evaluator — including a randomized differential test against a naive
// reference evaluator.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "fo/formula.h"
#include "fo/input_bounded.h"
#include "fo/nnf.h"
#include "fo/prepared.h"
#include "relational/instance.h"
#include "spec/runtime.h"

namespace wave {
namespace {

Term V(const std::string& name) { return Term::Var(name); }
Term C(SymbolId value) { return Term::Const(value); }

class FoTest : public ::testing::Test {
 protected:
  FoTest() {
    catalog_.Declare({"R", 2, RelationKind::kDatabase, {}});
    catalog_.Declare({"S", 1, RelationKind::kState, {}});
    catalog_.Declare({"I", 1, RelationKind::kInput, {}});
    catalog_.Declare({"A", 1, RelationKind::kAction, {}});
    config_.page = 0;
    config_.data = Instance(&catalog_);
    config_.previous = Instance(&catalog_);
  }

  bool Eval(const FormulaPtr& f) {
    PreparedFormula prepared = PreparedFormula::Prepare(
        f, catalog_, {}, [](const std::string&) { return 0; });
    ConfigurationAdapter view(&config_);
    std::vector<SymbolId> regs = prepared.MakeRegisters();
    return prepared.EvalClosed(view, domain_, &regs);
  }

  std::vector<Tuple> Satisfying(const FormulaPtr& f,
                                const std::vector<std::string>& free_order) {
    PreparedFormula prepared = PreparedFormula::Prepare(
        f, catalog_, free_order, [](const std::string&) { return 0; });
    ConfigurationAdapter view(&config_);
    std::vector<Tuple> out;
    prepared.EnumerateSatisfying(view, domain_, &out);
    std::sort(out.begin(), out.end());
    return out;
  }

  Catalog catalog_;
  Configuration config_;
  std::vector<SymbolId> domain_ = {0, 1, 2};
};

TEST_F(FoTest, FreeVariablesInFirstOccurrenceOrder) {
  FormulaPtr f = Formula::And(
      Formula::Atom("R", {V("y"), V("x")}),
      Formula::Exists({"z"}, Formula::Atom("I", {V("z")})));
  EXPECT_EQ(f->FreeVariables(), (std::vector<std::string>{"y", "x"}));
}

TEST_F(FoTest, VisitLeavesIsLeftToRightPreOrder) {
  // Every kind of node: the four leaf kinds are visited in the order they
  // are written, `prev` atoms included; true, false, connectives and
  // quantifiers are walked through.
  SymbolTable symbols;
  SymbolId go = symbols.Intern("go");
  FormulaPtr f = Formula::Forall(
      {"x"},
      Formula::And(
          Formula::Implies(
              Formula::Atom("R", {V("x"), C(go)}),
              Formula::Not(Formula::Atom("I", {V("x")}, /*previous=*/true))),
          Formula::Or(
              Formula::Exists({"y"},
                              Formula::And(Formula::Equals(V("x"), V("y")),
                                           Formula::Atom("S", {V("y")}))),
              Formula::Or(Formula::Page("HP"),
                          Formula::And(Formula::True(), Formula::False())))));
  std::vector<std::string> leaves;
  f->VisitLeaves(
      [&](const Formula& leaf) { leaves.push_back(leaf.ToString(symbols)); });
  EXPECT_EQ(leaves, (std::vector<std::string>{"R(x,\"go\")", "prev I(x)",
                                              "x = y", "S(y)", "at HP"}));
  EXPECT_EQ(f->Constants(), (std::set<SymbolId>{go}));
}

TEST_F(FoTest, QuantifierShadowingInFreeVariables) {
  // x is bound inside but free outside.
  FormulaPtr f = Formula::And(
      Formula::Exists({"x"}, Formula::Atom("I", {V("x")})),
      Formula::Atom("S", {V("x")}));
  EXPECT_EQ(f->FreeVariables(), (std::vector<std::string>{"x"}));
}

TEST_F(FoTest, SubstituteConstantsRespectsBinding) {
  FormulaPtr f = Formula::Exists(
      {"x"}, Formula::And(Formula::Atom("I", {V("x")}),
                          Formula::Atom("R", {V("x"), V("y")})));
  FormulaPtr g = f->SubstituteConstants({{"y", 7}, {"x", 9}});
  EXPECT_TRUE(g->FreeVariables().empty());
  // The bound x must not have been substituted.
  SymbolTable symbols;
  for (int i = 0; i < 10; ++i) symbols.Intern("c" + std::to_string(i));
  EXPECT_NE(g->ToString(symbols).find("x"), std::string::npos);
}

TEST_F(FoTest, NnfRemovesImplicationsAndPushesNegation) {
  FormulaPtr f = Formula::Not(Formula::Implies(
      Formula::Atom("S", {C(1)}), Formula::Atom("A", {C(2)})));
  FormulaPtr g = ToNNF(f);
  // !(a -> b) == a & !b
  EXPECT_EQ(g->kind(), Formula::Kind::kAnd);
  EXPECT_EQ(g->left()->kind(), Formula::Kind::kAtom);
  EXPECT_EQ(g->right()->kind(), Formula::Kind::kNot);
}

TEST_F(FoTest, NnfSwapsQuantifiers) {
  FormulaPtr f =
      Formula::Not(Formula::Forall({"x"}, Formula::Atom("I", {V("x")})));
  FormulaPtr g = ToNNF(f);
  EXPECT_EQ(g->kind(), Formula::Kind::kExists);
  EXPECT_EQ(g->body()->kind(), Formula::Kind::kNot);
}

TEST_F(FoTest, EvalGroundAtoms) {
  config_.data.relation("R").Insert({1, 2});
  EXPECT_TRUE(Eval(Formula::Atom("R", {C(1), C(2)})));
  EXPECT_FALSE(Eval(Formula::Atom("R", {C(2), C(1)})));
  EXPECT_TRUE(Eval(Formula::Not(Formula::Atom("R", {C(2), C(1)}))));
}

TEST_F(FoTest, EvalPreviousInput) {
  config_.previous.relation("I").Insert({1});
  EXPECT_TRUE(Eval(Formula::Atom("I", {C(1)}, /*previous=*/true)));
  EXPECT_FALSE(Eval(Formula::Atom("I", {C(1)}, /*previous=*/false)));
}

TEST_F(FoTest, EvalQuantifiers) {
  config_.data.relation("I").Insert({1});
  config_.data.relation("R").Insert({1, 2});
  // ∃x I(x) ∧ R(x, 2)
  FormulaPtr ex = Formula::Exists(
      {"x"}, Formula::And(Formula::Atom("I", {V("x")}),
                          Formula::Atom("R", {V("x"), C(2)})));
  EXPECT_TRUE(Eval(ex));
  // ∀x I(x) → R(x, 0): fails since R(1,0) absent.
  FormulaPtr fa = Formula::Forall(
      {"x"}, Formula::Implies(Formula::Atom("I", {V("x")}),
                              Formula::Atom("R", {V("x"), C(0)})));
  EXPECT_FALSE(Eval(fa));
  // ∀x I(x) → R(x, 2): holds (the only input is 1 and R(1,2) present).
  FormulaPtr fa2 = Formula::Forall(
      {"x"}, Formula::Implies(Formula::Atom("I", {V("x")}),
                              Formula::Atom("R", {V("x"), C(2)})));
  EXPECT_TRUE(fa2 != nullptr && Eval(fa2));
}

TEST_F(FoTest, EvalVacuousUniversal) {
  // Empty input: ∀x I(x) → false  holds vacuously.
  FormulaPtr fa = Formula::Forall(
      {"x"}, Formula::Implies(Formula::Atom("I", {V("x")}),
                              Formula::False()));
  EXPECT_TRUE(Eval(fa));
}

TEST_F(FoTest, SatisfyingAssignmentsFromAtoms) {
  config_.data.relation("R").Insert({0, 1});
  config_.data.relation("R").Insert({1, 2});
  std::vector<Tuple> out =
      Satisfying(Formula::Atom("R", {V("x"), V("y")}), {"x", "y"});
  EXPECT_EQ(out, (std::vector<Tuple>{{0, 1}, {1, 2}}));
}

TEST_F(FoTest, SatisfyingAssignmentsWithRepeatedVariable) {
  config_.data.relation("R").Insert({1, 1});
  config_.data.relation("R").Insert({1, 2});
  std::vector<Tuple> out =
      Satisfying(Formula::Atom("R", {V("x"), V("x")}), {"x"});
  EXPECT_EQ(out, (std::vector<Tuple>{{1}}));
}

TEST_F(FoTest, SatisfyingAssignmentsForNegation) {
  config_.data.relation("S").Insert({1});
  // !S(x): satisfied by domain values not in S.
  std::vector<Tuple> out =
      Satisfying(Formula::Not(Formula::Atom("S", {V("x")})), {"x"});
  EXPECT_EQ(out, (std::vector<Tuple>{{0}, {2}}));
}

TEST_F(FoTest, UnconstrainedFreeVariableRangesOverDomain) {
  config_.data.relation("S").Insert({1});
  // S(1) & (y unconstrained): every domain value for y.
  std::vector<Tuple> out =
      Satisfying(Formula::Atom("S", {C(1)}), {"y"});
  EXPECT_EQ(out, (std::vector<Tuple>{{0}, {1}, {2}}));
}

TEST_F(FoTest, DisjunctionDeduplicates) {
  config_.data.relation("S").Insert({1});
  config_.data.relation("I").Insert({1});
  std::vector<Tuple> out = Satisfying(
      Formula::Or(Formula::Atom("S", {V("x")}), Formula::Atom("I", {V("x")})),
      {"x"});
  EXPECT_EQ(out, (std::vector<Tuple>{{1}}));
}

TEST_F(FoTest, EqualityBindsBothDirections) {
  std::vector<Tuple> out = Satisfying(
      Formula::And(Formula::Equals(V("x"), C(2)),
                   Formula::Equals(V("y"), V("x"))),
      {"x", "y"});
  EXPECT_EQ(out, (std::vector<Tuple>{{2, 2}}));
}

// --- input-boundedness ---------------------------------------------------------

TEST_F(FoTest, InputBoundedAcceptsGuardedQuantifiers) {
  FormulaPtr ok = Formula::Exists(
      {"x"}, Formula::And(Formula::Atom("I", {V("x")}),
                          Formula::Atom("R", {V("x"), C(1)})));
  EXPECT_TRUE(
      CheckInputBounded(ok, catalog_, FormulaRole::kRule, "t").empty());
}

TEST_F(FoTest, InputBoundedRejectsUnguardedExistential) {
  FormulaPtr bad =
      Formula::Exists({"x"}, Formula::Atom("R", {V("x"), C(1)}));
  EXPECT_FALSE(
      CheckInputBounded(bad, catalog_, FormulaRole::kRule, "t").empty());
}

TEST_F(FoTest, InputBoundedRejectsQuantifiedVarInStateAtom) {
  FormulaPtr bad = Formula::Exists(
      {"x"}, Formula::And(Formula::Atom("I", {V("x")}),
                          Formula::Atom("S", {V("x")})));
  EXPECT_FALSE(
      CheckInputBounded(bad, catalog_, FormulaRole::kRule, "t").empty());
}

TEST_F(FoTest, InputBoundedUniversalNeedsImplicationGuard) {
  FormulaPtr ok = Formula::Forall(
      {"x"}, Formula::Implies(Formula::Atom("I", {V("x")}),
                              Formula::Atom("R", {V("x"), C(1)})));
  EXPECT_TRUE(
      CheckInputBounded(ok, catalog_, FormulaRole::kRule, "t").empty());
  FormulaPtr bad = Formula::Forall({"x"}, Formula::Atom("R", {V("x"), C(1)}));
  EXPECT_FALSE(
      CheckInputBounded(bad, catalog_, FormulaRole::kRule, "t").empty());
}

TEST_F(FoTest, InputBoundednessSurvivesNegation) {
  // ¬∃x(I(x) ∧ φ) is ∀x(I(x) → ¬φ): still input bounded.
  FormulaPtr f = Formula::Not(Formula::Exists(
      {"x"}, Formula::And(Formula::Atom("I", {V("x")}),
                          Formula::Atom("R", {V("x"), C(1)}))));
  EXPECT_TRUE(
      CheckInputBounded(f, catalog_, FormulaRole::kRule, "t").empty());
}

TEST_F(FoTest, OptionRulesAllowFreeExistentialsButNoUniversals) {
  FormulaPtr free_exists =
      Formula::Exists({"x"}, Formula::Atom("R", {V("x"), V("y")}));
  EXPECT_TRUE(CheckInputBounded(free_exists, catalog_,
                                FormulaRole::kInputOptionRule, "t")
                  .empty());
  FormulaPtr universal = Formula::Forall(
      {"x"}, Formula::Implies(Formula::Atom("I", {V("x")}),
                              Formula::Atom("R", {V("x"), C(1)})));
  EXPECT_FALSE(CheckInputBounded(universal, catalog_,
                                 FormulaRole::kInputOptionRule, "t")
                   .empty());
  FormulaPtr nonground_state = Formula::Atom("S", {V("y")});
  EXPECT_FALSE(CheckInputBounded(nonground_state, catalog_,
                                 FormulaRole::kInputOptionRule, "t")
                   .empty());
}

// --- randomized differential test vs a naive evaluator ------------------------

/// Reference semantics: direct recursion over valuations.
bool NaiveEval(const FormulaPtr& f, const ConfigurationView& view,
               const Catalog& catalog, const std::vector<SymbolId>& domain,
               std::map<std::string, SymbolId>* valuation) {
  auto term_value = [&](const Term& t) {
    return t.is_variable() ? valuation->at(t.variable) : t.constant;
  };
  switch (f->kind()) {
    case Formula::Kind::kTrue:
      return true;
    case Formula::Kind::kFalse:
      return false;
    case Formula::Kind::kPage:
      return view.current_page() == 0;
    case Formula::Kind::kAtom: {
      Tuple t(f->args().size());
      for (size_t i = 0; i < t.size(); ++i) t[i] = term_value(f->args()[i]);
      return view.Contains(catalog.Find(f->relation()), f->previous(),
                           t.data());
    }
    case Formula::Kind::kEquals:
      return term_value(f->args()[0]) == term_value(f->args()[1]);
    case Formula::Kind::kNot:
      return !NaiveEval(f->body(), view, catalog, domain, valuation);
    case Formula::Kind::kAnd:
      return NaiveEval(f->left(), view, catalog, domain, valuation) &&
             NaiveEval(f->right(), view, catalog, domain, valuation);
    case Formula::Kind::kOr:
      return NaiveEval(f->left(), view, catalog, domain, valuation) ||
             NaiveEval(f->right(), view, catalog, domain, valuation);
    case Formula::Kind::kImplies:
      return !NaiveEval(f->left(), view, catalog, domain, valuation) ||
             NaiveEval(f->right(), view, catalog, domain, valuation);
    case Formula::Kind::kExists:
    case Formula::Kind::kForall: {
      bool is_exists = f->kind() == Formula::Kind::kExists;
      // Enumerate all assignments of the quantified variables.
      std::vector<std::string> vars = f->vars();
      std::vector<size_t> idx(vars.size(), 0);
      std::map<std::string, SymbolId> saved = *valuation;
      while (true) {
        for (size_t i = 0; i < vars.size(); ++i) {
          (*valuation)[vars[i]] = domain[idx[i]];
        }
        bool v = NaiveEval(f->body(), view, catalog, domain, valuation);
        if (is_exists && v) {
          *valuation = saved;
          return true;
        }
        if (!is_exists && !v) {
          *valuation = saved;
          return false;
        }
        size_t i = 0;
        while (i < idx.size() && ++idx[i] == domain.size()) {
          idx[i] = 0;
          ++i;
        }
        if (i == idx.size()) break;
      }
      *valuation = saved;
      return !is_exists;
    }
  }
  return false;
}

FormulaPtr RandomTermFormula(std::mt19937* rng, int depth,
                             const std::vector<std::string>& vars) {
  auto term = [&]() {
    if ((*rng)() % 2 == 0) return Term::Var(vars[(*rng)() % vars.size()]);
    return Term::Const(static_cast<SymbolId>((*rng)() % 3));
  };
  std::uniform_int_distribution<int> dist(0, depth <= 0 ? 3 : 9);
  switch (dist(*rng)) {
    case 0:
      return Formula::Atom("R", {term(), term()});
    case 1:
      return Formula::Atom("S", {term()});
    case 2:
      return Formula::Atom("I", {term()}, /*previous=*/(*rng)() % 2 == 0);
    case 3:
      return Formula::Equals(term(), term());
    case 4:
      return Formula::Not(RandomTermFormula(rng, depth - 1, vars));
    case 5:
      return Formula::And(RandomTermFormula(rng, depth - 1, vars),
                          RandomTermFormula(rng, depth - 1, vars));
    case 6:
      return Formula::Or(RandomTermFormula(rng, depth - 1, vars),
                         RandomTermFormula(rng, depth - 1, vars));
    case 7:
      return Formula::Implies(RandomTermFormula(rng, depth - 1, vars),
                              RandomTermFormula(rng, depth - 1, vars));
    case 8: {
      std::string v = "q" + std::to_string((*rng)() % 2);
      std::vector<std::string> inner = vars;
      inner.push_back(v);
      return Formula::Exists({v}, RandomTermFormula(rng, depth - 1, inner));
    }
    default: {
      std::string v = "q" + std::to_string((*rng)() % 2);
      std::vector<std::string> inner = vars;
      inner.push_back(v);
      return Formula::Forall({v}, RandomTermFormula(rng, depth - 1, inner));
    }
  }
}

class PreparedDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(PreparedDifferentialTest, MatchesNaiveEvaluator) {
  std::mt19937 rng(GetParam());
  Catalog catalog;
  catalog.Declare({"R", 2, RelationKind::kDatabase, {}});
  catalog.Declare({"S", 1, RelationKind::kState, {}});
  catalog.Declare({"I", 1, RelationKind::kInput, {}});
  std::vector<SymbolId> domain = {0, 1, 2};

  for (int trial = 0; trial < 20; ++trial) {
    // Random configuration.
    Configuration config;
    config.page = 0;
    config.data = Instance(&catalog);
    config.previous = Instance(&catalog);
    for (SymbolId a : domain) {
      for (SymbolId b : domain) {
        if (rng() % 3 == 0) config.data.relation("R").Insert({a, b});
      }
      if (rng() % 3 == 0) config.data.relation("S").Insert({a});
      if (rng() % 3 == 0) config.data.relation("I").Insert({a});
      if (rng() % 3 == 0) config.previous.relation("I").Insert({a});
    }
    ConfigurationAdapter view(&config);

    std::vector<std::string> free_vars = {"x", "y"};
    FormulaPtr f = RandomTermFormula(&rng, 3, free_vars);
    PreparedFormula prepared = PreparedFormula::Prepare(
        f, catalog, free_vars, [](const std::string&) { return 0; });

    // Compare EvalClosed for every free-variable assignment, and cross-
    // check EnumerateSatisfying against the positives.
    std::vector<Tuple> enumerated;
    prepared.EnumerateSatisfying(view, domain, &enumerated);
    std::set<Tuple> enumerated_set(enumerated.begin(), enumerated.end());
    EXPECT_EQ(enumerated.size(), enumerated_set.size()) << "duplicates";
    for (SymbolId x : domain) {
      for (SymbolId y : domain) {
        std::map<std::string, SymbolId> valuation = {{"x", x}, {"y", y}};
        bool expected = NaiveEval(f, view, catalog, domain, &valuation);
        std::vector<SymbolId> regs = prepared.MakeRegisters();
        regs[0] = x;
        regs[1] = y;
        bool actual = prepared.EvalClosed(view, domain, &regs);
        SymbolTable symbols;
        for (int i = 0; i < 3; ++i) symbols.Intern("c" + std::to_string(i));
        ASSERT_EQ(actual, expected)
            << "seed " << GetParam() << " trial " << trial << " x=" << x
            << " y=" << y << " formula " << f->ToString(symbols);
        ASSERT_EQ(enumerated_set.count({x, y}) > 0, expected)
            << "EnumerateSatisfying disagrees; formula "
            << f->ToString(symbols);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreparedDifferentialTest,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace wave
