// Spec-model tests: validation diagnostics and the fine points of the step
// semantics (Section 2.1) — insert/delete conflicts are no-ops, ambiguous
// targets mean no transition, previous inputs shift by one step.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "parser/parser.h"
#include "spec/graph.h"
#include "spec/prepared_spec.h"

namespace wave {
namespace {

// --- validation diagnostics --------------------------------------------------

TEST(SpecValidationTest, RejectsReadingActions) {
  ParseResult r = ParseSpec(R"(
app x
action fired(a)
input i(x)
home P
page P {
  input i
  rule i(x) <- x = "a"
  target P <- exists x: i(x) & fired(x)
}
)");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.ErrorText().find("reads action relation"), std::string::npos);
}

TEST(SpecValidationTest, AtomProblemsOfRulesBuiltThroughTheApi) {
  // The parser rejects these atoms itself, so only a spec built through
  // the API reaches Validate's atom checks with them.
  WebAppSpec spec;
  Catalog& catalog = spec.catalog();
  catalog.Declare({"d", 1, RelationKind::kDatabase, {}});
  RelationId s = catalog.Declare({"s", 1, RelationKind::kState, {}});
  RelationId i = catalog.Declare({"i", 1, RelationKind::kInput, {}});
  catalog.Declare({"fired", 1, RelationKind::kAction, {}});
  PageSchema page;
  page.name = "P";
  page.inputs = {i};
  page.input_rules.push_back(
      {i, {Term::Var("x")}, Formula::Atom("d", {Term::Var("x")})});
  page.state_rules.push_back(
      {s, /*insert=*/true, {Term::Var("x")},
       Formula::And(Formula::Atom("ghost", {Term::Var("x")}),
                    Formula::Atom("d", {Term::Var("x"), Term::Var("x")}))});
  page.target_rules.push_back(
      {0, Formula::And(
              Formula::Exists({"x"}, Formula::Atom("fired", {Term::Var("x")})),
              Formula::Page("Nowhere"))});
  spec.AddPage(std::move(page));
  EXPECT_EQ(spec.Validate(),
            (std::vector<std::string>{
                "page P, state rule s: undeclared relation 'ghost'",
                "page P, state rule s: atom d/2 does not match declared "
                "arity 1",
                "page P, target condition for P: page atom 'at Nowhere' "
                "references unknown page 'Nowhere'",
                "page P, target condition for P: reads action relation "
                "'fired' (actions are write-only)",
            }));
}

TEST(SpecValidationTest, RejectsWrongHeadKind) {
  ParseResult r = ParseSpec(R"(
app x
database d(a)
input i(x)
home P
page P {
  input i
  rule i(x) <- d(x)
  state +d(x) <- i(x)
}
)");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.ErrorText().find("kind"), std::string::npos);
}

TEST(SpecValidationTest, RejectsInputWithoutOptionsRule) {
  ParseResult r = ParseSpec(R"(
app x
input i(x)
home P
page P {
  input i
  target P <- exists x: i(x)
}
)");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.ErrorText().find("options rule"), std::string::npos);
}

TEST(SpecValidationTest, RejectsOptionsRuleForInputConstant) {
  ParseResult r = ParseSpec(R"(
app x
inputconst t
home P
page P {
  input t
  rule t(x) <- x = "a"
}
)");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.ErrorText().find("input constant"), std::string::npos);
}

TEST(SpecValidationTest, RejectsFreeVariableInTargetCondition) {
  ParseResult r = ParseSpec(R"(
app x
database d(a)
input i(x)
home P
page P {
  input i
  rule i(x) <- d(x)
  target P <- d(y)
}
)");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.ErrorText().find("sentence"), std::string::npos);
}

// --- step semantics ---------------------------------------------------------

class SemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    result_ = ParseSpec(R"(
app semantics
database d(a)
state s(a)
state both(a)
input i(x)
input go(x)
home P

page P {
  input i
  input go
  rule i(x) <- d(x)
  rule go(x) <- x = "flip" | x = "two" | x = "none"
  state +s(x) <- i(x)
  # Insert and delete the same tuple when 'flip' is pressed: the paper
  # says conflicts are no-ops.
  state +both(x) <- i(x) & go("flip")
  state -both(x) <- i(x) & go("flip")
  # Two distinct targets true simultaneously on 'two': no transition.
  target Q <- go("two")
  target R <- go("two")
  target Q <- go("go")
}

page Q {
  input go
  rule go(x) <- x = "back"
  target P <- go("back")
}

page R {
  input go
  rule go(x) <- x = "back"
  target P <- go("back")
}
)");
    ASSERT_TRUE(result_.ok()) << result_.ErrorText();
    spec_ = result_.spec.get();
    prepared_ = std::make_unique<PreparedSpec>(spec_);
    database_ = Instance(&spec_->catalog());
    v1_ = spec_->symbols().Intern("v1");
    database_.relation("d").Insert({v1_});
  }

  Configuration StepWith(const Configuration& from, const InputChoice& choice) {
    Configuration config = from;
    std::vector<SymbolId> domain = prepared_->EvaluationDomain(config);
    prepared_->ApplyInput(choice, domain, &config);
    return prepared_->Advance(config, domain);
  }

  InputChoice Pick(const char* go_value, bool with_i) {
    InputChoice choice;
    choice[spec_->catalog().Find("go")] = {spec_->symbols().Intern(go_value)};
    if (with_i) choice[spec_->catalog().Find("i")] = {v1_};
    return choice;
  }

  ParseResult result_;
  WebAppSpec* spec_ = nullptr;
  std::unique_ptr<PreparedSpec> prepared_;
  Instance database_;
  SymbolId v1_ = kInvalidSymbol;
};

TEST_F(SemanticsTest, InsertDeleteConflictIsNoOp) {
  Configuration c0 = prepared_->MakeInitial(database_);
  // `both` starts absent; flipping (insert+delete simultaneously) must
  // leave it absent.
  Configuration c1 = StepWith(c0, Pick("flip", /*with_i=*/true));
  EXPECT_FALSE(c1.data.relation("both").Contains({v1_}));
  // But the plain insert rule fired.
  EXPECT_TRUE(c1.data.relation("s").Contains({v1_}));
  // Seed `both` via direct state surgery, then flip again: still present.
  c1.data.relation("both").Insert({v1_});
  Configuration c2 = StepWith(c1, Pick("flip", /*with_i=*/true));
  EXPECT_TRUE(c2.data.relation("both").Contains({v1_}))
      << "conflicting insert+delete must not remove the tuple";
}

TEST_F(SemanticsTest, AmbiguousTargetsMeanNoTransition) {
  Configuration c0 = prepared_->MakeInitial(database_);
  Configuration c1 = StepWith(c0, Pick("two", /*with_i=*/false));
  EXPECT_EQ(c1.page, spec_->PageIndex("P"))
      << "two true target conditions: stay on the page";
}

TEST_F(SemanticsTest, NoSatisfiedTargetMeansNoTransition) {
  Configuration c0 = prepared_->MakeInitial(database_);
  Configuration c1 = StepWith(c0, Pick("none", /*with_i=*/false));
  EXPECT_EQ(c1.page, spec_->PageIndex("P"));
}

TEST_F(SemanticsTest, PreviousInputsShiftByOneStep) {
  Configuration c0 = prepared_->MakeInitial(database_);
  EXPECT_TRUE(c0.previous.relation("i").empty());
  Configuration c1 = StepWith(c0, Pick("flip", /*with_i=*/true));
  EXPECT_TRUE(c1.previous.relation("i").Contains({v1_}));
  EXPECT_TRUE(c1.data.relation("i").empty())
      << "the new step starts with no current input";
  Configuration c2 = StepWith(c1, Pick("none", /*with_i=*/false));
  EXPECT_TRUE(c2.previous.relation("i").empty())
      << "previous inputs reflect only the immediately preceding step";
}

TEST_F(SemanticsTest, OptionsComeFromTheDatabase) {
  Configuration c0 = prepared_->MakeInitial(database_);
  std::vector<SymbolId> domain = prepared_->EvaluationDomain(c0);
  InputOptions options = prepared_->ComputeOptions(c0, domain);
  RelationId i = spec_->catalog().Find("i");
  ASSERT_EQ(options[i].size(), 1u);
  EXPECT_EQ(options[i][0], Tuple{v1_});
  RelationId go = spec_->catalog().Find("go");
  EXPECT_EQ(options[go].size(), 3u);
}

TEST_F(SemanticsTest, MakeInitialCopiesOnlyDatabaseRelations) {
  Instance seeded = database_;
  seeded.relation("s").Insert({v1_});  // must be ignored
  Configuration c0 = prepared_->MakeInitial(seeded);
  EXPECT_TRUE(c0.data.relation("s").empty());
  EXPECT_TRUE(c0.data.relation("d").Contains({v1_}));
  EXPECT_EQ(c0.page, spec_->home_page());
}

TEST(SiteGraphTest, ExportsNodesAndEdges) {
  ParseResult r = ParseSpec(R"(
app g
input i(x)
home A
page A {
  input i
  rule i(x) <- x = "go"
  target B <- i("go")
}
page B {
  input i
  rule i(x) <- x = "back"
  target A <- i("back")
}
page C { }
)");
  ASSERT_TRUE(r.ok()) << r.ErrorText();
  std::string dot = SiteGraphDot(*r.spec);
  EXPECT_NE(dot.find("A -> B"), std::string::npos);
  EXPECT_NE(dot.find("B -> A"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
  std::vector<std::string> unreachable = UnreachablePages(*r.spec);
  ASSERT_EQ(unreachable.size(), 1u);
  EXPECT_EQ(unreachable[0], "C");
}

}  // namespace
}  // namespace wave
