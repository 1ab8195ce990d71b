// Parser tests: lexing, spec parsing, property parsing, and diagnostics.
#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "apps/apps.h"
#include "parser/lexer.h"
#include "parser/parser.h"

namespace wave {
namespace {

TEST(LexerTest, TokenizesPunctuationAndIdents) {
  std::vector<Token> tokens = Tokenize("rule R(x) <- x = \"a\" -> | & !");
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kIdent, TokenKind::kIdent, TokenKind::kLParen,
                TokenKind::kIdent, TokenKind::kRParen, TokenKind::kArrowLeft,
                TokenKind::kIdent, TokenKind::kEquals, TokenKind::kString,
                TokenKind::kArrowRight, TokenKind::kPipe, TokenKind::kAmp,
                TokenKind::kBang, TokenKind::kEnd}));
}

TEST(LexerTest, TracksLineAndColumn) {
  std::vector<Token> tokens = Tokenize("a\n  bb");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[1].column, 3);
}

TEST(LexerTest, CommentsAreSkipped) {
  std::vector<Token> tokens = Tokenize("a # comment til eol\nb");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(LexerTest, UnterminatedStringIsAnError) {
  std::vector<Token> tokens = Tokenize("\"oops");
  // The error token is followed by a terminating kEnd so parsers always
  // see a finite stream.
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[tokens.size() - 2].kind, TokenKind::kError);
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

constexpr char kMinimalSpec[] = R"(
app demo
database d(a, b)
state s(a)
input i(x)
inputconst t
action act(a)
home P1
page P1 {
  input i
  input t
  rule i(x) <- exists b: d(x, b)
  state +s(x) <- i(x)
  action act(x) <- i(x)
  target P2 <- exists x: i(x)
  target P1 <- true
}
page P2 {
  input i
  rule i(x) <- exists b: d(x, b)
  target P1 <- exists x: i(x)
}
property prop1 type T9 expect true { F [at P1] }
property prop2 expect false { forall v: G [!s(v)] }
)";

TEST(ParserTest, ParsesMinimalSpec) {
  ParseResult result = ParseSpec(kMinimalSpec);
  ASSERT_TRUE(result.ok()) << result.ErrorText();
  EXPECT_EQ(result.spec->name, "demo");
  EXPECT_EQ(result.spec->num_pages(), 2);
  EXPECT_EQ(result.spec->home_page(), result.spec->PageIndex("P1"));
  ASSERT_EQ(result.properties.size(), 2u);
  EXPECT_EQ(result.properties[0].property.name, "prop1");
  EXPECT_EQ(result.properties[0].property.type_code, "T9");
  EXPECT_TRUE(result.properties[0].expected);
  EXPECT_FALSE(result.properties[1].expected);
  EXPECT_EQ(result.properties[1].property.forall_vars,
            (std::vector<std::string>{"v"}));
  const PageSchema& p1 = result.spec->page(result.spec->PageIndex("P1"));
  EXPECT_EQ(p1.inputs.size(), 2u);
  EXPECT_EQ(p1.input_rules.size(), 1u);
  EXPECT_EQ(p1.state_rules.size(), 1u);
  EXPECT_EQ(p1.action_rules.size(), 1u);
  EXPECT_EQ(p1.target_rules.size(), 2u);
}

TEST(ParserTest, ForwardPageReferencesResolve) {
  // P1's target names P2 before P2 is declared — must resolve.
  ParseResult result = ParseSpec(kMinimalSpec);
  ASSERT_TRUE(result.ok());
  const PageSchema& p1 = result.spec->page(result.spec->PageIndex("P1"));
  EXPECT_EQ(p1.target_rules[0].target_page, result.spec->PageIndex("P2"));
}

TEST(ParserTest, ReportsUndeclaredRelation) {
  ParseResult result = ParseSpec(R"(
app x
home P
page P { target P <- nosuch("a") }
)");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.ErrorText().find("nosuch"), std::string::npos);
}

TEST(ParserTest, ReportsArityMismatch) {
  ParseResult result = ParseSpec(R"(
app x
database d(a, b)
home P
page P { target P <- exists q: d(q) }
)");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.ErrorText().find("arity"), std::string::npos);
}

TEST(ParserTest, ReportsUnknownTargetPage) {
  ParseResult result = ParseSpec(R"(
app x
input i(x)
home P
page P {
  input i
  rule i(x) <- x = "a"
  target QQQ <- exists x: i(x)
}
)");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.ErrorText().find("QQQ"), std::string::npos);
}

TEST(ParserTest, ReportsUnsafeRule) {
  // Head variable y unconstrained by the body.
  ParseResult result = ParseSpec(R"(
app x
database d(a)
state s(a, b)
input i(x)
home P
page P {
  input i
  rule i(x) <- d(x)
  state +s(x, y) <- i(x)
}
)");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.ErrorText().find("unconstrained"), std::string::npos);
}

TEST(ParserTest, ReportsOptionRuleReadingCurrentInput) {
  ParseResult result = ParseSpec(R"(
app x
input i(x)
input j(x)
home P
page P {
  input i
  input j
  rule i(x) <- j(x)
  rule j(x) <- x = "a"
}
)");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.ErrorText().find("prev"), std::string::npos);
}

TEST(ParserTest, PrevAtomsParse) {
  ParseResult result = ParseSpec(R"(
app x
input i(x)
home P
page P {
  input i
  rule i(x) <- prev i(x) | x = "seed"
  target P <- true
}
)");
  EXPECT_TRUE(result.ok()) << result.ErrorText();
}

TEST(ParserTest, RecoverySurfacesMultipleErrors) {
  ParseResult result = ParseSpec(R"(
app x
database d(a
state s(b)
home NOPAGE
)");
  EXPECT_FALSE(result.ok());
  EXPECT_GE(result.errors.size(), 2u);
}

TEST(ParserTest, ParsePropertiesAgainstExistingSpec) {
  ParseResult base = ParseSpec(kMinimalSpec);
  ASSERT_TRUE(base.ok());
  ParseResult extra = ParseProperties(
      "property later expect true { G ([at P1] -> X ([at P1] | [at P2])) }",
      base.spec.get());
  ASSERT_TRUE(extra.ok()) << extra.ErrorText();
  ASSERT_EQ(extra.properties.size(), 1u);
  EXPECT_EQ(extra.properties[0].property.name, "later");
}

TEST(ParserTest, ParseSingleFormula) {
  ParseResult base = ParseSpec(kMinimalSpec);
  ASSERT_TRUE(base.ok());
  std::vector<std::string> errors;
  FormulaPtr f = ParseFormula("exists x: i(x) & d(x, \"b\")",
                              base.spec.get(), &errors);
  ASSERT_NE(f, nullptr) << (errors.empty() ? "" : errors[0]);
  EXPECT_EQ(f->kind(), Formula::Kind::kExists);
  FormulaPtr bad = ParseFormula("exists x:", base.spec.get(), &errors);
  EXPECT_EQ(bad, nullptr);
  EXPECT_FALSE(errors.empty());
}

TEST(ParserTest, LtlPrecedenceAndTemporalOperators) {
  ParseResult base = ParseSpec(kMinimalSpec);
  ASSERT_TRUE(base.ok());
  ParseResult extra = ParseProperties(R"(
property mix expect false {
  [at P1] U [at P2] -> G (F [at P1] | X ! [at P2]) & ([s("a")] B [act("b")])
}
)",
                                      base.spec.get());
  ASSERT_TRUE(extra.ok()) << extra.ErrorText();
  const LtlPtr& body = extra.properties[0].property.body;
  // Top level must be the implication.
  EXPECT_EQ(body->kind(), LtlFormula::Kind::kImplies);
  EXPECT_EQ(body->left()->kind(), LtlFormula::Kind::kU);
}

// --- formula depth ----------------------------------------------------------

std::string Repeat(const std::string& text, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) out += text;
  return out;
}

/// `count` copies of `operand` joined by `op`.
std::string Chain(const std::string& operand, const std::string& op,
                  int count) {
  return operand + Repeat(op + operand, count - 1);
}

/// One way to nest a formula: its text at a given depth.
struct DepthShape {
  const char* name;
  std::string (*text)(int depth);
};

// FO shapes: an atom is one level.
const DepthShape kFoShapes[] = {
    {"not", [](int d) { return Repeat("!", d - 1) + "at P1"; }},
    {"parens",
     [](int d) { return Repeat("(", d - 1) + "at P1" + Repeat(")", d - 1); }},
    {"and", [](int d) { return Chain("at P1", " & ", d); }},
    {"or", [](int d) { return Chain("at P1", " | ", d); }},
    {"implies", [](int d) { return Chain("at P1", " -> ", d); }},
    {"exists", [](int d) { return Repeat("exists x: ", d - 1) + "i(x)"; }},
};

// LTL shapes: a bracketed component holding an atom is two levels.
const DepthShape kLtlShapes[] = {
    {"not", [](int d) { return Repeat("! ", d - 2) + "[at P1]"; }},
    {"X", [](int d) { return Repeat("X ", d - 2) + "[at P1]"; }},
    {"G", [](int d) { return Repeat("G ", d - 2) + "[at P1]"; }},
    {"F", [](int d) { return Repeat("F ", d - 2) + "[at P1]"; }},
    {"parens",
     [](int d) {
       return Repeat("(", d - 2) + "[at P1]" + Repeat(")", d - 2);
     }},
    {"and", [](int d) { return Chain("[at P1]", " & ", d - 1); }},
    {"or", [](int d) { return Chain("[at P1]", " | ", d - 1); }},
    {"implies", [](int d) { return Chain("[at P1]", " -> ", d - 1); }},
    {"until", [](int d) { return Chain("[at P1]", " U ", d - 1); }},
    {"before", [](int d) { return Chain("[at P1]", " B ", d - 1); }},
    {"component", [](int d) { return "[" + Repeat("!", d - 2) + "at P1]"; }},
};

/// A positioned depth-limit diagnostic: "line:col: formula is nested…".
bool IsDepthError(const std::string& error) {
  static const std::regex kPattern(
      "[0-9]+:[0-9]+: formula is nested more than 1000 levels deep");
  return std::regex_match(error, kPattern);
}

TEST(ParserDepthTest, FoFormulasParseAtTheLimitAndFailPastIt) {
  ASSERT_EQ(kMaxFormulaDepth, 1000);
  ParseResult base = ParseSpec(kMinimalSpec);
  ASSERT_TRUE(base.ok());
  for (const DepthShape& shape : kFoShapes) {
    SCOPED_TRACE(shape.name);
    std::vector<std::string> errors;
    EXPECT_NE(ParseFormula(shape.text(kMaxFormulaDepth), base.spec.get(),
                           &errors),
              nullptr);
    EXPECT_TRUE(errors.empty()) << errors.front();
    errors.clear();
    EXPECT_EQ(ParseFormula(shape.text(kMaxFormulaDepth + 1), base.spec.get(),
                           &errors),
              nullptr);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_TRUE(IsDepthError(errors[0])) << errors[0];
  }
}

TEST(ParserDepthTest, PropertiesParseAtTheLimitAndFailPastIt) {
  ParseResult base = ParseSpec(kMinimalSpec);
  ASSERT_TRUE(base.ok());
  for (const DepthShape& shape : kLtlShapes) {
    SCOPED_TRACE(shape.name);
    ParseResult at = ParseProperties(
        "property deep {\n" + shape.text(kMaxFormulaDepth) + "\n}",
        base.spec.get());
    EXPECT_TRUE(at.ok()) << at.ErrorText();
    ParseResult past = ParseProperties(
        "property deep {\n" + shape.text(kMaxFormulaDepth + 1) + "\n}",
        base.spec.get());
    ASSERT_EQ(past.errors.size(), 1u) << past.ErrorText();
    EXPECT_TRUE(IsDepthError(past.errors[0])) << past.errors[0];
    EXPECT_TRUE(past.properties.empty());
  }
}

TEST(ParserDepthTest, RuleBodiesAndTargetConditionsAreCapped) {
  // 30,000 parentheses once overflowed the parser's stack.
  const std::string deep =
      Repeat("(", 30000) + "exists b: d(x, b)" + Repeat(")", 30000);
  std::string rule_spec = kMinimalSpec;
  rule_spec.replace(rule_spec.find("exists b: d(x, b)"), 17, deep);
  ParseResult rule = ParseSpec(rule_spec);
  ASSERT_EQ(rule.errors.size(), 1u) << rule.ErrorText();
  EXPECT_TRUE(IsDepthError(rule.errors[0])) << rule.errors[0];
  std::string target_spec = kMinimalSpec;
  target_spec.replace(target_spec.find("P1 <- true"), 10,
                      "P1 <- " + Chain("true", " & ", 30000));
  ParseResult target = ParseSpec(target_spec);
  ASSERT_EQ(target.errors.size(), 1u) << target.ErrorText();
  EXPECT_TRUE(IsDepthError(target.errors[0])) << target.errors[0];
}

TEST(ParserTest, AppsSpecsRoundTripThroughTheParser) {
  // The embedded app sources are themselves parser tests.
  for (const char* text :
       {E1SpecText(), E2SpecText(), E3SpecText(), E4SpecText()}) {
    ParseResult result = ParseSpec(text);
    EXPECT_TRUE(result.ok()) << result.ErrorText();
  }
}

}  // namespace
}  // namespace wave
