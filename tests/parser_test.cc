// Parser tests: lexing, spec parsing, property parsing, and diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <regex>
#include <sstream>
#include <string>

#include "apps/apps.h"
#include "common/fingerprint.h"
#include "common/io.h"
#include "common/strings.h"
#include "obs/json.h"
#include "parser/lexer.h"
#include "parser/parser.h"
#include "testing/rng.h"
#include "testing/spec_gen.h"

namespace wave {
namespace {

/// Pulls every token of `text` up to and including the first kEnd.
std::vector<Token> Drain(std::string_view text) {
  Lexer lexer(text);
  std::vector<Token> tokens;
  do {
    tokens.push_back(lexer.Next());
  } while (tokens.back().kind != TokenKind::kEnd);
  return tokens;
}

TEST(LexerTest, TokenizesPunctuationAndIdents) {
  std::vector<Token> tokens = Drain("rule R(x) <- x = \"a\" -> | & !");
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kIdent, TokenKind::kIdent, TokenKind::kLParen,
                TokenKind::kIdent, TokenKind::kRParen, TokenKind::kArrowLeft,
                TokenKind::kIdent, TokenKind::kEquals, TokenKind::kString,
                TokenKind::kArrowRight, TokenKind::kPipe, TokenKind::kAmp,
                TokenKind::kBang, TokenKind::kEnd}));
  // Names and string values view the source; a string drops its quotes.
  EXPECT_EQ(tokens[0].text, "rule");
  EXPECT_EQ(tokens[8].text, "a");
}

TEST(LexerTest, TracksLineAndColumn) {
  std::vector<Token> tokens = Drain("a\n  bb");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[1].column, 3);
}

TEST(LexerTest, CommentsAreSkipped) {
  std::vector<Token> tokens = Drain("a # comment til eol\nb");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(LexerTest, UnterminatedStringIsAnError) {
  std::vector<Token> tokens = Drain("\"oops");
  // The error token is followed by a terminating kEnd so parsers always
  // see a finite stream.
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kError);
  EXPECT_EQ(LexErrorMessage(tokens[0]), "unterminated string literal");
  EXPECT_EQ(tokens[1].kind, TokenKind::kEnd);
}

TEST(LexerTest, EveryTokenAfterALexicalErrorIsEndAtItsPosition) {
  // An unterminated string ends the input where its scan stopped (at the
  // newline); an unexpected character ends it at the character.
  struct Case {
    const char* text;
    int error_column;
    int end_column;
    const char* message;
  };
  const Case cases[] = {
      {"a \"oops\nb c", 3, 8, "unterminated string literal"},
      {"a $ b c", 3, 3, "unexpected character '$'"},
  };
  for (const Case& c : cases) {
    Lexer lexer(c.text);
    EXPECT_EQ(lexer.Next().kind, TokenKind::kIdent);
    Token error = lexer.Next();
    EXPECT_EQ(error.kind, TokenKind::kError) << c.text;
    EXPECT_EQ(error.column, c.error_column) << c.text;
    EXPECT_EQ(LexErrorMessage(error), c.message);
    for (int i = 0; i < 3; ++i) {
      Token end = lexer.Next();
      EXPECT_EQ(end.kind, TokenKind::kEnd) << c.text;
      EXPECT_EQ(end.line, 1) << c.text;
      EXPECT_EQ(end.column, c.end_column) << c.text;
    }
  }
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

TEST(ParserTest, CutStringInAPropertyIsReported) {
  // The lexer's own message comes first, at the error's position, then
  // what the parser expected there.
  ParseResult result = ParseSpec(R"(app x
home P
page P { target P <- true }
property q desc "cut off)");
  EXPECT_EQ(result.errors,
            (std::vector<std::string>{
                "4:17: unterminated string literal",
                "4:17: expected a string after 'desc'",
                "4:17: expected '{', found lexical error"}));
}

TEST(ParserTest, UnexpectedCharacterInAPageIsReportedOnce) {
  ParseResult result = ParseSpec(R"(app x
database d(a)
home P
page P {
  target P <- d($)
}
)");
  ASSERT_FALSE(result.errors.empty());
  EXPECT_EQ(result.errors[0], "5:17: unexpected character '$'");
  EXPECT_EQ(std::count(result.errors.begin(), result.errors.end(),
                       result.errors[0]),
            1);
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

// --- parse pins ---------------------------------------------------------------

std::string TermText(const Term& t, const SymbolTable& symbols) {
  return t.is_variable() ? t.variable : "\"" + symbols.Name(t.constant) + "\"";
}

std::string HeadText(const WebAppSpec& spec, RelationId relation,
                     const std::vector<Term>& head) {
  std::vector<std::string> terms;
  for (const Term& t : head) terms.push_back(TermText(t, spec.symbols()));
  return std::to_string(relation) + "(" + Join(terms, ",") + ")";
}

/// Everything a parse produces, as text: the app name, the catalog in
/// declaration order, each page's inputs and rules (bodies through
/// `Formula::ToString`), the home page, each property (through
/// `Property::ToString`) and the symbol table in id order.
std::string DescribeParse(const ParseResult& result) {
  const WebAppSpec& spec = *result.spec;
  const SymbolTable& symbols = spec.symbols();
  std::string out = "app " + spec.name + "\n";
  for (RelationId id = 0; id < spec.catalog().size(); ++id) {
    const RelationSchema& s = spec.catalog().schema(id);
    out += "relation " + s.name + " " + RelationKindName(s.kind) + "/" +
           std::to_string(s.arity) + " (" + Join(s.attributes, ",") + ")\n";
  }
  for (int p = 0; p < spec.num_pages(); ++p) {
    const PageSchema& page = spec.page(p);
    out += "page " + page.name + "\n";
    for (RelationId id : page.inputs) {
      out += "  input " + std::to_string(id) + "\n";
    }
    for (const InputRule& r : page.input_rules) {
      out += "  rule " + HeadText(spec, r.relation, r.head) + " <- " +
             r.body->ToString(symbols) + "\n";
    }
    for (const StateRule& r : page.state_rules) {
      out += std::string("  state ") + (r.insert ? "+" : "-") +
             HeadText(spec, r.relation, r.head) + " <- " +
             r.body->ToString(symbols) + "\n";
    }
    for (const ActionRule& r : page.action_rules) {
      out += "  action " + HeadText(spec, r.relation, r.head) + " <- " +
             r.body->ToString(symbols) + "\n";
    }
    for (const TargetRule& r : page.target_rules) {
      out += "  target " + std::to_string(r.target_page) + " <- " +
             r.condition->ToString(symbols) + "\n";
    }
  }
  out += "home " + std::to_string(spec.home_page()) + "\n";
  for (const ParsedProperty& p : result.properties) {
    out += "property " + p.property.name + " type " + p.property.type_code +
           " desc " + p.property.description + " expect " +
           (p.has_expected ? (p.expected ? "true" : "false") : "-") + ": " +
           p.property.ToString(symbols) + "\n";
  }
  for (SymbolId id = 0; id < symbols.size(); ++id) {
    out += "symbol " + symbols.Name(id) + "\n";
  }
  return out;
}

/// One input of tests/golden/parse_pins.json.
struct PinnedText {
  std::string name;
  std::string text;
};

std::string ReadRepoFile(const std::string& relative) {
  StatusOr<std::string> text =
      ReadFileToString(std::string(WAVE_REPO_ROOT) + "/" + relative);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return text.ok() ? *text : "";
}

/// The pinned inputs: every spec under specs/ and tests/data/, generated
/// cases (seeds 1..200) at the fuzz defaults and at perfbench's frozen
/// shape, then malformed copies of E1-E4: each truncated at 64 evenly
/// spaced offsets, 200 seeded single-byte deletions or duplications, and
/// 200 seeded insertions of one of `"$(}`.
std::vector<PinnedText> PinnedTexts() {
  std::vector<PinnedText> out;
  const char* apps[] = {"e1_shopping", "e2_motogp", "e3_airline",
                        "e4_bookstore"};
  std::vector<std::string> app_texts;
  for (const char* app : apps) {
    app_texts.push_back(ReadRepoFile(std::string("specs/") + app + ".spec"));
    out.push_back({std::string("specs/") + app, app_texts.back()});
  }
  for (const char* data : {"deep_chain", "nested_implications"}) {
    out.push_back({std::string("tests/data/") + data,
                   ReadRepoFile(std::string("tests/data/") + data + ".spec")});
  }
  testing::GeneratorConfig frozen;
  frozen.max_pages = 6;
  frozen.max_constants = 4;
  frozen.max_property_depth = 4;
  const std::pair<const char*, testing::GeneratorConfig> configs[] = {
      {"fuzz", testing::GeneratorConfig{}}, {"frozen", frozen}};
  for (const auto& [prefix, config] : configs) {
    for (uint64_t seed = 1; seed <= 200; ++seed) {
      out.push_back({std::string(prefix) + "/" + std::to_string(seed),
                     testing::GenerateCase(seed, config).Text()});
    }
  }
  for (size_t a = 0; a < app_texts.size(); ++a) {
    const std::string& text = app_texts[a];
    const std::string app = "e" + std::to_string(a + 1);
    for (size_t k = 0; k < 64; ++k) {
      size_t at = text.size() * k / 64;
      out.push_back({app + "/truncate/" + std::to_string(at),
                     text.substr(0, at)});
    }
    testing::FuzzRng rng(1000 + a);
    for (int i = 0; i < 200; ++i) {
      size_t at = rng.Below(text.size());
      bool drop = rng.Coin();
      std::string edited = text;
      if (drop) {
        edited.erase(at, 1);
      } else {
        edited.insert(at, 1, text[at]);
      }
      out.push_back({app + (drop ? "/delete/" : "/duplicate/") +
                         std::to_string(at),
                     std::move(edited)});
    }
    for (int i = 0; i < 200; ++i) {
      size_t at = rng.Below(text.size() + 1);
      char c = "\"$(}"[rng.Below(4)];
      std::string edited = text;
      edited.insert(at, 1, c);
      out.push_back({app + "/insert/" + std::to_string(at) + "/" + c,
                     std::move(edited)});
    }
  }
  return out;
}

/// One pin: the input's name, its exact error list and a fingerprint of
/// `DescribeParse` (the spec a failed parse leaves behind included).
obs::Json ParsePin(const std::string& name, const ParseResult& result) {
  obs::Json pin = obs::Json::Object();
  pin.Set("name", obs::Json::Str(name));
  obs::Json errors = obs::Json::Array();
  for (const std::string& e : result.errors) errors.Append(obs::Json::Str(e));
  pin.Set("errors", std::move(errors));
  FingerprintBuilder fp;
  fp.AddString(DescribeParse(result));
  pin.Set("fingerprint", obs::Json::Str(fp.Finish().ToHex()));
  return pin;
}

std::string ParsePinsPath() {
  return std::string(WAVE_REPO_ROOT) + "/tests/golden/parse_pins.json";
}

/// Every pinned input parses to the pinned errors and the pinned spec.
/// Run the test binary with WAVE_REGOLD set to rewrite
/// tests/golden/parse_pins.json after a deliberate change to the language.
TEST(ParsePinsTest, ParsesMatchPins) {
  std::vector<PinnedText> texts = PinnedTexts();
  ASSERT_EQ(texts.size(), 6u + 400u + 4u * 464u);
  if (std::getenv("WAVE_REGOLD") != nullptr) {
    std::string bytes;
    for (const PinnedText& t : texts) {
      bytes += ParsePin(t.name, ParseSpec(t.text)).Dump() + "\n";
    }
    Status written = AtomicWriteFile(ParsePinsPath(), bytes);
    ASSERT_TRUE(written.ok()) << written.ToString();
    return;
  }
  StatusOr<std::string> golden = ReadFileToString(ParsePinsPath());
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  std::istringstream lines(*golden);
  std::string line;
  size_t row = 0;
  for (; row < texts.size() && std::getline(lines, line); ++row) {
    ParseResult result = ParseSpec(texts[row].text);
    std::string pin = ParsePin(texts[row].name, result).Dump();
    if (pin != line) {
      // The first differing input only: one change usually moves many.
      ADD_FAILURE() << "row " << row << " (" << texts[row].name
                    << ")\n  pinned: " << line << "\n  parsed: " << pin
                    << "\nparse:\n" << DescribeParse(result);
      return;
    }
  }
  EXPECT_EQ(row, texts.size()) << "pins file is short";
  EXPECT_FALSE(std::getline(lines, line)) << "pins file is long";
}

}  // namespace
}  // namespace wave
