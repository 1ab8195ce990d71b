#include "parser/parser.h"

#include <algorithm>

#include "common/check.h"
#include "common/io.h"
#include "common/strings.h"
#include "parser/lexer.h"

namespace wave {

std::string ParseResult::ErrorText() const { return Join(errors, "\n"); }

Status ParseResult::status() const {
  if (ok()) return Status::Ok();
  return Status::InvalidArgument(ErrorText(), WAVE_LOC);
}

namespace {

/// "line:col: message", the form of every parse error.
std::string Positioned(int line, int column, std::string_view message) {
  return std::to_string(line) + ":" + std::to_string(column) + ": " +
         std::string(message);
}

/// Recursive-descent parser pulling tokens from a `Lexer`, one token of
/// lookahead. One instance parses one source text, which must outlive it;
/// results accumulate into the referenced spec / property list / error
/// list.
class Parser {
 public:
  Parser(std::string_view text, WebAppSpec* spec,
         std::vector<ParsedProperty>* properties,
         std::vector<std::string>* errors)
      : lexer_(text), spec_(spec), properties_(properties), errors_(errors) {
    Lex();
  }

  /// Top level: a sequence of declarations, pages and properties.
  void ParseFile() {
    while (!AtEnd()) {
      int64_t before = consumed_;
      if (!ParseTopLevel()) SkipToTopLevel();
      if (consumed_ == before) Advance();  // guarantee progress
    }
    ResolveDeferred();
  }

  /// `issue` positioned at the end of input — where whole-spec diagnostics
  /// (missing pages, unset home page) are anchored, so every error a
  /// ParseResult carries is positioned. Valid once `ParseFile` returns.
  std::string AtEndOfInput(std::string_view issue) const {
    return Positioned(token_.line, token_.column, issue);
  }

  /// Parses `property` blocks only (pre-existing spec).
  void ParsePropertiesOnly() {
    while (!AtEnd()) {
      int64_t before = consumed_;
      if (PeekIdent("property")) {
        if (!ParseProperty()) SkipToTopLevel();
      } else {
        Error("expected 'property'");
        SkipToTopLevel();
      }
      if (consumed_ == before) Advance();  // guarantee progress
    }
    // The spec is complete here, so page atoms resolve immediately.
    CheckPendingPageAtoms();
  }

  /// Parses a single formula (whole input).
  FormulaPtr ParseSingleFormula() {
    FormulaPtr f = ParseFormula();
    if (f != nullptr && !AtEnd()) {
      Error("trailing input after formula");
      return nullptr;
    }
    return f;
  }

 private:
  // --- token plumbing -----------------------------------------------------
  const Token& Peek() const { return token_; }
  /// The token after the current one, lexed by a copy of the lexer.
  Token PeekSecond() const {
    Lexer ahead = lexer_;
    return ahead.Next();
  }
  bool AtEnd() const { return token_.kind == TokenKind::kEnd; }
  /// Pulls the next token into `token_`. A lexical error is reported here,
  /// once, at its position, wherever the parser meets it; what the parser
  /// expected there is reported after it.
  void Lex() {
    token_ = lexer_.Next();
    if (token_.kind == TokenKind::kError) Error(LexErrorMessage(token_));
  }
  /// Consumes the current token and returns it. At the end of input it
  /// stays at kEnd but still counts as consumed.
  Token Advance() {
    const Token current = token_;
    Lex();
    ++consumed_;
    return current;
  }

  bool PeekIs(TokenKind kind) const { return token_.kind == kind; }
  bool PeekIdent(std::string_view name) const {
    return token_.kind == TokenKind::kIdent && token_.text == name;
  }
  bool Eat(TokenKind kind) {
    if (!PeekIs(kind)) return false;
    Advance();
    return true;
  }
  bool EatIdent(std::string_view name) {
    if (!PeekIdent(name)) return false;
    Advance();
    return true;
  }

  void Error(std::string_view message) {
    errors_->push_back(Positioned(token_.line, token_.column, message));
  }

  // --- formula depth (kMaxFormulaDepth) --------------------------------------
  void DepthError() {
    Error("formula is nested more than " + std::to_string(kMaxFormulaDepth) +
          " levels deep");
  }

  /// Records `depth` as the depth of the formula about to be returned;
  /// false, with a positioned error, past the limit.
  bool SetDepth(int depth) {
    depth_ = depth;
    if (depth <= kMaxFormulaDepth) return true;
    DepthError();
    return false;
  }

  /// Runs `parse` for an operand one level further down. A level that
  /// cannot fit even an atom below it fails first, so the descent itself
  /// stays within the limit.
  template <typename ParseFn>
  auto Nested(ParseFn parse) -> decltype(parse()) {
    if (open_ + 2 > kMaxFormulaDepth) {
      DepthError();
      return nullptr;
    }
    ++open_;
    auto result = parse();
    --open_;
    return result;
  }

  /// Eats a `kind` token; otherwise reports that `what` was expected. The
  /// message is built only then.
  bool Expect(TokenKind kind, const char* what) {
    if (Eat(kind)) return true;
    std::string message = std::string("expected ") + what + ", found " +
                          TokenKindName(token_.kind);
    if (token_.kind == TokenKind::kIdent) {
      message += " '" + std::string(token_.text) + "'";
    }
    Error(message);
    return false;
  }

  /// The next identifier, viewing the source text; empty, with an error
  /// saying that `what` was expected, if the next token is not one.
  std::string_view ExpectIdent(const char* what) {
    if (PeekIs(TokenKind::kIdent)) return Advance().text;
    Error(std::string("expected ") + what);
    return {};
  }

  /// True if the current token is an identifier spelled as one of `words`.
  template <size_t N>
  bool PeekOneOf(const std::string_view (&words)[N]) const {
    return PeekIs(TokenKind::kIdent) &&
           std::find(words, words + N, token_.text) != words + N;
  }

  /// Error recovery: skip to a token that can start a top-level statement.
  void SkipToTopLevel() {
    static constexpr std::string_view kStarters[] = {
        "app",    "database", "state", "input",   "inputconst",
        "action", "home",     "page",  "property"};
    while (!AtEnd()) {
      if (PeekOneOf(kStarters)) return;
      Advance();
    }
  }

  /// Skip within a page/property block to the next statement or '}'.
  void SkipToBlockStatement() {
    static constexpr std::string_view kStarters[] = {"input", "rule", "state",
                                                     "action", "target"};
    int depth = 0;
    while (!AtEnd()) {
      if (depth == 0 && PeekIs(TokenKind::kRBrace)) return;
      if (depth == 0 && PeekOneOf(kStarters)) return;
      if (PeekIs(TokenKind::kLBrace)) ++depth;
      if (PeekIs(TokenKind::kRBrace)) --depth;
      Advance();
    }
  }

  // --- top level ------------------------------------------------------------
  bool ParseTopLevel() {
    if (PeekIs(TokenKind::kError)) {
      Advance();  // reported when it was lexed
      return false;
    }
    if (EatIdent("app")) {
      spec_->name = ExpectIdent("application name");
      return true;
    }
    static constexpr std::string_view kRelationKinds[] = {
        "database", "state", "input", "inputconst", "action"};
    if (PeekOneOf(kRelationKinds)) return ParseRelationDecl();
    if (EatIdent("home")) {
      home_page_name_ = ExpectIdent("home page name");
      home_line_ = Peek().line;
      return !home_page_name_.empty();
    }
    if (PeekIdent("page")) return ParsePage();
    if (PeekIdent("property")) return ParseProperty();
    Error("expected a declaration ('app', 'database', 'state', 'input', "
          "'inputconst', 'action', 'home', 'page' or 'property')");
    return false;
  }

  bool ParseRelationDecl() {
    const std::string_view kind_word = Advance().text;
    RelationKind kind = RelationKind::kDatabase;
    if (kind_word == "state") kind = RelationKind::kState;
    if (kind_word == "input") kind = RelationKind::kInput;
    if (kind_word == "inputconst") kind = RelationKind::kInputConstant;
    if (kind_word == "action") kind = RelationKind::kAction;

    const std::string_view name = ExpectIdent("relation name");
    if (name.empty()) return false;
    if (spec_->catalog().Find(name) != kInvalidRelation) {
      Error("relation '" + std::string(name) + "' already declared");
      return false;
    }
    RelationSchema schema;
    schema.kind = kind;
    schema.name = name;
    if (kind == RelationKind::kInputConstant) {
      // Arity-1 by definition; no attribute list required.
      schema.arity = 1;
      if (Eat(TokenKind::kLParen)) {
        schema.attributes.emplace_back(ExpectIdent("attribute name"));
        Expect(TokenKind::kRParen, "')'");
      }
      spec_->catalog().Declare(std::move(schema));
      return true;
    }
    if (!Expect(TokenKind::kLParen, "'(' and attribute list")) return false;
    if (!PeekIs(TokenKind::kRParen)) {
      do {
        schema.attributes.emplace_back(ExpectIdent("attribute name"));
      } while (Eat(TokenKind::kComma));
    }
    if (!Expect(TokenKind::kRParen, "')'")) return false;
    schema.arity = static_cast<int>(schema.attributes.size());
    spec_->catalog().Declare(std::move(schema));
    return true;
  }

  // --- pages ------------------------------------------------------------------
  bool ParsePage() {
    EatIdent("page");
    const std::string_view name = ExpectIdent("page name");
    if (name.empty()) return false;
    if (spec_->PageIndex(name) != -1) {
      Error("page '" + std::string(name) + "' already declared");
      return false;
    }
    PageSchema page;
    page.name = name;
    int page_index = spec_->AddPage(std::move(page));
    if (!Expect(TokenKind::kLBrace, "'{'")) return false;
    while (!PeekIs(TokenKind::kRBrace) && !AtEnd()) {
      int64_t before = consumed_;
      if (!ParsePageStatement(page_index)) SkipToBlockStatement();
      if (consumed_ == before) Advance();  // guarantee progress
    }
    Expect(TokenKind::kRBrace, "'}'");
    return true;
  }

  PageSchema* MutablePage(int index) { return spec_->mutable_page(index); }

  bool ParsePageStatement(int page_index) {
    PageSchema* page = MutablePage(page_index);
    if (EatIdent("input")) {
      const std::string_view name = ExpectIdent("input relation name");
      RelationId id = spec_->catalog().Find(name);
      if (id == kInvalidRelation) {
        Error("undeclared input relation '" + std::string(name) + "'");
        return false;
      }
      page->inputs.push_back(id);
      return true;
    }
    if (EatIdent("rule")) {
      InputRule rule;
      if (!ParseRuleHead(&rule.relation, &rule.head)) return false;
      if (!Expect(TokenKind::kArrowLeft, "'<-'")) return false;
      rule.body = ParseFormula();
      if (rule.body == nullptr) return false;
      page->input_rules.push_back(std::move(rule));
      return true;
    }
    if (EatIdent("state")) {
      StateRule rule;
      if (Eat(TokenKind::kPlus)) {
        rule.insert = true;
      } else if (Eat(TokenKind::kMinus)) {
        rule.insert = false;
      } else {
        Error("state rule must start with '+' (insert) or '-' (delete)");
        return false;
      }
      if (!ParseRuleHead(&rule.relation, &rule.head)) return false;
      if (!Expect(TokenKind::kArrowLeft, "'<-'")) return false;
      rule.body = ParseFormula();
      if (rule.body == nullptr) return false;
      page->state_rules.push_back(std::move(rule));
      return true;
    }
    if (EatIdent("action")) {
      ActionRule rule;
      if (!ParseRuleHead(&rule.relation, &rule.head)) return false;
      if (!Expect(TokenKind::kArrowLeft, "'<-'")) return false;
      rule.body = ParseFormula();
      if (rule.body == nullptr) return false;
      page->action_rules.push_back(std::move(rule));
      return true;
    }
    if (EatIdent("target")) {
      const std::string_view target_name = ExpectIdent("target page name");
      if (target_name.empty()) return false;
      if (!Expect(TokenKind::kArrowLeft, "'<-'")) return false;
      FormulaPtr condition = ParseFormula();
      if (condition == nullptr) return false;
      deferred_targets_.push_back(
          {page_index, target_name, condition, Peek().line});
      return true;
    }
    Error("expected a page statement ('input', 'rule', 'state', 'action' "
          "or 'target')");
    return false;
  }

  bool ParseRuleHead(RelationId* relation, std::vector<Term>* head) {
    const std::string_view name = ExpectIdent("relation name");
    if (name.empty()) return false;
    *relation = spec_->catalog().Find(name);
    if (*relation == kInvalidRelation) {
      Error("undeclared relation '" + std::string(name) + "' in rule head");
      return false;
    }
    if (spec_->catalog().schema(*relation).arity == 0) {
      // Nullary heads may omit parentheses.
      if (Eat(TokenKind::kLParen)) Expect(TokenKind::kRParen, "')'");
      return true;
    }
    if (!Expect(TokenKind::kLParen, "'('")) return false;
    if (!ParseTerms(spec_->catalog().schema(*relation).arity, head)) {
      return false;
    }
    return Expect(TokenKind::kRParen, "')'");
  }

  // --- FO formulas ---------------------------------------------------------
  /// Comma-separated terms up to, not including, a ')'. `arity`, the
  /// count expected, sizes `out` once.
  bool ParseTerms(int arity, std::vector<Term>* out) {
    out->reserve(arity);
    if (PeekIs(TokenKind::kRParen)) return true;
    do {
      Term t;
      if (!ParseTerm(&t)) return false;
      out->push_back(std::move(t));
    } while (Eat(TokenKind::kComma));
    return true;
  }

  bool ParseTerm(Term* out) {
    if (PeekIs(TokenKind::kIdent)) {
      *out = Term::Var(std::string(Advance().text));
      return true;
    }
    if (PeekIs(TokenKind::kString)) {
      *out = Term::Const(spec_->symbols().Intern(Advance().text));
      return true;
    }
    Error("expected a term (variable or \"constant\")");
    return false;
  }

  FormulaPtr ParseFormula() { return ParseImplication(); }

  FormulaPtr ParseImplication() {
    FormulaPtr lhs = ParseDisjunction();
    if (lhs == nullptr) return nullptr;
    if (Eat(TokenKind::kArrowRight)) {
      const int lhs_depth = depth_;
      // right associative
      FormulaPtr rhs = Nested([&] { return ParseImplication(); });
      if (rhs == nullptr || !SetDepth(1 + std::max(lhs_depth, depth_))) {
        return nullptr;
      }
      return Formula::Implies(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  FormulaPtr ParseDisjunction() {
    FormulaPtr lhs = ParseConjunction();
    if (lhs == nullptr) return nullptr;
    while (Eat(TokenKind::kPipe)) {
      const int lhs_depth = depth_;
      FormulaPtr rhs = ParseConjunction();
      if (rhs == nullptr || !SetDepth(1 + std::max(lhs_depth, depth_))) {
        return nullptr;
      }
      lhs = Formula::Or(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  FormulaPtr ParseConjunction() {
    FormulaPtr lhs = ParseUnary();
    if (lhs == nullptr) return nullptr;
    while (Eat(TokenKind::kAmp)) {
      const int lhs_depth = depth_;
      FormulaPtr rhs = ParseUnary();
      if (rhs == nullptr || !SetDepth(1 + std::max(lhs_depth, depth_))) {
        return nullptr;
      }
      lhs = Formula::And(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  bool ParseVarList(std::vector<std::string>* vars) {
    do {
      const std::string_view v = ExpectIdent("variable name");
      if (v.empty()) return false;
      vars->emplace_back(v);
    } while (Eat(TokenKind::kComma));
    return Expect(TokenKind::kColon, "':'");
  }

  FormulaPtr ParseUnary() {
    if (Eat(TokenKind::kBang)) {
      FormulaPtr body = Nested([&] { return ParseUnary(); });
      if (body == nullptr || !SetDepth(depth_ + 1)) return nullptr;
      return Formula::Not(std::move(body));
    }
    if (EatIdent("exists")) {
      std::vector<std::string> vars;
      if (!ParseVarList(&vars)) return nullptr;
      FormulaPtr body = Nested([&] { return ParseImplication(); });
      if (body == nullptr || !SetDepth(depth_ + 1)) return nullptr;
      return Formula::Exists(std::move(vars), std::move(body));
    }
    if (EatIdent("forall")) {
      std::vector<std::string> vars;
      if (!ParseVarList(&vars)) return nullptr;
      FormulaPtr body = Nested([&] { return ParseImplication(); });
      if (body == nullptr || !SetDepth(depth_ + 1)) return nullptr;
      return Formula::Forall(std::move(vars), std::move(body));
    }
    if (Eat(TokenKind::kLParen)) {
      FormulaPtr inner = Nested([&] { return ParseImplication(); });
      if (inner == nullptr) return nullptr;
      if (!Expect(TokenKind::kRParen, "')'")) return nullptr;
      if (!SetDepth(depth_ + 1)) return nullptr;
      return inner;
    }
    depth_ = 1;  // an atom
    if (EatIdent("true")) return Formula::True();
    if (EatIdent("false")) return Formula::False();
    if (EatIdent("at")) {
      // The page may be declared later in the file; record the reference
      // and resolve it with the other deferred names at end of parse.
      int line = Peek().line;
      int column = Peek().column;
      const std::string_view page = ExpectIdent("page name");
      if (page.empty()) return nullptr;
      pending_page_atoms_.push_back({page, line, column});
      return Formula::Page(std::string(page));
    }
    if (EatIdent("prev")) {
      return ParseAtomOrEquality(/*previous=*/true);
    }
    return ParseAtomOrEquality(/*previous=*/false);
  }

  FormulaPtr ParseAtomOrEquality(bool previous) {
    // IDENT '(' -> relational atom; otherwise a term followed by '='.
    if (PeekIs(TokenKind::kIdent) &&
        PeekSecond().kind == TokenKind::kLParen) {
      const std::string_view relation = Advance().text;
      Advance();  // '('
      // Looked up first to size the argument list; an undeclared relation
      // is reported after the arguments.
      const RelationId id = spec_->catalog().Find(relation);
      std::vector<Term> args;
      if (!ParseTerms(id == kInvalidRelation
                          ? 0
                          : spec_->catalog().schema(id).arity,
                      &args) ||
          !Expect(TokenKind::kRParen, "')'")) {
        return nullptr;
      }
      if (id == kInvalidRelation) {
        Error("undeclared relation '" + std::string(relation) + "'");
        return nullptr;
      }
      if (spec_->catalog().schema(id).arity !=
          static_cast<int>(args.size())) {
        Error("atom " + std::string(relation) + "/" +
              std::to_string(args.size()) + " does not match declared arity " +
              std::to_string(spec_->catalog().schema(id).arity));
        return nullptr;
      }
      return Formula::Atom(std::string(relation), std::move(args), previous);
    }
    if (previous) {
      Error("'prev' must be followed by a relational atom");
      return nullptr;
    }
    Term lhs;
    if (!ParseTerm(&lhs)) return nullptr;
    if (!Expect(TokenKind::kEquals, "'=' (after a bare term)")) return nullptr;
    Term rhs;
    if (!ParseTerm(&rhs)) return nullptr;
    return Formula::Equals(std::move(lhs), std::move(rhs));
  }

  // --- properties --------------------------------------------------------------
  bool ParseProperty() {
    EatIdent("property");
    int name_line = Peek().line;
    int name_column = Peek().column;
    const std::string_view name = ExpectIdent("property name");
    if (name.empty()) return false;
    ParsedProperty parsed;
    parsed.property.name = name;
    while (true) {
      if (EatIdent("type")) {
        parsed.property.type_code = ExpectIdent("type code");
        continue;
      }
      if (EatIdent("expect")) {
        if (EatIdent("true")) {
          parsed.has_expected = true;
          parsed.expected = true;
        } else if (EatIdent("false")) {
          parsed.has_expected = true;
          parsed.expected = false;
        } else {
          Error("expected 'true' or 'false' after 'expect'");
        }
        continue;
      }
      if (EatIdent("desc")) {
        if (PeekIs(TokenKind::kString)) {
          parsed.property.description = Advance().text;
        } else {
          Error("expected a string after 'desc'");
        }
        continue;
      }
      break;
    }
    if (!Expect(TokenKind::kLBrace, "'{'")) return false;
    if (EatIdent("forall")) {
      do {
        const std::string_view v = ExpectIdent("variable name");
        if (v.empty()) return false;
        parsed.property.forall_vars.emplace_back(v);
      } while (Eat(TokenKind::kComma));
      if (!Expect(TokenKind::kColon, "':'")) return false;
    }
    parsed.property.body = ParseLtl();
    if (parsed.property.body == nullptr) return false;
    if (!Expect(TokenKind::kRBrace, "'}'")) return false;
    // Binding check (ISSUE 2): every free variable of the body must be
    // declared in the forall block — this used to abort inside the
    // verifier's Prepare phase instead of being a parse error.
    const std::vector<std::string>& declared = parsed.property.forall_vars;
    free_vars_.clear();
    parsed.property.body->AppendFreeVariables(&free_vars_);
    for (std::string_view v : free_vars_) {
      if (std::find(declared.begin(), declared.end(), v) == declared.end()) {
        errors_->push_back(Positioned(
            name_line, name_column,
            "property '" + parsed.property.name + "': free variable '" +
                std::string(v) + "' not bound by the forall block"));
      }
    }
    properties_->push_back(std::move(parsed));
    return true;
  }

  LtlPtr ParseLtl() { return ParseLtlImplication(); }

  LtlPtr ParseLtlImplication() {
    LtlPtr lhs = ParseLtlDisjunction();
    if (lhs == nullptr) return nullptr;
    if (Eat(TokenKind::kArrowRight)) {
      const int lhs_depth = depth_;
      LtlPtr rhs = Nested([&] { return ParseLtlImplication(); });
      if (rhs == nullptr || !SetDepth(1 + std::max(lhs_depth, depth_))) {
        return nullptr;
      }
      return LtlFormula::Implies(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  LtlPtr ParseLtlDisjunction() {
    LtlPtr lhs = ParseLtlConjunction();
    if (lhs == nullptr) return nullptr;
    while (Eat(TokenKind::kPipe)) {
      const int lhs_depth = depth_;
      LtlPtr rhs = ParseLtlConjunction();
      if (rhs == nullptr || !SetDepth(1 + std::max(lhs_depth, depth_))) {
        return nullptr;
      }
      lhs = LtlFormula::Or(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  LtlPtr ParseLtlConjunction() {
    LtlPtr lhs = ParseLtlTemporalBinary();
    if (lhs == nullptr) return nullptr;
    while (Eat(TokenKind::kAmp)) {
      const int lhs_depth = depth_;
      LtlPtr rhs = ParseLtlTemporalBinary();
      if (rhs == nullptr || !SetDepth(1 + std::max(lhs_depth, depth_))) {
        return nullptr;
      }
      lhs = LtlFormula::And(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  LtlPtr ParseLtlTemporalBinary() {
    LtlPtr lhs = ParseLtlUnary();
    if (lhs == nullptr) return nullptr;
    while (PeekIdent("U") || PeekIdent("B")) {
      bool is_until = Advance().text == "U";
      const int lhs_depth = depth_;
      LtlPtr rhs = ParseLtlUnary();
      if (rhs == nullptr || !SetDepth(1 + std::max(lhs_depth, depth_))) {
        return nullptr;
      }
      lhs = is_until ? LtlFormula::U(std::move(lhs), std::move(rhs))
                     : LtlFormula::B(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  /// The operand of a unary LTL operator, one level down.
  LtlPtr ParseLtlOperand() {
    LtlPtr body = Nested([&] { return ParseLtlUnary(); });
    if (body == nullptr || !SetDepth(depth_ + 1)) return nullptr;
    return body;
  }

  LtlPtr ParseLtlUnary() {
    if (Eat(TokenKind::kBang)) {
      LtlPtr body = ParseLtlOperand();
      return body == nullptr ? nullptr : LtlFormula::Not(std::move(body));
    }
    if (EatIdent("G")) {
      LtlPtr body = ParseLtlOperand();
      return body == nullptr ? nullptr : LtlFormula::G(std::move(body));
    }
    if (EatIdent("F")) {
      LtlPtr body = ParseLtlOperand();
      return body == nullptr ? nullptr : LtlFormula::F(std::move(body));
    }
    if (EatIdent("X")) {
      LtlPtr body = ParseLtlOperand();
      return body == nullptr ? nullptr : LtlFormula::X(std::move(body));
    }
    if (Eat(TokenKind::kLParen)) {
      LtlPtr inner = Nested([&] { return ParseLtlImplication(); });
      if (inner == nullptr) return nullptr;
      if (!Expect(TokenKind::kRParen, "')'")) return nullptr;
      if (!SetDepth(depth_ + 1)) return nullptr;
      return inner;
    }
    if (Eat(TokenKind::kLBracket)) {
      FormulaPtr fo = Nested([&] { return ParseFormula(); });
      if (fo == nullptr) return nullptr;
      if (!Expect(TokenKind::kRBracket, "']'")) return nullptr;
      if (!SetDepth(depth_ + 1)) return nullptr;
      return LtlFormula::Fo(std::move(fo));
    }
    Error("expected an LTL formula (G/F/X/!, '(', or an FO component in "
          "'[...]')");
    return nullptr;
  }

  // --- deferred resolution ---------------------------------------------------
  // Names below view the source text, which outlives the parser.
  struct DeferredTarget {
    int page_index;
    std::string_view target_name;
    FormulaPtr condition;
    int line;
  };

  /// An `at PAGE` atom awaiting end-of-parse resolution (pages may be
  /// declared after the formula referencing them).
  struct PendingPageAtom {
    std::string_view page;
    int line;
    int column;
  };

  void CheckPendingPageAtoms() {
    for (const PendingPageAtom& p : pending_page_atoms_) {
      if (spec_->PageIndex(p.page) == -1) {
        const std::string page(p.page);
        errors_->push_back(Positioned(p.line, p.column,
                                      "page atom 'at " + page +
                                          "' references unknown page '" +
                                          page + "'"));
      }
    }
    pending_page_atoms_.clear();
  }

  void ResolveDeferred() {
    CheckPendingPageAtoms();
    for (const DeferredTarget& d : deferred_targets_) {
      int target = spec_->PageIndex(d.target_name);
      if (target == -1) {
        errors_->push_back(Positioned(
            d.line, 1,
            "target rule references unknown page '" +
                std::string(d.target_name) + "'"));
        continue;
      }
      MutablePage(d.page_index)
          ->target_rules.push_back({target, d.condition});
    }
    if (!home_page_name_.empty()) {
      int home = spec_->PageIndex(home_page_name_);
      if (home == -1) {
        errors_->push_back(Positioned(
            home_line_, 1,
            "unknown home page '" + std::string(home_page_name_) + "'"));
      } else {
        spec_->set_home_page(home);
      }
    }
  }

  Lexer lexer_;
  Token token_;            // the current token, one ahead of `lexer_`
  int64_t consumed_ = 0;   // tokens consumed, for the progress guards
  // Depth of the formula the last formula-parsing call returned, and the
  // levels open above the one being parsed (see kMaxFormulaDepth).
  int depth_ = 0;
  int open_ = 0;
  WebAppSpec* spec_;
  std::vector<ParsedProperty>* properties_;
  std::vector<std::string>* errors_;
  std::vector<DeferredTarget> deferred_targets_;
  std::vector<PendingPageAtom> pending_page_atoms_;
  std::vector<std::string_view> free_vars_;  // reused by each property
  std::string_view home_page_name_;
  int home_line_ = 1;
};

}  // namespace

ParseResult ParseSpec(std::string_view text) {
  ParseResult result;
  result.spec = std::make_unique<WebAppSpec>();
  Parser parser(text, result.spec.get(), &result.properties, &result.errors);
  parser.ParseFile();
  if (result.ok()) {
    for (const std::string& issue : result.spec->Validate()) {
      result.errors.push_back(parser.AtEndOfInput(issue));
    }
  }
  return result;
}

StatusOr<ParseResult> ParseSpecFile(const std::string& path) {
  WAVE_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseSpec(text);
}

ParseResult ParseProperties(std::string_view text, WebAppSpec* spec) {
  ParseResult result;
  Parser parser(text, spec, &result.properties, &result.errors);
  parser.ParsePropertiesOnly();
  return result;
}

FormulaPtr ParseFormula(std::string_view text, WebAppSpec* spec,
                        std::vector<std::string>* errors) {
  std::vector<ParsedProperty> properties;
  Parser parser(text, spec, &properties, errors);
  return parser.ParseSingleFormula();
}

}  // namespace wave
