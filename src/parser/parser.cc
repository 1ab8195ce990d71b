#include "parser/parser.h"

#include <algorithm>
#include <set>

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

/// Recursive-descent parser over the token stream. One instance parses one
/// source text; results accumulate into the referenced spec / property
/// list / error list.
class Parser {
 public:
  Parser(std::string_view text, WebAppSpec* spec,
         std::vector<ParsedProperty>* properties,
         std::vector<std::string>* errors)
      : tokens_(Tokenize(text)),
        spec_(spec),
        properties_(properties),
        errors_(errors) {}

  /// Top level: a sequence of declarations, pages and properties.
  void ParseFile() {
    while (!AtEnd()) {
      size_t before = pos_;
      if (!ParseTopLevel()) SkipToTopLevel();
      if (pos_ == before) Advance();  // guarantee progress
    }
    ResolveDeferred();
  }

  /// "line:col" of the end of input — the position whole-spec diagnostics
  /// (missing pages, unset home page) are anchored to, so every error a
  /// ParseResult carries is positioned.
  std::string EndPosition() const {
    const Token& last = tokens_.back();
    return std::to_string(last.line) + ":" + std::to_string(last.column);
  }

  /// Parses `property` blocks only (pre-existing spec).
  void ParsePropertiesOnly() {
    while (!AtEnd()) {
      size_t before = pos_;
      if (PeekIdent("property")) {
        if (!ParseProperty()) SkipToTopLevel();
      } else {
        Error("expected 'property'");
        SkipToTopLevel();
      }
      if (pos_ == before) Advance();  // guarantee progress
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
  const Token& Peek(int ahead = 0) const {
    size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }
  const Token& Advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

  bool PeekIs(TokenKind kind) const { return Peek().kind == kind; }
  bool PeekIdent(std::string_view name) const {
    return Peek().kind == TokenKind::kIdent && Peek().text == name;
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

  void Error(const std::string& message) {
    const Token& t = Peek();
    errors_->push_back(std::to_string(t.line) + ":" +
                       std::to_string(t.column) + ": " + message);
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

  bool Expect(TokenKind kind, const std::string& what) {
    if (Eat(kind)) return true;
    Error("expected " + what + ", found " +
          std::string(TokenKindName(Peek().kind)) +
          (Peek().kind == TokenKind::kIdent ? " '" + Peek().text + "'" : ""));
    return false;
  }

  std::string ExpectIdent(const std::string& what) {
    if (PeekIs(TokenKind::kIdent)) return Advance().text;
    Error("expected " + what);
    return "";
  }

  /// Error recovery: skip to a token that can start a top-level statement.
  void SkipToTopLevel() {
    static const std::set<std::string> kStarters = {
        "app",   "database", "state", "input", "inputconst",
        "action", "home",    "page",  "property"};
    while (!AtEnd()) {
      if (PeekIs(TokenKind::kIdent) && kStarters.count(Peek().text) > 0) {
        return;
      }
      Advance();
    }
  }

  /// Skip within a page/property block to the next statement or '}'.
  void SkipToBlockStatement() {
    static const std::set<std::string> kStarters = {
        "input", "rule", "state", "action", "target"};
    int depth = 0;
    while (!AtEnd()) {
      if (depth == 0 && PeekIs(TokenKind::kRBrace)) return;
      if (depth == 0 && PeekIs(TokenKind::kIdent) &&
          kStarters.count(Peek().text) > 0) {
        return;
      }
      if (PeekIs(TokenKind::kLBrace)) ++depth;
      if (PeekIs(TokenKind::kRBrace)) --depth;
      Advance();
    }
  }

  // --- top level ------------------------------------------------------------
  bool ParseTopLevel() {
    if (PeekIs(TokenKind::kError)) {
      Error(Peek().text);
      Advance();
      return false;
    }
    if (EatIdent("app")) {
      spec_->name = ExpectIdent("application name");
      return true;
    }
    if (PeekIdent("database") || PeekIdent("state") || PeekIdent("input") ||
        PeekIdent("inputconst") || PeekIdent("action")) {
      return ParseRelationDecl();
    }
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
    std::string kind_word = Advance().text;
    RelationKind kind = RelationKind::kDatabase;
    if (kind_word == "state") kind = RelationKind::kState;
    if (kind_word == "input") kind = RelationKind::kInput;
    if (kind_word == "inputconst") kind = RelationKind::kInputConstant;
    if (kind_word == "action") kind = RelationKind::kAction;

    RelationSchema schema;
    schema.kind = kind;
    schema.name = ExpectIdent("relation name");
    if (schema.name.empty()) return false;
    if (spec_->catalog().Find(schema.name) != kInvalidRelation) {
      Error("relation '" + schema.name + "' already declared");
      return false;
    }
    if (kind == RelationKind::kInputConstant) {
      // Arity-1 by definition; no attribute list required.
      schema.arity = 1;
      if (Eat(TokenKind::kLParen)) {
        schema.attributes.push_back(ExpectIdent("attribute name"));
        Expect(TokenKind::kRParen, "')'");
      }
      spec_->catalog().Declare(std::move(schema));
      return true;
    }
    if (!Expect(TokenKind::kLParen, "'(' and attribute list")) return false;
    if (!PeekIs(TokenKind::kRParen)) {
      do {
        schema.attributes.push_back(ExpectIdent("attribute name"));
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
    PageSchema page;
    page.name = ExpectIdent("page name");
    if (page.name.empty()) return false;
    if (spec_->PageIndex(page.name) != -1) {
      Error("page '" + page.name + "' already declared");
      return false;
    }
    int page_index = spec_->AddPage(std::move(page));
    if (!Expect(TokenKind::kLBrace, "'{'")) return false;
    while (!PeekIs(TokenKind::kRBrace) && !AtEnd()) {
      size_t before = pos_;
      if (!ParsePageStatement(page_index)) SkipToBlockStatement();
      if (pos_ == before) Advance();  // guarantee progress
    }
    Expect(TokenKind::kRBrace, "'}'");
    return true;
  }

  PageSchema* MutablePage(int index) { return spec_->mutable_page(index); }

  bool ParsePageStatement(int page_index) {
    PageSchema* page = MutablePage(page_index);
    if (EatIdent("input")) {
      std::string name = ExpectIdent("input relation name");
      RelationId id = spec_->catalog().Find(name);
      if (id == kInvalidRelation) {
        Error("undeclared input relation '" + name + "'");
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
      std::string target_name = ExpectIdent("target page name");
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
    std::string name = ExpectIdent("relation name");
    if (name.empty()) return false;
    *relation = spec_->catalog().Find(name);
    if (*relation == kInvalidRelation) {
      Error("undeclared relation '" + name + "' in rule head");
      return false;
    }
    if (spec_->catalog().schema(*relation).arity == 0) {
      // Nullary heads may omit parentheses.
      if (Eat(TokenKind::kLParen)) Expect(TokenKind::kRParen, "')'");
      return true;
    }
    if (!Expect(TokenKind::kLParen, "'('")) return false;
    if (!PeekIs(TokenKind::kRParen)) {
      do {
        Term t;
        if (!ParseTerm(&t)) return false;
        head->push_back(std::move(t));
      } while (Eat(TokenKind::kComma));
    }
    return Expect(TokenKind::kRParen, "')'");
  }

  // --- FO formulas ---------------------------------------------------------
  bool ParseTerm(Term* out) {
    if (PeekIs(TokenKind::kIdent)) {
      *out = Term::Var(Advance().text);
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
      std::string v = ExpectIdent("variable name");
      if (v.empty()) return false;
      vars->push_back(std::move(v));
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
      std::string page = ExpectIdent("page name");
      if (page.empty()) return nullptr;
      pending_page_atoms_.push_back({page, line, column});
      return Formula::Page(std::move(page));
    }
    if (EatIdent("prev")) {
      return ParseAtomOrEquality(/*previous=*/true);
    }
    return ParseAtomOrEquality(/*previous=*/false);
  }

  FormulaPtr ParseAtomOrEquality(bool previous) {
    // IDENT '(' -> relational atom; otherwise a term followed by '='.
    if (PeekIs(TokenKind::kIdent) && Peek(1).kind == TokenKind::kLParen) {
      std::string relation = Advance().text;
      Advance();  // '('
      std::vector<Term> args;
      if (!PeekIs(TokenKind::kRParen)) {
        do {
          Term t;
          if (!ParseTerm(&t)) return nullptr;
          args.push_back(std::move(t));
        } while (Eat(TokenKind::kComma));
      }
      if (!Expect(TokenKind::kRParen, "')'")) return nullptr;
      RelationId id = spec_->catalog().Find(relation);
      if (id == kInvalidRelation) {
        Error("undeclared relation '" + relation + "'");
        return nullptr;
      }
      if (spec_->catalog().schema(id).arity !=
          static_cast<int>(args.size())) {
        Error("atom " + relation + "/" + std::to_string(args.size()) +
              " does not match declared arity " +
              std::to_string(spec_->catalog().schema(id).arity));
        return nullptr;
      }
      return Formula::Atom(std::move(relation), std::move(args), previous);
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
    ParsedProperty parsed;
    parsed.property.name = ExpectIdent("property name");
    if (parsed.property.name.empty()) return false;
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
        std::string v = ExpectIdent("variable name");
        if (v.empty()) return false;
        parsed.property.forall_vars.push_back(std::move(v));
      } while (Eat(TokenKind::kComma));
      if (!Expect(TokenKind::kColon, "':'")) return false;
    }
    parsed.property.body = ParseLtl();
    if (parsed.property.body == nullptr) return false;
    if (!Expect(TokenKind::kRBrace, "'}'")) return false;
    // Binding check (ISSUE 2): every free variable of the body must be
    // declared in the forall block — this used to abort inside the
    // verifier's Prepare phase instead of being a parse error.
    {
      std::set<std::string> declared(parsed.property.forall_vars.begin(),
                                     parsed.property.forall_vars.end());
      for (const std::string& v : parsed.property.body->FreeVariables()) {
        if (declared.count(v) == 0) {
          errors_->push_back(std::to_string(name_line) + ":" +
                             std::to_string(name_column) + ": property '" +
                             parsed.property.name + "': free variable '" + v +
                             "' not bound by the forall block");
        }
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
  struct DeferredTarget {
    int page_index;
    std::string target_name;
    FormulaPtr condition;
    int line;
  };

  /// An `at PAGE` atom awaiting end-of-parse resolution (pages may be
  /// declared after the formula referencing them).
  struct PendingPageAtom {
    std::string page;
    int line;
    int column;
  };

  void CheckPendingPageAtoms() {
    for (const PendingPageAtom& p : pending_page_atoms_) {
      if (spec_->PageIndex(p.page) == -1) {
        errors_->push_back(std::to_string(p.line) + ":" +
                           std::to_string(p.column) +
                           ": page atom 'at " + p.page +
                           "' references unknown page '" + p.page + "'");
      }
    }
    pending_page_atoms_.clear();
  }

  void ResolveDeferred() {
    CheckPendingPageAtoms();
    for (const DeferredTarget& d : deferred_targets_) {
      int target = spec_->PageIndex(d.target_name);
      if (target == -1) {
        errors_->push_back(std::to_string(d.line) +
                           ":1: target rule references unknown page '" +
                           d.target_name + "'");
        continue;
      }
      MutablePage(d.page_index)
          ->target_rules.push_back({target, d.condition});
    }
    if (!home_page_name_.empty()) {
      int home = spec_->PageIndex(home_page_name_);
      if (home == -1) {
        errors_->push_back(std::to_string(home_line_) +
                           ":1: unknown home page '" + home_page_name_ +
                           "'");
      } else {
        spec_->set_home_page(home);
      }
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  // Depth of the formula the last formula-parsing call returned, and the
  // levels open above the one being parsed (see kMaxFormulaDepth).
  int depth_ = 0;
  int open_ = 0;
  WebAppSpec* spec_;
  std::vector<ParsedProperty>* properties_;
  std::vector<std::string>* errors_;
  std::vector<DeferredTarget> deferred_targets_;
  std::vector<PendingPageAtom> pending_page_atoms_;
  std::string home_page_name_;
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
      result.errors.push_back(parser.EndPosition() + ": " + issue);
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
