// Text DSL for Web application specifications and LTL-FO properties.
//
// Spec syntax (line comments start with '#'):
//
//   app E1
//   database products(pid, category, name, ram, hdd, display, price)
//   state    cart(pid, price)
//   input    button(x)
//   inputconst password
//   action   conf(pid)
//   home HP
//
//   page HP {
//     input button
//     input password
//     rule button(x) <- x = "login" | x = "register"
//     state +userid(u) <- userid(u)                     # insert rule
//     state -userid(u) <- userid(u) & button("logout")  # delete rule
//     action conf(p) <- pick(p) & button("buy")
//     target CP <- button("login")
//   }
//
//   property P1 type T9 expect true {
//     F [at HP]
//   }
//
// Formula syntax (inside rules and inside [...] components of properties):
//   exists x,y: R(x,y) & phi     forall x: I(x) -> phi
//   atoms: R(t,...), prev R(t,...), t1 = t2, at PAGE, true, false
//   terms: identifiers are variables, "quoted strings" are constants
//   connectives: ! & | ->  (usual precedence), parentheses
//
// Property syntax: an optional outermost `forall vars:` block, then LTL
// over [...]-wrapped FO components with G F X (prefix), U B (infix),
// ! & | -> and parentheses.
#ifndef WAVE_PARSER_PARSER_H_
#define WAVE_PARSER_PARSER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "ltl/ltl_formula.h"
#include "spec/web_app.h"

namespace wave {

/// The deepest formula the parser accepts. An atom is one level, and each
/// operator, parenthesized group and bracketed FO component adds one; a
/// deeper rule body, target condition or property is a positioned parse
/// error. The passes after the parser (abstraction, NNF, the rewrite,
/// GPVW, evaluation) recurse over formulas, so the limit keeps their
/// stacks bounded.
inline constexpr int kMaxFormulaDepth = 1000;

/// A property together with the verdict the source asserted via `expect`.
struct ParsedProperty {
  Property property;
  bool has_expected = false;
  bool expected = false;  // expected *to hold* (paper's "(true)" markers)
};

/// Result of parsing a spec file.
struct ParseResult {
  std::vector<std::string> errors;  // "line:col: message"; empty == success
  std::unique_ptr<WebAppSpec> spec;
  std::vector<ParsedProperty> properties;

  bool ok() const { return errors.empty(); }
  /// All errors joined with newlines (for test assertions / CHECK output).
  std::string ErrorText() const;
  /// The parse outcome as a structured error: OK on success, otherwise
  /// InvalidArgument whose message is `ErrorText()` (each error keeps its
  /// "line:col:" prefix).
  Status status() const;
};

/// Parses a full spec (+ optional properties) from `text`.
ParseResult ParseSpec(std::string_view text);

/// Reads and parses the spec file at `path`. A missing or unreadable file
/// is the returned Status (kNotFound/kUnavailable); *parse* errors travel
/// inside the ParseResult — check `result.ok()` / `result.status()`.
StatusOr<ParseResult> ParseSpecFile(const std::string& path);

/// Parses additional `property ... { ... }` blocks against an existing
/// spec (constants intern into the spec's symbol table).
ParseResult ParseProperties(std::string_view text, WebAppSpec* spec);

/// Parses a single FO formula (for tests and examples). Errors are
/// returned via `errors`; returns null on failure.
FormulaPtr ParseFormula(std::string_view text, WebAppSpec* spec,
                        std::vector<std::string>* errors);

}  // namespace wave

#endif  // WAVE_PARSER_PARSER_H_
