// Pull lexer for the spec/property DSL.
#ifndef WAVE_PARSER_LEXER_H_
#define WAVE_PARSER_LEXER_H_

#include <string>
#include <string_view>

namespace wave {

enum class TokenKind {
  kIdent,    // bare identifier (also keywords; the parser decides)
  kString,   // "quoted constant" (text holds the unquoted value)
  kLParen,   // (
  kRParen,   // )
  kLBrace,   // {
  kRBrace,   // }
  kLBracket, // [
  kRBracket, // ]
  kComma,    // ,
  kColon,    // :
  kEquals,   // =
  kArrowLeft,   // <-
  kArrowRight,  // ->
  kPlus,     // +
  kMinus,    // -
  kBang,     // !
  kAmp,      // &
  kPipe,     // |
  kEnd,      // end of input
  kError,    // lexical error; `LexErrorMessage` says which
};

/// One token. `text` views the lexer's input, so a token must not outlive
/// it: an identifier's name, a string's unquoted value, or for kError the
/// source bytes at fault (the unterminated string from its opening quote,
/// or the unexpected character). Empty for punctuation and kEnd.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;
  int line = 1;
  int column = 1;
};

/// Hands out the tokens of `text` one at a time ('#' starts a line
/// comment). After the input ends, and after the first kError, every call
/// returns kEnd at the same position. Copying a lexer copies its position,
/// so a copy can look further ahead without disturbing the original.
class Lexer {
 public:
  /// `text` must outlive the lexer and every token it returns.
  explicit Lexer(std::string_view text) : text_(text) {}

  Token Next();

 private:
  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

/// The message of a kError token: "unterminated string literal" or
/// "unexpected character 'c'".
std::string LexErrorMessage(const Token& token);

/// Name of a token kind for error messages.
const char* TokenKindName(TokenKind kind);

}  // namespace wave

#endif  // WAVE_PARSER_LEXER_H_
