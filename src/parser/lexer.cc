#include "parser/lexer.h"

#include <algorithm>

namespace wave {

namespace {

bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool IsIdentChar(char c) {
  return IsIdentStart(c) || (c >= '0' && c <= '9') || c == '.';
}

}  // namespace

Token Lexer::Next() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    const int start_column = column_;
    if (c == '\n') {
      ++line_;
      column_ = 1;
      ++pos_;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++column_;
      ++pos_;
      continue;
    }
    if (c == '#') {
      // The newline, or the end of input, ends the comment.
      pos_ = std::min(text_.find('\n', pos_), text_.size());
      continue;
    }
    if (IsIdentStart(c)) {
      const size_t start = pos_;
      while (pos_ < text_.size() && IsIdentChar(text_[pos_])) {
        ++pos_;
        ++column_;
      }
      return {TokenKind::kIdent, text_.substr(start, pos_ - start), line_,
              start_column};
    }
    if (c == '"') {
      const size_t start = ++pos_;
      ++column_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\n') {
        ++pos_;
        ++column_;
      }
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        const Token error{TokenKind::kError,
                          text_.substr(start - 1, pos_ - start + 1), line_,
                          start_column};
        pos_ = text_.size();  // the input ends at a lexical error
        return error;
      }
      const Token value{TokenKind::kString, text_.substr(start, pos_ - start),
                        line_, start_column};
      ++pos_;
      ++column_;
      return value;
    }
    auto two = [&](char next) {
      return pos_ + 1 < text_.size() && text_[pos_ + 1] == next;
    };
    TokenKind kind = TokenKind::kError;
    int advance = 1;
    switch (c) {
      case '(': kind = TokenKind::kLParen; break;
      case ')': kind = TokenKind::kRParen; break;
      case '{': kind = TokenKind::kLBrace; break;
      case '}': kind = TokenKind::kRBrace; break;
      case '[': kind = TokenKind::kLBracket; break;
      case ']': kind = TokenKind::kRBracket; break;
      case ',': kind = TokenKind::kComma; break;
      case ':': kind = TokenKind::kColon; break;
      case '=': kind = TokenKind::kEquals; break;
      case '+': kind = TokenKind::kPlus; break;
      case '!': kind = TokenKind::kBang; break;
      case '&': kind = TokenKind::kAmp; break;
      case '|': kind = TokenKind::kPipe; break;
      case '<':
        if (two('-')) {
          kind = TokenKind::kArrowLeft;
          advance = 2;
        }
        break;
      case '-':
        if (two('>')) {
          kind = TokenKind::kArrowRight;
          advance = 2;
        } else {
          kind = TokenKind::kMinus;
        }
        break;
      default:
        break;
    }
    if (kind == TokenKind::kError) {
      const Token error{TokenKind::kError, text_.substr(pos_, 1), line_,
                        start_column};
      pos_ = text_.size();  // the input ends at a lexical error
      return error;
    }
    pos_ += advance;
    column_ += advance;
    return {kind, {}, line_, start_column};
  }
  return {TokenKind::kEnd, {}, line_, column_};
}

std::string LexErrorMessage(const Token& token) {
  if (token.text.starts_with('"')) return "unterminated string literal";
  return "unexpected character '" + std::string(token.text.substr(0, 1)) +
         "'";
}

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kString: return "string";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kComma: return "','";
    case TokenKind::kColon: return "':'";
    case TokenKind::kEquals: return "'='";
    case TokenKind::kArrowLeft: return "'<-'";
    case TokenKind::kArrowRight: return "'->'";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kBang: return "'!'";
    case TokenKind::kAmp: return "'&'";
    case TokenKind::kPipe: return "'|'";
    case TokenKind::kEnd: return "end of input";
    case TokenKind::kError: return "lexical error";
  }
  return "?";
}

}  // namespace wave
