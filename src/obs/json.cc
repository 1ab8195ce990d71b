#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace wave::obs {

Json Json::Bool(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = b;
  return j;
}

Json Json::Number(double v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.num_ = v;
  return j;
}

Json Json::Int(int64_t v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.is_int_ = true;
  j.int_ = v;
  return j;
}

int64_t Json::AsInt() const {
  if (is_int_) return int_;
  if (std::isnan(num_)) return 0;
  // Casting a double outside int64's range is undefined behaviour.
  if (num_ >= 0x1p63) return INT64_MAX;
  if (num_ < -0x1p63) return INT64_MIN;
  return static_cast<int64_t>(num_);
}

std::optional<int64_t> Json::AsExactInt() const {
  if (!is_number()) return std::nullopt;
  if (is_int_) return int_;
  if (!(num_ >= -0x1p63 && num_ < 0x1p63) || std::trunc(num_) != num_) {
    return std::nullopt;
  }
  return static_cast<int64_t>(num_);
}

Json Json::Str(std::string s) {
  Json j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::Array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

void Json::Set(std::string_view key, Json v) {
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::string(key), std::move(v));
}

const Json* Json::Find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

namespace {

void AppendNumber(double v, bool is_int, int64_t i, std::string* out) {
  char buf[32];
  if (is_int) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(i));
  } else if (!std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "null");
  } else if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  *out += buf;
}

void Newline(std::string* out, int indent, int depth) {
  if (indent < 0) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      AppendNumber(num_, is_int_, int_, out);
      return;
    case Kind::kString:
      AppendJsonString(str_, out);
      return;
    case Kind::kArray: {
      if (items_.empty()) {
        *out += "[]";
        return;
      }
      out->push_back('[');
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out->push_back(',');
        Newline(out, indent, depth + 1);
        items_[i].DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      out->push_back(']');
      return;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        *out += "{}";
        return;
      }
      out->push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out->push_back(',');
        Newline(out, indent, depth + 1);
        AppendJsonString(members_[i].first, out);
        *out += indent < 0 ? ":" : ": ";
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      out->push_back('}');
      return;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

// --- parsing -----------------------------------------------------------------

namespace {

/// Arrays and objects nest at most this deep. The parser recurses once per
/// level, so without a bound one long line of '[' overflows the stack;
/// the documents this repository writes nest fewer than ten levels.
constexpr int kMaxDepth = 512;

}  // namespace

class Json::Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Json> Run() {
    std::optional<Json> v = ParseValue();
    if (!v) return std::nullopt;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after document");
    }
    return v;
  }

 private:
  std::optional<Json> Fail(const std::string& message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = "offset " + std::to_string(pos_) + ": " + message;
    }
    return std::nullopt;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<Json> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case 'n':
        if (!Literal("null")) return Fail("bad literal");
        return Json::Null();
      case 't':
        if (!Literal("true")) return Fail("bad literal");
        return Json::Bool(true);
      case 'f':
        if (!Literal("false")) return Fail("bad literal");
        return Json::Bool(false);
      case '"':
        return ParseString();
      case '[':
      case '{': {
        if (depth_ == kMaxDepth) {
          return Fail("nesting deeper than " + std::to_string(kMaxDepth) +
                      " levels");
        }
        ++depth_;
        std::optional<Json> v = c == '[' ? ParseArray() : ParseObject();
        --depth_;
        return v;
      }
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
        return Fail(std::string("unexpected character '") + c + "'");
    }
  }

  std::optional<Json> ParseNumber() {
    size_t start = pos_;
    bool is_int = true;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ < text_.size() &&
        (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_int = false;
      while (pos_ < text_.size() &&
             (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
              text_[pos_] == '+' || text_[pos_] == '-' ||
              (text_[pos_] >= '0' && text_[pos_] <= '9'))) {
        ++pos_;
      }
    }
    std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") return Fail("bad number");
    if (is_int) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') return Json::Int(v);
      // Fall through to double on overflow.
    }
    char* end = nullptr;
    double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("bad number");
    return Json::Number(v);
  }

  std::optional<Json> ParseString() {
    std::optional<std::string> s = ParseRawString();
    if (!s) return std::nullopt;
    return Json::Str(std::move(*s));
  }

  std::optional<std::string> ParseRawString() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        Fail("unterminated string");
        return std::nullopt;
      }
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        Fail("unterminated escape");
        return std::nullopt;
      }
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
            return std::nullopt;
          }
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else {
              Fail("bad \\u escape");
              return std::nullopt;
            }
          }
          // UTF-8 encode the code point (surrogate pairs are passed through
          // as two separate 3-byte sequences; we never emit them ourselves).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          Fail("unknown escape");
          return std::nullopt;
      }
    }
  }

  std::optional<Json> ParseArray() {
    ++pos_;  // '['
    Json out = Json::Array();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      std::optional<Json> v = ParseValue();
      if (!v) return std::nullopt;
      out.Append(std::move(*v));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      char c = text_[pos_++];
      if (c == ']') return out;
      if (c != ',') {
        --pos_;
        return Fail("expected ',' or ']' in array");
      }
    }
  }

  std::optional<Json> ParseObject() {
    ++pos_;  // '{'
    Json out = Json::Object();
    std::unordered_map<std::string, size_t> index;  // key -> member position
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::optional<std::string> key = ParseRawString();
      if (!key) return std::nullopt;
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_++] != ':') {
        --pos_;
        return Fail("expected ':' after object key");
      }
      std::optional<Json> v = ParseValue();
      if (!v) return std::nullopt;
      // As `Set` does, a repeated key keeps its first position and takes
      // the last value; the index replaces `Set`'s scan, which made an
      // n-key object cost O(n^2).
      auto [at, added] = index.try_emplace(*key, out.members_.size());
      if (added) {
        out.members_.emplace_back(std::move(*key), std::move(*v));
      } else {
        out.members_[at->second].second = std::move(*v);
      }
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      char c = text_[pos_++];
      if (c == '}') return out;
      if (c != ',') {
        --pos_;
        return Fail("expected ',' or '}' in object");
      }
    }
  }

  std::string_view text_;
  std::string* error_;
  size_t pos_ = 0;
  int depth_ = 0;  // arrays/objects open at the current position
};

std::optional<Json> Json::Parse(std::string_view text, std::string* error) {
  return Parser(text, error).Run();
}

}  // namespace wave::obs
