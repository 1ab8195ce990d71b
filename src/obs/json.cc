#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <unordered_map>

namespace wave::obs {

Json::Kind Json::kind() const {
  switch (value_.index()) {
    case kBoolIndex: return Kind::kBool;
    case kIntIndex:
    case kDoubleIndex: return Kind::kNumber;
    case kStringIndex: return Kind::kString;
    case kArrayIndex: return Kind::kArray;
    case kObjectIndex: return Kind::kObject;
    default: return Kind::kNull;
  }
}

bool Json::AsBool() const {
  const bool* b = std::get_if<kBoolIndex>(&value_);
  return b != nullptr && *b;
}

double Json::AsDouble() const {
  if (const int64_t* i = std::get_if<kIntIndex>(&value_)) {
    return static_cast<double>(*i);
  }
  const double* d = std::get_if<kDoubleIndex>(&value_);
  return d != nullptr ? *d : 0;
}

int64_t Json::AsInt() const {
  if (const int64_t* i = std::get_if<kIntIndex>(&value_)) return *i;
  double num = AsDouble();
  if (std::isnan(num)) return 0;
  // Casting a double outside int64's range is undefined behaviour.
  if (num >= 0x1p63) return INT64_MAX;
  if (num < -0x1p63) return INT64_MIN;
  return static_cast<int64_t>(num);
}

std::optional<int64_t> Json::AsExactInt() const {
  if (const int64_t* i = std::get_if<kIntIndex>(&value_)) return *i;
  const double* d = std::get_if<kDoubleIndex>(&value_);
  if (d == nullptr || !(*d >= -0x1p63 && *d < 0x1p63) ||
      std::trunc(*d) != *d) {
    return std::nullopt;
  }
  return static_cast<int64_t>(*d);
}

const std::string& Json::AsString() const {
  static const std::string kEmpty;
  const std::string* s = std::get_if<kStringIndex>(&value_);
  return s != nullptr ? *s : kEmpty;
}

const std::vector<Json>& Json::items() const {
  static const std::vector<Json> kEmpty;
  const std::vector<Json>* items = std::get_if<kArrayIndex>(&value_);
  return items != nullptr ? *items : kEmpty;
}

void Json::Append(Json v) {
  if (!is_array()) value_.emplace<kArrayIndex>();
  std::get<kArrayIndex>(value_).push_back(std::move(v));
}

const std::vector<Json::Member>& Json::members() const {
  static const std::vector<Member> kEmpty;
  const std::vector<Member>* members = std::get_if<kObjectIndex>(&value_);
  return members != nullptr ? *members : kEmpty;
}

void Json::Set(std::string_view key, Json v) {
  if (!is_object()) value_.emplace<kObjectIndex>();
  std::vector<Member>& members = std::get<kObjectIndex>(value_);
  for (auto& [k, existing] : members) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members.emplace_back(std::string(key), std::move(v));
}

const Json* Json::Find(std::string_view key) const {
  for (const auto& [k, v] : members()) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json* Json::Find(std::string_view key) {
  std::vector<Member>* members = std::get_if<kObjectIndex>(&value_);
  if (members == nullptr) return nullptr;
  for (auto& [k, v] : *members) {
    if (k == key) return &v;
  }
  return nullptr;
}

// --- serializing -------------------------------------------------------------

void AppendJsonString(std::string_view s, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  // Bytes that need no escape are copied a run at a time.
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

namespace {

void AppendInt(int64_t v, std::string* out) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, end);
}

/// Integral doubles below 1e15 print as "%.1f" ("3.0"), every other
/// finite double as "%.17g"; `std::to_chars` with a precision is
/// specified to write exactly what printf writes.
void AppendDouble(double v, std::string* out) {
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  char buf[32];
  std::to_chars_result result =
      v == std::floor(v) && std::fabs(v) < 1e15
          ? std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed,
                          1)
          : std::to_chars(buf, buf + sizeof(buf), v,
                          std::chars_format::general, 17);
  out->append(buf, result.ptr);
}

void Newline(std::string* out, int indent, int depth) {
  if (indent < 0) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  switch (value_.index()) {
    case kNullIndex:
      *out += "null";
      return;
    case kBoolIndex:
      *out += std::get<kBoolIndex>(value_) ? "true" : "false";
      return;
    case kIntIndex:
      AppendInt(std::get<kIntIndex>(value_), out);
      return;
    case kDoubleIndex:
      AppendDouble(std::get<kDoubleIndex>(value_), out);
      return;
    case kStringIndex:
      AppendJsonString(std::get<kStringIndex>(value_), out);
      return;
    case kArrayIndex: {
      const std::vector<Json>& items = std::get<kArrayIndex>(value_);
      if (items.empty()) {
        *out += "[]";
        return;
      }
      out->push_back('[');
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out->push_back(',');
        Newline(out, indent, depth + 1);
        items[i].DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      out->push_back(']');
      return;
    }
    case kObjectIndex: {
      const std::vector<Member>& members = std::get<kObjectIndex>(value_);
      if (members.empty()) {
        *out += "{}";
        return;
      }
      out->push_back('{');
      for (size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out->push_back(',');
        Newline(out, indent, depth + 1);
        AppendJsonString(members[i].first, out);
        *out += indent < 0 ? ":" : ": ";
        members[i].second.DumpTo(out, indent, depth + 1);
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

/// An object with more members than this indexes its keys to find repeats;
/// a smaller one (a stats record has 26) scans them. A scan per member
/// would make an n-key object cost O(n^2).
constexpr size_t kScanMembers = 32;

}  // namespace

class Json::Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Json> Run() {
    Json v;
    if (!ParseValue(&v)) return std::nullopt;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      Fail("trailing characters after document");
      return std::nullopt;
    }
    return v;
  }

 private:
  bool Fail(std::string_view message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = "offset " + std::to_string(pos_) + ": ";
      error_->append(message);
    }
    return false;
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

  bool ParseValue(Json* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case 'n':
        if (!Literal("null")) return Fail("bad literal");
        return true;
      case 't':
        if (!Literal("true")) return Fail("bad literal");
        *out = Json::Bool(true);
        return true;
      case 'f':
        if (!Literal("false")) return Fail("bad literal");
        *out = Json::Bool(false);
        return true;
      case '"':
        return ParseRawString(&out->value_.emplace<kStringIndex>());
      case '[':
      case '{': {
        if (depth_ == kMaxDepth) {
          return Fail("nesting deeper than " + std::to_string(kMaxDepth) +
                      " levels");
        }
        ++depth_;
        bool ok = c == '[' ? ParseArray(out) : ParseObject(out);
        --depth_;
        return ok;
      }
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
        return Fail(std::string("unexpected character '") + c + "'");
    }
  }

  bool ParseNumber(Json* out) {
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
    std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") return Fail("bad number");
    const char* first = token.data();
    const char* last = first + token.size();
    if (is_int) {
      int64_t v = 0;
      std::from_chars_result r = std::from_chars(first, last, v);
      if (r.ec == std::errc() && r.ptr == last) {
        *out = Json::Int(v);
        return true;
      }
      // Fall through to double on overflow.
    }
    double v = 0;
    std::from_chars_result r = std::from_chars(first, last, v);
    if (r.ec == std::errc::result_out_of_range) {
      // strtod's answer for a magnitude past double's range: ±inf, or
      // zero or a denormal below it.
      std::string copy(token);
      char* end = nullptr;
      v = std::strtod(copy.c_str(), &end);
      if (end != copy.c_str() + copy.size()) return Fail("bad number");
    } else if (r.ec != std::errc() || r.ptr != last) {
      return Fail("bad number");
    }
    *out = Json::Number(v);
    return true;
  }

  bool ParseRawString(std::string* out) {
    ++pos_;  // opening quote
    while (true) {
      // Bytes that need no decoding are copied a run at a time.
      size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\') {
        ++pos_;
      }
      out->append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) return Fail("unterminated string");
      if (text_[pos_++] == '"') return true;
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return Fail("bad \\u escape");
          }
          // UTF-8 encode the code point (surrogate pairs are passed through
          // as two separate 3-byte sequences; we never emit them ourselves).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
  }

  // Arrays and objects collect their elements on the parser's scratch
  // stacks and move them into an exactly sized vector when they close.

  bool ParseArray(Json* out) {
    ++pos_;  // '['
    const size_t base = items_.size();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *out = Json::Array();
      return true;
    }
    while (true) {
      Json v;
      if (!ParseValue(&v)) return false;
      items_.push_back(std::move(v));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      char c = text_[pos_++];
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        return Fail("expected ',' or ']' in array");
      }
    }
    auto first = items_.begin() + static_cast<std::ptrdiff_t>(base);
    out->value_.emplace<kArrayIndex>(std::make_move_iterator(first),
                                     std::make_move_iterator(items_.end()));
    items_.erase(first, items_.end());
    return true;
  }

  bool ParseObject(Json* out) {
    ++pos_;  // '{'
    const size_t base = members_.size();
    // Built once the object passes kScanMembers: key -> offset from base.
    std::unordered_map<std::string, size_t> index;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      *out = Json::Object();
      return true;
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseRawString(&key)) return false;
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_++] != ':') {
        --pos_;
        return Fail("expected ':' after object key");
      }
      Json v;
      if (!ParseValue(&v)) return false;
      // As `Set` does, a repeated key keeps its first position and takes
      // the last value.
      Json* existing = FindMember(base, key, &index);
      if (existing != nullptr) {
        *existing = std::move(v);
      } else {
        members_.emplace_back(std::move(key), std::move(v));
      }
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      char c = text_[pos_++];
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        return Fail("expected ',' or '}' in object");
      }
    }
    auto first = members_.begin() + static_cast<std::ptrdiff_t>(base);
    out->value_.emplace<kObjectIndex>(std::make_move_iterator(first),
                                      std::make_move_iterator(members_.end()));
    members_.erase(first, members_.end());
    return true;
  }

  /// The value of the open object's member `key`, or null after noting
  /// that `key` will be appended next.
  Json* FindMember(size_t base, const std::string& key,
                   std::unordered_map<std::string, size_t>* index) {
    const size_t count = members_.size() - base;
    if (count < kScanMembers) {
      for (size_t i = base; i < members_.size(); ++i) {
        if (members_[i].first == key) return &members_[i].second;
      }
      return nullptr;
    }
    if (index->empty()) {
      for (size_t i = 0; i < count; ++i) {
        index->emplace(members_[base + i].first, i);
      }
    }
    auto [at, added] = index->try_emplace(key, count);
    return added ? nullptr : &members_[base + at->second].second;
  }

  std::string_view text_;
  std::string* error_;
  size_t pos_ = 0;
  int depth_ = 0;                // arrays/objects open at the current position
  std::vector<Json> items_;      // items of the open arrays, innermost last
  std::vector<Member> members_;  // members of the open objects, likewise
};

std::optional<Json> Json::Parse(std::string_view text, std::string* error) {
  return Parser(text, error).Run();
}

}  // namespace wave::obs
