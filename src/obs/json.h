// Minimal JSON document model used by the observability layer: trace
// export, stats export, and the bench JSON-lines emitter all build `Json`
// values and serialize them; tests (and any external tooling) parse them
// back with `Json::Parse` to guarantee the emitted files round-trip.
//
// Deliberately small: no SAX interface, no comments, no NaN/Inf (emitted
// as null, like browsers do). Object member order is preserved so output
// is deterministic and diff-friendly.
#ifndef WAVE_OBS_JSON_H_
#define WAVE_OBS_JSON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wave::obs {

/// A JSON value (null / bool / number / string / array / object).
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}

  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Number(double v);
  static Json Int(int64_t v);
  static Json Str(std::string s);
  static Json Array();
  static Json Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  double AsDouble() const { return is_int_ ? static_cast<double>(int_) : num_; }
  /// Truncates a fraction and saturates at the int64 range (NaN reads 0).
  int64_t AsInt() const;
  /// The number when it is an integer that int64 holds exactly; nullopt
  /// for fractions, out-of-range values and non-numbers. Readers of
  /// untrusted integer fields use this instead of `AsInt`.
  std::optional<int64_t> AsExactInt() const;
  const std::string& AsString() const { return str_; }

  // Array access.
  const std::vector<Json>& items() const { return items_; }
  void Append(Json v) { items_.push_back(std::move(v)); }
  size_t size() const { return items_.size(); }

  // Object access (insertion order preserved).
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }
  /// Sets `key` (replacing an existing member of the same name).
  void Set(std::string_view key, Json v);
  /// Member lookup; null when absent.
  const Json* Find(std::string_view key) const;
  bool Has(std::string_view key) const { return Find(key) != nullptr; }

  /// Serializes compactly (`indent < 0`) or pretty-printed with `indent`
  /// spaces per level.
  std::string Dump(int indent = -1) const;

  /// Parses a complete JSON document. On failure returns nullopt and, if
  /// `error` is non-null, a "offset N: message" diagnostic.
  static std::optional<Json> Parse(std::string_view text,
                                   std::string* error = nullptr);

 private:
  class Parser;  // json.cc

  void DumpTo(std::string* out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  bool is_int_ = false;  // numbers keep int64 precision when possible
  double num_ = 0;
  int64_t int_ = 0;
  std::string str_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Appends `s` to `out` as a quoted, escaped JSON string literal.
void AppendJsonString(std::string_view s, std::string* out);

}  // namespace wave::obs

#endif  // WAVE_OBS_JSON_H_
