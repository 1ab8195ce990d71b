// Minimal JSON document model used by the observability layer: trace
// export, stats export, and the bench JSON-lines emitter all build `Json`
// values and serialize them; tests (and any external tooling) parse them
// back with `Json::Parse` to guarantee the emitted files round-trip.
//
// Deliberately small: no SAX interface, no comments, no NaN/Inf (emitted
// as null, like browsers do). Object member order is preserved so output
// is deterministic and diff-friendly.
//
// Each value holds exactly one payload (a bool, an int64, a double, a
// string, an item vector or a member vector), so a node is 40 bytes on a
// 64-bit host, and a parsed array or object owns one exactly sized
// allocation.
#ifndef WAVE_OBS_JSON_H_
#define WAVE_OBS_JSON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace wave::obs {

/// A JSON value (null / bool / number / string / array / object).
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, Json>;

  Json() = default;

  static Json Null() { return Json(); }
  static Json Bool(bool b) { return Json(std::in_place_index<kBoolIndex>, b); }
  static Json Number(double v) {
    return Json(std::in_place_index<kDoubleIndex>, v);
  }
  static Json Int(int64_t v) { return Json(std::in_place_index<kIntIndex>, v); }
  static Json Str(std::string s) {
    return Json(std::in_place_index<kStringIndex>, std::move(s));
  }
  static Json Array() { return Json(std::in_place_index<kArrayIndex>); }
  static Json Object() { return Json(std::in_place_index<kObjectIndex>); }

  Kind kind() const;
  bool is_null() const { return value_.index() == kNullIndex; }
  bool is_bool() const { return value_.index() == kBoolIndex; }
  bool is_number() const {
    return value_.index() == kIntIndex || value_.index() == kDoubleIndex;
  }
  bool is_string() const { return value_.index() == kStringIndex; }
  bool is_array() const { return value_.index() == kArrayIndex; }
  bool is_object() const { return value_.index() == kObjectIndex; }

  /// The bool; false for any other kind.
  bool AsBool() const;
  /// The number; 0 for any other kind.
  double AsDouble() const;
  /// Truncates a fraction and saturates at the int64 range (NaN reads 0).
  int64_t AsInt() const;
  /// The number when it is an integer that int64 holds exactly; nullopt
  /// for fractions, out-of-range values and non-numbers. Readers of
  /// untrusted integer fields use this instead of `AsInt`.
  std::optional<int64_t> AsExactInt() const;
  /// The string; empty for any other kind.
  const std::string& AsString() const;

  // Array access (empty for any other kind).
  const std::vector<Json>& items() const;
  /// Appends `v`; a value that is not an array becomes an empty one first.
  void Append(Json v);
  size_t size() const { return items().size(); }

  // Object access (insertion order preserved; empty for any other kind).
  const std::vector<Member>& members() const;
  /// Sets `key` (replacing an existing member of the same name); a value
  /// that is not an object becomes an empty one first.
  void Set(std::string_view key, Json v);
  /// Member lookup; null when absent.
  const Json* Find(std::string_view key) const;
  /// Mutable member lookup, for moving a subtree out of a parsed document.
  Json* Find(std::string_view key);
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

  // Integers keep int64 precision; the order fixes the index constants.
  using Payload = std::variant<std::monostate, bool, int64_t, double,
                               std::string, std::vector<Json>,
                               std::vector<Member>>;
  static constexpr size_t kNullIndex = 0;
  static constexpr size_t kBoolIndex = 1;
  static constexpr size_t kIntIndex = 2;
  static constexpr size_t kDoubleIndex = 3;
  static constexpr size_t kStringIndex = 4;
  static constexpr size_t kArrayIndex = 5;
  static constexpr size_t kObjectIndex = 6;

  template <size_t I, typename... Args>
  explicit Json(std::in_place_index_t<I> index, Args&&... args)
      : value_(index, std::forward<Args>(args)...) {}

  void DumpTo(std::string* out, int indent, int depth) const;

  Payload value_;
};

/// Appends `s` to `out` as a quoted, escaped JSON string literal.
void AppendJsonString(std::string_view s, std::string* out);

}  // namespace wave::obs

#endif  // WAVE_OBS_JSON_H_
