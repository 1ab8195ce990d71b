// Small string helpers shared across modules (no dependency on absl).
#ifndef WAVE_COMMON_STRINGS_H_
#define WAVE_COMMON_STRINGS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace wave {

/// Hashes a string key as its view, so that a map keyed by std::string
/// finds a std::string_view without building a string.
struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// A std::string-keyed hash map whose lookups take a std::string_view.
template <typename Value>
using StringMap =
    std::unordered_map<std::string, Value, StringViewHash, std::equal_to<>>;

/// Joins `parts` with `separator`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Splits `text` on `separator`, keeping empty pieces.
std::vector<std::string> Split(std::string_view text, char separator);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Parses all of `text` as a base-10 integer in [min, max]. False, with
/// `*out` untouched, when `text` is empty, has any other character, or
/// is out of range.
bool ParseInt(std::string_view text, int64_t min, int64_t max, int64_t* out);

/// Parses all of `text` as a finite decimal number in [min, max], under
/// the same rules as `ParseInt`.
bool ParseDouble(std::string_view text, double min, double max, double* out);

}  // namespace wave

#endif  // WAVE_COMMON_STRINGS_H_
