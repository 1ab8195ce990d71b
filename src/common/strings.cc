#include "common/strings.h"

#include <charconv>
#include <cmath>

namespace wave {

std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(separator);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> Split(std::string_view text, char separator) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == separator) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         (text[begin] == ' ' || text[begin] == '\t' || text[begin] == '\n' ||
          text[begin] == '\r')) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         (text[end - 1] == ' ' || text[end - 1] == '\t' ||
          text[end - 1] == '\n' || text[end - 1] == '\r')) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ParseInt(std::string_view text, int64_t min, int64_t max, int64_t* out) {
  int64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || ptr != end || value < min ||
      value > max) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseDouble(std::string_view text, double min, double max, double* out) {
  double value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || ptr != end ||
      !std::isfinite(value) || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace wave
