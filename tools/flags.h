// Flag values shared by the command-line tools: `--flag=value` matching,
// and numeric values that parse whole and in range or not at all. A tool
// turns a false return into a usage error (exit 1), never a silent 0.
#ifndef WAVE_TOOLS_FLAGS_H_
#define WAVE_TOOLS_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "common/strings.h"

namespace wave {

// Upper bounds of the numeric flags: sanity limits, not tuning advice.
constexpr int64_t kMaxThreads = 1024;
constexpr int64_t kMaxPort = 65535;
constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();
constexpr double kMaxSeconds = 1e9;  // about 31 years

/// The value of `arg` when it reads `<flag>=<value>`, else null.
inline const char* FlagValue(const char* arg, const char* flag) {
  const size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

/// Stores `value` in `*field` when all of it is a whole number in
/// [min, max], which must fit `T`. Otherwise leaves `*field` alone, names
/// `arg` (the argument as typed) in `*error` and returns false.
template <typename T>
bool ParseIntFlag(const char* arg, const char* value, int64_t min,
                  int64_t max, T* field, std::string* error) {
  int64_t parsed = 0;
  if (ParseInt(value, min, max, &parsed)) {
    *field = static_cast<T>(parsed);
    return true;
  }
  *error = std::string("bad value in ") + arg + ": want a whole number in [" +
           std::to_string(min) + ", " + std::to_string(max) + "]";
  return false;
}

/// `ParseIntFlag` for a number that may have a fraction.
inline bool ParseNumberFlag(const char* arg, const char* value, double min,
                            double max, double* field, std::string* error) {
  if (ParseDouble(value, min, max, field)) return true;
  char range[64];
  std::snprintf(range, sizeof(range), "[%g, %g]", min, max);
  *error = std::string("bad value in ") + arg + ": want a number in " + range;
  return false;
}

/// A thread count in [min, kMaxThreads]. `min` is 0 where 0 means one
/// thread per hardware thread, else 1.
inline bool ParseThreadsFlag(const char* arg, const char* value, int min,
                             int* field, std::string* error) {
  return ParseIntFlag(arg, value, min, kMaxThreads, field, error);
}

/// A TCP port in [0, kMaxPort]; 0 asks for an ephemeral one.
inline bool ParsePortFlag(const char* arg, const char* value, int* field,
                          std::string* error) {
  return ParseIntFlag(arg, value, 0, kMaxPort, field, error);
}

}  // namespace wave

#endif  // WAVE_TOOLS_FLAGS_H_
