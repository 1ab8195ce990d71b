// Content fingerprinting for the verification-session caches (ISSUE 4).
//
// A `Fingerprint` is a 128-bit content hash used as a cache key: the
// in-session pre-pass caches key memoized artifacts by property/options
// fingerprints, and the persistent result cache names its record files by
// the hex digest of spec + property + effective options. The hash is
// *stable across processes and platforms* (no pointer values, no
// ASLR-dependent state, fixed-width little-endian mixing), which is what
// makes cross-run caching sound — but it is NOT cryptographic: collisions
// are astronomically unlikely for cache sizing purposes, not adversarially
// hard to produce.
//
// `FingerprintBuilder` is a streaming accumulator with length-prefixed,
// type-tagged appends, so distinct field sequences can never collide by
// concatenation ambiguity ("ab" + "c" vs "a" + "bc").
#ifndef WAVE_COMMON_FINGERPRINT_H_
#define WAVE_COMMON_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace wave {

/// A 128-bit content hash. Value type; compares by value.
struct Fingerprint {
  uint64_t lo = 0;
  uint64_t hi = 0;

  /// 32 lowercase hex characters (hi then lo) — safe as a file name.
  std::string ToHex() const;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const Fingerprint& a, const Fingerprint& b) {
    return !(a == b);
  }
  friend bool operator<(const Fingerprint& a, const Fingerprint& b) {
    if (a.hi != b.hi) return a.hi < b.hi;
    return a.lo < b.lo;
  }
};

/// Streaming fingerprint accumulator. Every `Add*` is framed with a type
/// tag and (for strings) a length prefix; `Finish` may be called any
/// number of times and does not reset the stream.
class FingerprintBuilder {
 public:
  FingerprintBuilder();

  void AddBytes(std::string_view bytes);
  void AddString(std::string_view s);  // tagged + length-prefixed
  void AddInt(int64_t v);
  void AddBool(bool b);
  /// Domain separator between record sections ("spec", "options", ...).
  void AddTag(std::string_view tag);

  Fingerprint Finish() const;

 private:
  void Mix(uint8_t byte);

  uint64_t a_;
  uint64_t b_;
};

}  // namespace wave

#endif  // WAVE_COMMON_FINGERPRINT_H_
