#include "common/fingerprint.h"

namespace wave {

namespace {

// Two independent FNV-1a 64 lanes with distinct offset bases, each
// finalized through a splitmix64-style avalanche. FNV alone has weak
// high-bit diffusion; the finalizer fixes that without giving up the
// simple byte-at-a-time streaming interface.
constexpr uint64_t kFnvPrime = 0x100000001b3ull;
constexpr uint64_t kOffsetA = 0xcbf29ce484222325ull;   // standard FNV basis
constexpr uint64_t kOffsetB = 0x6c62272e07bb0142ull;   // FNV-0 of a pangram

uint64_t Avalanche(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::string Fingerprint::ToHex() const {
  static const char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  uint64_t words[2] = {hi, lo};
  int pos = 0;
  for (uint64_t w : words) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out[pos++] = kDigits[(w >> shift) & 0xf];
    }
  }
  return out;
}

FingerprintBuilder::FingerprintBuilder() : a_(kOffsetA), b_(kOffsetB) {}

void FingerprintBuilder::Mix(uint8_t byte) {
  a_ = (a_ ^ byte) * kFnvPrime;
  b_ = (b_ ^ byte) * kFnvPrime;
  // Cross-pollinate the lanes so they do not stay a pair of plain FNV
  // streams (which would collide together whenever FNV collides).
  b_ ^= a_ >> 47;
}

void FingerprintBuilder::AddBytes(std::string_view bytes) {
  for (unsigned char c : bytes) Mix(c);
}

void FingerprintBuilder::AddInt(int64_t v) {
  Mix('i');
  uint64_t u = static_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) Mix(static_cast<uint8_t>(u >> (8 * i)));
}

void FingerprintBuilder::AddBool(bool b) {
  Mix('b');
  Mix(b ? 1 : 0);
}

void FingerprintBuilder::AddString(std::string_view s) {
  Mix('s');
  AddInt(static_cast<int64_t>(s.size()));
  AddBytes(s);
}

void FingerprintBuilder::AddTag(std::string_view tag) {
  Mix('t');
  AddInt(static_cast<int64_t>(tag.size()));
  AddBytes(tag);
}

Fingerprint FingerprintBuilder::Finish() const {
  Fingerprint fp;
  fp.lo = Avalanche(a_);
  fp.hi = Avalanche(b_ + 0x9e3779b97f4a7c15ull);
  return fp;
}

}  // namespace wave
