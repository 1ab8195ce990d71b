// Dynamically sized bitset used for pseudoconfiguration bitmaps and for the
// counter-style enumeration of database cores and extensions (Section 4 of
// the paper: "treating the bitmap as the binary representation of an integer
// counter, we increment the bitmap at each call").
#ifndef WAVE_COMMON_BITSET_H_
#define WAVE_COMMON_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace wave {

/// Fixed-width (after construction) bitset with word-level storage.
///
/// Supports the operations the verifier needs: bit get/set, integer-counter
/// increment (for subset enumeration), concatenation (for composing a
/// pseudoconfiguration bitmap from per-relation bitmaps), byte
/// serialization, hashing and total order.
class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(int num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  DynamicBitset(const DynamicBitset&) = default;
  DynamicBitset& operator=(const DynamicBitset&) = default;
  DynamicBitset(DynamicBitset&&) = default;
  DynamicBitset& operator=(DynamicBitset&&) = default;

  int size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  bool Test(int i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }
  void Set(int i, bool value = true) {
    if (value) {
      words_[i >> 6] |= uint64_t{1} << (i & 63);
    } else {
      words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
    }
  }
  void Reset() {
    for (auto& w : words_) w = 0;
  }

  /// Number of set bits.
  int Count() const;

  /// True if no bit is set.
  bool None() const;

  /// Treats the bitset as a binary counter and increments it.
  /// Returns false on wrap-around (i.e. the bitset was all-ones), which
  /// signals the end of a subset enumeration.
  bool Increment();

  /// Appends the bits of `other` after the bits of `*this`.
  void Append(const DynamicBitset& other);

  /// Appends raw bits from an integer, lowest bit first.
  void AppendBits(uint64_t value, int num_bits);

  /// Serializes to bytes (little-endian within each word, padded with zero
  /// bits). Two bitsets of the same size compare equal iff their bytes do.
  std::vector<uint8_t> ToBytes() const;

  /// `1`/`0` rendering, bit 0 first; for debugging and tests.
  std::string ToString() const;

  uint64_t Hash() const;

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }
  friend bool operator<(const DynamicBitset& a, const DynamicBitset& b) {
    if (a.num_bits_ != b.num_bits_) return a.num_bits_ < b.num_bits_;
    return a.words_ < b.words_;
  }

 private:
  int num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace wave

#endif  // WAVE_COMMON_BITSET_H_
