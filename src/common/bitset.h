// Dynamically sized bitset for the counter-style enumeration of database
// cores and extensions (Section 4 of the paper: "treating the bitmap as the
// binary representation of an integer counter, we increment the bitmap at
// each call").
#ifndef WAVE_COMMON_BITSET_H_
#define WAVE_COMMON_BITSET_H_

#include <cstdint>
#include <vector>

namespace wave {

/// Fixed-width bitset with word-level storage, all bits clear at
/// construction, stepped through every subset of its bits by `Increment`.
class DynamicBitset {
 public:
  explicit DynamicBitset(int num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  int size() const { return num_bits_; }

  bool Test(int i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }

  /// Treats the bitset as a binary counter, bit 0 lowest, and increments
  /// it. Returns false on wrap-around (the bitset was all ones, and is now
  /// all zeros; always for zero bits), which ends a subset enumeration.
  bool Increment() {
    for (int i = 0; i < num_bits_; ++i) {
      uint64_t& word = words_[i >> 6];
      const uint64_t bit = uint64_t{1} << (i & 63);
      word ^= bit;
      if ((word & bit) != 0) return true;  // 0 -> 1: no carry
    }
    return false;
  }

 private:
  int num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace wave

#endif  // WAVE_COMMON_BITSET_H_
