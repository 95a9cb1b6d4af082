#ifndef ROBUSTMAP_COMMON_PERMUTATION_H_
#define ROBUSTMAP_COMMON_PERMUTATION_H_

#include <cstdint>
#include <vector>

namespace robustmap {

/// Invertible pseudo-random permutation of [0, 2^bits), bits even, 2..32.
///
/// Implemented as a 4-round balanced Feistel network over `bits/2`-bit
/// halves. The permutation is the backbone of procedural storage: column
/// values are defined as `Permute(rid)`-derived, and index lookups invert
/// them with `Inverse(value)`, so both a table page and an index leaf can be
/// synthesized on demand without materializing 2^26 rows.
///
/// Round r maps half h to `Mix64(h ^ key_r) & half_mask`. The constructor
/// tabulates all four rounds (4 x 2^(bits/2) 16-bit entries: 2 KiB at
/// bits 16, 512 KiB at bits 32), so a round is one table load.
class FeistelPermutation {
 public:
  /// `bits` must be even and in [2, 32]; `seed` selects the permutation.
  FeistelPermutation(int bits, uint64_t seed);

  /// Domain size 2^bits.
  uint64_t size() const { return uint64_t{1} << bits_; }

  /// Forward mapping; `x` must be < size(). Inline, like `Inverse`: the
  /// two are the per-row and per-entry kernels of procedural storage.
  uint64_t Permute(uint64_t x) const {
    const uint16_t* f = rounds_.data();
    uint64_t left = x >> half_bits_;
    uint64_t right = x & half_mask_;
    for (int r = 0; r < kRounds; ++r) {
      uint64_t next_left = right;
      uint64_t next_right = left ^ f[(r << half_bits_) | right];
      left = next_left;
      right = next_right;
    }
    return (left << half_bits_) | right;
  }

  /// Inverse mapping: Inverse(Permute(x)) == x for all x < size().
  uint64_t Inverse(uint64_t y) const {
    const uint16_t* f = rounds_.data();
    uint64_t left = y >> half_bits_;
    uint64_t right = y & half_mask_;
    for (int r = kRounds - 1; r >= 0; --r) {
      uint64_t prev_right = left;
      uint64_t prev_left = right ^ f[(r << half_bits_) | prev_right];
      left = prev_left;
      right = prev_right;
    }
    return (left << half_bits_) | right;
  }

 private:
  static constexpr int kRounds = 4;

  int bits_;
  int half_bits_;
  uint64_t half_mask_;
  /// Round r's function of half h at `rounds_[(r << half_bits_) | h]`.
  std::vector<uint16_t> rounds_;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_COMMON_PERMUTATION_H_
