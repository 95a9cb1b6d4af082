#ifndef ROBUSTMAP_COMMON_PERMUTATION_H_
#define ROBUSTMAP_COMMON_PERMUTATION_H_

#include <cstdint>

#include "common/rng.h"

namespace robustmap {

/// Invertible pseudo-random permutation of [0, 2^bits), bits even, 2..62.
///
/// Implemented as a 4-round balanced Feistel network over `bits/2`-bit
/// halves. The permutation is the backbone of procedural storage: column
/// values are defined as `Permute(rid)`-derived, and index lookups invert
/// them with `Inverse(value)`, so both a table page and an index leaf can be
/// synthesized on demand without materializing 2^26 rows.
class FeistelPermutation {
 public:
  /// `bits` must be even and in [2, 62]; `seed` selects the permutation.
  FeistelPermutation(int bits, uint64_t seed);

  /// Domain size 2^bits.
  uint64_t size() const { return uint64_t{1} << bits_; }

  /// Forward mapping; `x` must be < size(). Inline, like `Inverse`: the
  /// two are the per-row and per-entry kernels of procedural storage.
  uint64_t Permute(uint64_t x) const {
    uint64_t left = x >> half_bits_;
    uint64_t right = x & half_mask_;
    for (int r = 0; r < kRounds; ++r) {
      uint64_t next_left = right;
      uint64_t next_right = left ^ RoundFunction(r, right);
      left = next_left;
      right = next_right;
    }
    return (left << half_bits_) | right;
  }

  /// Inverse mapping: Inverse(Permute(x)) == x for all x < size().
  uint64_t Inverse(uint64_t y) const {
    uint64_t left = y >> half_bits_;
    uint64_t right = y & half_mask_;
    for (int r = kRounds - 1; r >= 0; --r) {
      uint64_t prev_right = left;
      uint64_t prev_left = right ^ RoundFunction(r, prev_right);
      left = prev_left;
      right = prev_right;
    }
    return (left << half_bits_) | right;
  }

 private:
  static constexpr int kRounds = 4;

  uint64_t RoundFunction(int round, uint64_t half) const {
    return Mix64(half ^ keys_[round]) & half_mask_;
  }

  int bits_;
  int half_bits_;
  uint64_t half_mask_;
  uint64_t keys_[kRounds];
};

}  // namespace robustmap

#endif  // ROBUSTMAP_COMMON_PERMUTATION_H_
