#include "common/permutation.h"

#include <cassert>

#include "common/rng.h"

namespace robustmap {

FeistelPermutation::FeistelPermutation(int bits, uint64_t seed) : bits_(bits) {
  assert(bits >= 2 && bits <= 32 && bits % 2 == 0);
  half_bits_ = bits / 2;
  half_mask_ = (uint64_t{1} << half_bits_) - 1;
  rounds_.resize(kRounds << half_bits_);
  Rng rng(seed ^ 0x5ca1ab1e5ca1ab1eULL);
  for (int r = 0; r < kRounds; ++r) {
    const uint64_t key = rng.Next();
    for (uint64_t h = 0; h <= half_mask_; ++h) {
      rounds_[(r << half_bits_) | h] =
          static_cast<uint16_t>(Mix64(h ^ key) & half_mask_);
    }
  }
}

}  // namespace robustmap
