#include "common/permutation.h"

#include <cassert>

#include "common/rng.h"

namespace robustmap {

FeistelPermutation::FeistelPermutation(int bits, uint64_t seed) : bits_(bits) {
  assert(bits >= 2 && bits <= 62 && bits % 2 == 0);
  half_bits_ = bits / 2;
  half_mask_ = (uint64_t{1} << half_bits_) - 1;
  Rng rng(seed ^ 0x5ca1ab1e5ca1ab1eULL);
  for (auto& k : keys_) k = rng.Next();
}

}  // namespace robustmap
