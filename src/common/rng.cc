#include "common/rng.h"

namespace robustmap {

uint64_t Rng::Next() {
  // SplitMix64: advance by the golden gamma, then finalize. Mix64 adds the
  // gamma itself, so it is applied to the pre-advance state.
  const uint64_t z = Mix64(state_);
  state_ += 0x9e3779b97f4a7c15ULL;
  return z;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  // Debiased modulo via rejection sampling on the top of the range.
  uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  // 53 top bits into the mantissa.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

}  // namespace robustmap
