#ifndef ROBUSTMAP_COMMON_RNG_H_
#define ROBUSTMAP_COMMON_RNG_H_

#include <cstdint>

namespace robustmap {

/// Deterministic 64-bit pseudo-random number generator (SplitMix64).
///
/// All randomness in the library flows through explicitly seeded `Rng`
/// instances so that every experiment is bit-for-bit reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  /// Next 64 uniformly random bits.
  uint64_t Next();

  /// Uniform in [0, bound). `bound` must be non-zero.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform in the inclusive range [lo, hi].
  int64_t NextInRange(int64_t lo, int64_t hi);

 private:
  uint64_t state_;
};

/// Stateless scrambling of a 64-bit value (finalizer of SplitMix64).
/// Useful for deriving per-key deterministic "random" values. Inline: it
/// is the inner kernel of every procedural row and index entry.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace robustmap

#endif  // ROBUSTMAP_COMMON_RNG_H_
