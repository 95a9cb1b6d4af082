#include "common/permutation.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"

namespace robustmap {
namespace {

/// The Feistel network written out from its definition: round r maps half
/// h to Mix64(h ^ key_r) & half_mask, computed on every call. The class
/// tabulates the rounds instead and must agree everywhere.
class ReferenceFeistel {
 public:
  ReferenceFeistel(int bits, uint64_t seed)
      : half_bits_(bits / 2), mask_((uint64_t{1} << half_bits_) - 1) {
    Rng rng(seed ^ 0x5ca1ab1e5ca1ab1eULL);
    for (uint64_t& k : keys_) k = rng.Next();
  }

  uint64_t Permute(uint64_t x) const {
    uint64_t left = x >> half_bits_, right = x & mask_;
    for (int r = 0; r < 4; ++r) {
      const uint64_t next_right = left ^ (Mix64(right ^ keys_[r]) & mask_);
      left = right;
      right = next_right;
    }
    return (left << half_bits_) | right;
  }

  uint64_t Inverse(uint64_t y) const {
    uint64_t left = y >> half_bits_, right = y & mask_;
    for (int r = 3; r >= 0; --r) {
      const uint64_t prev_left = right ^ (Mix64(left ^ keys_[r]) & mask_);
      right = left;
      left = prev_left;
    }
    return (left << half_bits_) | right;
  }

 private:
  int half_bits_;
  uint64_t mask_;
  uint64_t keys_[4];
};

TEST(PermutationTest, MatchesReferenceOverFullSmallDomains) {
  for (int bits = 2; bits <= 16; bits += 2) {
    SCOPED_TRACE("bits " + std::to_string(bits));
    const uint64_t seed = 1000 + static_cast<uint64_t>(bits);
    const FeistelPermutation perm(bits, seed);
    const ReferenceFeistel ref(bits, seed);
    for (uint64_t x = 0; x < perm.size(); ++x) {
      ASSERT_EQ(perm.Permute(x), ref.Permute(x)) << "x = " << x;
      ASSERT_EQ(perm.Inverse(x), ref.Inverse(x)) << "x = " << x;
    }
  }
}

TEST(PermutationTest, MatchesReferenceAtSeededPointsOfLargeDomains) {
  for (int bits = 18; bits <= 32; bits += 2) {
    SCOPED_TRACE("bits " + std::to_string(bits));
    const uint64_t seed = 2000 + static_cast<uint64_t>(bits);
    const FeistelPermutation perm(bits, seed);
    const ReferenceFeistel ref(bits, seed);
    Rng points(static_cast<uint64_t>(bits));
    for (int i = 0; i < 100000; ++i) {
      const uint64_t x = points.NextBounded(perm.size());
      ASSERT_EQ(perm.Permute(x), ref.Permute(x)) << "x = " << x;
      ASSERT_EQ(perm.Inverse(x), ref.Inverse(x)) << "x = " << x;
    }
  }
}

// Property sweep: bijectivity over the full domain for several sizes.
class PermutationBijectionTest : public ::testing::TestWithParam<int> {};

TEST_P(PermutationBijectionTest, IsBijective) {
  int bits = GetParam();
  FeistelPermutation perm(bits, 99);
  uint64_t n = uint64_t{1} << bits;
  std::vector<bool> seen(n, false);
  for (uint64_t x = 0; x < n; ++x) {
    uint64_t y = perm.Permute(x);
    ASSERT_LT(y, n);
    ASSERT_FALSE(seen[y]) << "collision at " << x;
    seen[y] = true;
  }
}

TEST_P(PermutationBijectionTest, InverseRoundTrips) {
  int bits = GetParam();
  FeistelPermutation perm(bits, 7);
  uint64_t n = uint64_t{1} << bits;
  for (uint64_t x = 0; x < n; ++x) {
    ASSERT_EQ(perm.Inverse(perm.Permute(x)), x);
    ASSERT_EQ(perm.Permute(perm.Inverse(x)), x);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PermutationBijectionTest,
                         ::testing::Values(2, 4, 8, 10, 12, 14));

TEST(PermutationTest, SeedsProduceDifferentPermutations) {
  FeistelPermutation a(12, 1), b(12, 2);
  int same = 0;
  for (uint64_t x = 0; x < 4096; ++x) {
    if (a.Permute(x) == b.Permute(x)) ++same;
  }
  EXPECT_LT(same, 40);  // ~1/4096 expected collisions per point
}

TEST(PermutationTest, LooksScrambled) {
  FeistelPermutation perm(16, 5);
  // No long identity runs.
  int identity = 0;
  for (uint64_t x = 0; x < 65536; ++x) {
    if (perm.Permute(x) == x) ++identity;
  }
  EXPECT_LT(identity, 20);
}

TEST(PermutationTest, LargeDomainRoundTrip) {
  FeistelPermutation perm(26, 42);
  for (uint64_t x = 0; x < (1u << 26); x += 104729) {
    ASSERT_EQ(perm.Inverse(perm.Permute(x)), x);
  }
}

}  // namespace
}  // namespace robustmap
