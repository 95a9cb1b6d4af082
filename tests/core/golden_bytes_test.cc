// Golden bytes: values recorded once and compared against constants, not
// against another backend of the same binary. Every other identity check
// (serial vs threaded vs sharded, traced vs untraced, mapbench digests)
// compares two runs of the current code, so a change to the entry
// synthesis kernels or the exec layer that moved every cell the same way
// would pass all of them. These pins fail instead. A change that means to
// move map bytes must update them deliberately and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "common/permutation.h"
#include "common/rng.h"
#include "core/map_io.h"
#include "core/sweep_engine.h"
#include "core/wire_format.h"
#include "engine/plan.h"
#include "workload/dataset.h"

namespace robustmap {
namespace {

TEST(GoldenBytesTest, Mix64) {
  EXPECT_EQ(Mix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(Mix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(Mix64(0x0123456789abcdefULL), 0x157a3807a48faa9dULL);
  EXPECT_EQ(Mix64(~uint64_t{0}), 0xe4d971771b652c20ULL);
}

TEST(GoldenBytesTest, RngStream) {
  Rng rng(42);
  EXPECT_EQ(rng.Next(), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(rng.Next(), 0x28efe333b266f103ULL);
  EXPECT_EQ(rng.Next(), 0x47526757130f9f52ULL);
}

TEST(GoldenBytesTest, FeistelPermutation) {
  const FeistelPermutation perm(16, 7);
  const uint64_t xs[] = {0, 1, 4095, 4096, 65535};
  const uint64_t permuted[] = {48094, 38001, 2153, 47516, 49737};
  const uint64_t inverted[] = {15888, 48203, 62090, 38600, 52438};
  for (size_t i = 0; i < std::size(xs); ++i) {
    SCOPED_TRACE("x = " + std::to_string(xs[i]));
    EXPECT_EQ(perm.Permute(xs[i]), permuted[i]);
    EXPECT_EQ(perm.Inverse(xs[i]), inverted[i]);
  }
  // The smallest and largest domains and two in between, seed 7 each:
  // x = 0, 1, size / 3 and size - 1 (bits 2 happens to be the identity).
  struct Pin {
    int bits;
    uint64_t permuted[4];
    uint64_t inverted[4];
  };
  const Pin pins[] = {
      {2, {0, 1, 1, 3}, {0, 1, 1, 3}},
      {12, {969, 2807, 730, 486}, {2027, 3578, 2629, 3663}},
      {26,
       {2777337, 32997238, 24367654, 8740361},
       {11961744, 11254381, 1090188, 692009}},
      {32,
       {80295702, 1483692511, 3856086919, 3092268869},
       {906655191, 4278308713, 2139551079, 1403357474}},
  };
  for (const Pin& pin : pins) {
    const FeistelPermutation sized(pin.bits, 7);
    const uint64_t n = sized.size();
    const uint64_t at[] = {0, 1, n / 3, n - 1};
    for (size_t i = 0; i < std::size(at); ++i) {
      SCOPED_TRACE("bits " + std::to_string(pin.bits) + ", x = " +
                   std::to_string(at[i]));
      EXPECT_EQ(sized.Permute(at[i]), pin.permuted[i]);
      EXPECT_EQ(sized.Inverse(at[i]), pin.inverted[i]);
    }
  }
}

/// FNV-1a over the `WriteMapTile` bytes of the serial 13-plan map of
/// `space` over 4,096 rows with 2^value_bits distinct values per column.
uint64_t SerialMapDigest(const ParameterSpace& space, int value_bits) {
  StudyOptions opts;
  opts.row_bits = 12;
  opts.value_bits = value_bits;
  auto env = StudyEnvironment::Create(opts).ValueOrDie();
  SweepRequest req;
  req.plans = AllStudyPlans();
  req.space = space;
  req.sweep.num_threads = 1;
  const RobustnessMap map =
      SweepEngine::Run(env->ctx(), env->executor(), req).ValueOrDie().map();
  TileSpec full;
  full.x_end = space.x_size();
  full.y_end = space.y_size();
  std::ostringstream os;
  EXPECT_TRUE(WriteMapTile(os, MapTile{full, space, map}).ok());
  const std::string bytes = os.str();
  return wire::Fnv1a64(bytes.data(), bytes.size());
}

TEST(GoldenBytesTest, SerialMapLowBand) {
  // 2^-12..2^-4 at 2 steps per octave: the cheap band where each cell
  // touches a few dozen index entries. 4 rows per value, as in the
  // map-production benchmark, so the band resolves down to single values.
  const ParameterSpace space =
      ParameterSpace::TwoD(Axis::SelectivityFine("a", -12, -4, 2),
                           Axis::SelectivityFine("b", -12, -4, 2));
  EXPECT_EQ(SerialMapDigest(space, /*value_bits=*/10), 9209757738236220951ULL);
}

TEST(GoldenBytesTest, SerialMapPaperGrid) {
  // The paper's 13 x 13 grid, 2^-12..1 on both predicates, with 64 rows
  // per value as at the default scale (composite groups of 64 entries).
  const ParameterSpace space = ParameterSpace::TwoD(
      Axis::Selectivity("a", -12, 0), Axis::Selectivity("b", -12, 0));
  EXPECT_EQ(SerialMapDigest(space, /*value_bits=*/6), 11920684836973472563ULL);
}

}  // namespace
}  // namespace robustmap
