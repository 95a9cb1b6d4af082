#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "exec/bitmap_ops.h"
#include "exec/hash_join.h"
#include "exec/index_scan.h"
#include "exec/merge_join.h"
#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::CollectRids;
using ::robustmap::testing::ProcEnv;

OperatorPtr ScanA(ProcEnv* env, int64_t lo, int64_t hi) {
  IndexScanOptions opts;
  opts.k0_lo = lo;
  opts.k0_hi = hi;
  return std::make_unique<IndexScanOp>(env->idx_a(), opts);
}

OperatorPtr ScanB(ProcEnv* env, int64_t lo, int64_t hi) {
  IndexScanOptions opts;
  opts.k0_lo = lo;
  opts.k0_hi = hi;
  return std::make_unique<IndexScanOp>(env->idx_b(), opts);
}

TEST(MergeJoinTest, IntersectionMatchesBruteForce) {
  ProcEnv env;
  MergeJoinOp join(ScanA(&env, 0, 20), ScanB(&env, 30, 63));
  EXPECT_EQ(CollectRids(env.ctx(), &join), env.MatchingRids(0, 20, 30, 63));
}

TEST(MergeJoinTest, OutputCoversBothColumns) {
  ProcEnv env;
  MergeJoinOp join(ScanA(&env, 0, 63), ScanB(&env, 0, 63));
  ASSERT_TRUE(join.Open(env.ctx()).ok());
  Row r;
  ASSERT_TRUE(join.Next(env.ctx(), &r));
  EXPECT_TRUE(r.HasCol(0));
  EXPECT_TRUE(r.HasCol(1));
  EXPECT_EQ(r.cols[0], env.table().ValueAt(r.rid, 0));
  EXPECT_EQ(r.cols[1], env.table().ValueAt(r.rid, 1));
  join.Close(env.ctx());
}

TEST(MergeJoinTest, DisjointInputsYieldNothing) {
  ProcEnv env;
  MergeJoinOp join(ScanA(&env, 64, 70), ScanB(&env, 0, 63));
  EXPECT_TRUE(CollectRids(env.ctx(), &join).empty());
}

TEST(MergeJoinTest, CostSymmetricInJoinOrder) {
  ProcEnv env;
  auto measure = [&](bool swap) {
    env.ctx()->clock->Reset();
    env.ctx()->pool->Clear();
    env.ctx()->device->ResetHead();
    auto left = ScanA(&env, 0, 7);
    auto right = ScanB(&env, 0, 63);
    MergeJoinOp join(swap ? std::move(right) : std::move(left),
                     swap ? std::move(left) : std::move(right));
    (void)DrainCount(env.ctx(), &join);
    return env.ctx()->clock->now_ns();
  };
  int64_t t1 = measure(false);
  int64_t t2 = measure(true);
  // Near-symmetric: only the inter-extent seek order differs between the
  // two drain orders, which matters at this tiny scale (a handful of
  // seeks). The (s_a, s_b) <-> (s_b, s_a) symmetry of Figure 5 is asserted
  // at realistic scale in the integration test.
  EXPECT_NEAR(static_cast<double>(t1) / t2, 1.0, 0.3);
}

TEST(HashJoinTest, IntersectionMatchesBruteForce) {
  ProcEnv env;
  HashJoinOp join(ScanA(&env, 5, 40), ScanB(&env, 20, 50));
  EXPECT_EQ(CollectRids(env.ctx(), &join), env.MatchingRids(5, 40, 20, 50));
}

TEST(HashJoinTest, SpillPathProducesSameResult) {
  ProcEnv env;
  env.ctx()->hash_memory_bytes = 1024;  // force a Grace spill
  HashJoinOp join(ScanA(&env, 0, 40), ScanB(&env, 10, 63));
  EXPECT_EQ(CollectRids(env.ctx(), &join), env.MatchingRids(0, 40, 10, 63));
  EXPECT_GT(join.partition_pages_written(), 0u);
}

TEST(HashJoinTest, InMemoryPathDoesNotSpill) {
  ProcEnv env;
  HashJoinOp join(ScanA(&env, 0, 1), ScanB(&env, 0, 63));
  (void)CollectRids(env.ctx(), &join);
  EXPECT_EQ(join.partition_pages_written(), 0u);
}

TEST(HashJoinTest, CostAsymmetricInBuildSide) {
  ProcEnv env(/*row_bits=*/14, /*value_bits=*/6);
  env.ctx()->hash_memory_bytes = 16 * 1024;
  auto measure = [&](bool build_large) {
    env.ctx()->clock->Reset();
    env.ctx()->pool->Clear();
    env.ctx()->device->ResetHead();
    auto small = ScanA(&env, 0, 0);
    auto large = ScanB(&env, 0, 63);
    HashJoinOp join(build_large ? std::move(large) : std::move(small),
                    build_large ? std::move(small) : std::move(large));
    (void)DrainCount(env.ctx(), &join);
    return env.ctx()->clock->now_ns();
  };
  int64_t t_good = measure(false);  // build on the small side
  int64_t t_bad = measure(true);    // build on the large side -> spill
  EXPECT_GT(t_bad, t_good);
}

TEST(BitmapAndTest, IntersectionMatchesBruteForce) {
  ProcEnv env;
  BitmapAndOp join(ScanA(&env, 0, 30), ScanB(&env, 15, 45),
                   env.table().num_rows());
  EXPECT_EQ(CollectRids(env.ctx(), &join), env.MatchingRids(0, 30, 15, 45));
}

TEST(BitmapAndTest, EmitsRidsInAscendingOrder) {
  ProcEnv env;
  BitmapAndOp join(ScanA(&env, 0, 63), ScanB(&env, 0, 63),
                   env.table().num_rows());
  ASSERT_TRUE(join.Open(env.ctx()).ok());
  Row r;
  Rid prev = 0;
  bool first = true;
  while (join.Next(env.ctx(), &r)) {
    if (!first) {
      ASSERT_GT(r.rid, prev);
    }
    prev = r.rid;
    first = false;
  }
  join.Close(env.ctx());
}

/// Every member of `bits` in scan order.
std::vector<Rid> Members(const RidBitmap& bits) {
  std::vector<Rid> out;
  for (uint64_t from = 0;;) {
    const uint64_t pos = bits.Next(from);
    if (pos >= bits.num_rids()) break;
    if (pos < from) {
      ADD_FAILURE() << "Next(" << from << ") went back to " << pos;
      break;
    }
    out.push_back(pos);
    from = pos + 1;
  }
  return out;
}

TEST(RidBitmapTest, WordAndBlockEdges) {
  // Tables that end in a partial word of a partial 4,096-rid summary
  // block (4,098 and 8,193 rids) and on a block boundary (12,288).
  for (uint64_t n : {uint64_t{4098}, uint64_t{8193}, uint64_t{64 * 64 * 3}}) {
    SCOPED_TRACE("num_rids " + std::to_string(n));
    RidBitmap bits;
    bits.Reset(n);
    EXPECT_EQ(bits.num_words(), (n + 63) / 64);
    const std::vector<Rid> want = {0, 63, 64, 4095, 4096, n - 1};
    for (Rid r : want) bits.Set(r);
    for (Rid r : want) bits.Set(r);  // duplicates change nothing
    EXPECT_EQ(Members(bits), want);
    EXPECT_EQ(bits.Next(1), 63u);
    EXPECT_EQ(bits.Next(65), 4095u);
    EXPECT_EQ(bits.Next(4097), n - 1);
    EXPECT_EQ(bits.Next(n), n);
  }
}

TEST(RidBitmapTest, EmptySetScansToTheEnd) {
  RidBitmap bits;
  bits.Reset(10000);
  EXPECT_EQ(bits.Next(0), 10000u);
  EXPECT_TRUE(Members(bits).empty());
  bits.Reset(0);
  EXPECT_EQ(bits.Next(0), 0u);
}

TEST(RidBitmapTest, AndKeepsTheIntersection) {
  const uint64_t n = 9000;
  RidBitmap evens;
  RidBitmap odds;
  RidBitmap threes;
  evens.Reset(n);
  odds.Reset(n);
  threes.Reset(n);
  std::vector<Rid> sixes;
  for (Rid r = 0; r < n; ++r) {
    (r % 2 == 0 ? evens : odds).Set(r);
    if (r % 3 == 0) threes.Set(r);
    if (r % 6 == 0) sixes.push_back(r);
  }
  RidBitmap both = evens;
  both.And(threes);
  EXPECT_EQ(Members(both), sixes);

  evens.And(odds);  // disjoint
  EXPECT_TRUE(Members(evens).empty());
  EXPECT_EQ(evens.Next(0), n);
}

TEST(RidBitmapTest, AndClearsWordsOnlyOneSideMarks) {
  RidBitmap a;
  RidBitmap b;
  a.Reset(20000);
  b.Reset(20000);
  for (Rid r : {5, 70, 4200, 12000, 19999}) a.Set(r);
  for (Rid r : {6, 70, 12000, 12001}) b.Set(r);
  a.And(b);
  EXPECT_EQ(Members(a), (std::vector<Rid>{70, 12000}));
  // A scan that starts inside a cleared word must not find its old bits.
  EXPECT_EQ(a.Next(5), 70u);
  EXPECT_EQ(a.Next(4200), 12000u);
  EXPECT_EQ(a.Next(19999), 20000u);
}

TEST(BitmapAndTest, EmptyAndDisjointInputs) {
  ProcEnv env;
  // Values 70..80 lie beyond the 64-value domain: the left side is empty.
  BitmapAndOp empty(ScanA(&env, 70, 80), ScanB(&env, 0, 63),
                    env.table().num_rows());
  EXPECT_TRUE(CollectRids(env.ctx(), &empty).empty());
  // No row has both a = 0 and a = 1.
  BitmapAndOp disjoint(ScanA(&env, 0, 0), ScanA(&env, 1, 1),
                       env.table().num_rows());
  EXPECT_TRUE(CollectRids(env.ctx(), &disjoint).empty());
}

TEST(RidMapTest, InsertFindAbsent) {
  RidMap map(100);
  for (Rid r = 0; r < 100; ++r) map.Insert(r * 3, static_cast<uint32_t>(r));
  EXPECT_EQ(map.size(), 100u);
  for (Rid r = 0; r < 100; ++r) {
    EXPECT_EQ(map.Find(r * 3), r);
  }
  EXPECT_EQ(map.Find(1), UINT32_MAX);
  EXPECT_EQ(map.Find(301), UINT32_MAX);
}

TEST(RidMapTest, DuplicateInsertKeepsFirst) {
  RidMap map(10);
  map.Insert(7, 1);
  map.Insert(7, 2);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.Find(7), 1u);
}

}  // namespace
}  // namespace robustmap
