#include "exec/sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "exec/index_scan.h"
#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ProcEnv;

OperatorPtr ScanA(ProcEnv* env, int64_t lo, int64_t hi) {
  IndexScanOptions opts;
  opts.k0_lo = lo;
  opts.k0_hi = hi;
  return std::make_unique<IndexScanOp>(env->idx_a(), opts);
}

TEST(SortOpTest, SortsByRid) {
  ProcEnv env;
  SortOp sort(ScanA(&env, 0, 63), {SortKeySpec::Kind::kRid, 0},
              SpillKind::kGraceful);
  ASSERT_TRUE(sort.Open(env.ctx()).ok());
  Row r;
  Rid prev = 0;
  bool first = true;
  size_t n = 0;
  while (sort.Next(env.ctx(), &r)) {
    if (!first) {
      ASSERT_GT(r.rid, prev);
    }
    prev = r.rid;
    first = false;
    ++n;
  }
  sort.Close(env.ctx());
  EXPECT_EQ(n, env.table().num_rows());
}

TEST(SortOpTest, SortsByColumn) {
  ProcEnv env;
  SortOp sort(ScanA(&env, 0, 63), {SortKeySpec::Kind::kColumn, 0},
              SpillKind::kGraceful);
  ASSERT_TRUE(sort.Open(env.ctx()).ok());
  Row r;
  int64_t prev = INT64_MIN;
  while (sort.Next(env.ctx(), &r)) {
    ASSERT_GE(r.cols[0], prev);
    prev = r.cols[0];
  }
  sort.Close(env.ctx());
}

TEST(SortOpTest, NoSpillWhenInputFits) {
  ProcEnv env;
  env.ctx()->sort_memory_bytes = 1 << 20;
  SortOp sort(ScanA(&env, 0, 7), {SortKeySpec::Kind::kRid, 0},
              SpillKind::kGraceful);
  ASSERT_TRUE(sort.Open(env.ctx()).ok());
  EXPECT_EQ(sort.spilled_pages(), 0u);
  sort.Close(env.ctx());
}

TEST(SortOpTest, GracefulSpillsOnlyOverflow) {
  ProcEnv env;
  // Input: 4096 rows * 16 B = 64 KiB; memory 48 KiB -> overflow 16 KiB.
  env.ctx()->sort_memory_bytes = 48 << 10;
  SortOp sort(ScanA(&env, 0, 63), {SortKeySpec::Kind::kRid, 0},
              SpillKind::kGraceful);
  ASSERT_TRUE(sort.Open(env.ctx()).ok());
  uint64_t page = env.ctx()->device->model().params().page_size_bytes;
  EXPECT_GT(sort.spilled_pages(), 0u);
  EXPECT_LE(sort.spilled_pages(), (16u << 10) / page + 1);
  sort.Close(env.ctx());
}

TEST(SortOpTest, NaiveSpillsEntireInput) {
  ProcEnv env;
  env.ctx()->sort_memory_bytes = 48 << 10;
  SortOp sort(ScanA(&env, 0, 63), {SortKeySpec::Kind::kRid, 0},
              SpillKind::kNaive);
  ASSERT_TRUE(sort.Open(env.ctx()).ok());
  uint64_t page = env.ctx()->device->model().params().page_size_bytes;
  EXPECT_GE(sort.spilled_pages(), (64u << 10) / page);
  sort.Close(env.ctx());
}

TEST(SortOpTest, NaiveAndGracefulProduceIdenticalOutput) {
  ProcEnv env;
  env.ctx()->sort_memory_bytes = 4 << 10;
  auto run = [&](SpillKind kind) {
    SortOp sort(ScanA(&env, 0, 63), {SortKeySpec::Kind::kColumn, 1}, kind);
    std::vector<Rid> rids;
    EXPECT_TRUE(sort.Open(env.ctx()).ok());
    Row r;
    while (sort.Next(env.ctx(), &r)) rids.push_back(r.rid);
    sort.Close(env.ctx());
    return rids;
  };
  EXPECT_EQ(run(SpillKind::kGraceful), run(SpillKind::kNaive));
}

TEST(ChargeSortCostTest, ZeroItemsFree) {
  ProcEnv env;
  env.ctx()->clock->Reset();
  EXPECT_EQ(ChargeSortCost(env.ctx(), 0, 16, 1024, SpillKind::kGraceful), 0u);
  EXPECT_EQ(env.ctx()->clock->now_ns(), 0);
}

TEST(ChargeSortCostTest, DiscontinuityOnlyForNaive) {
  ProcEnv env;
  uint64_t mem = 8 << 20;  // large memory: the cliff is the input's size
  auto cost_at = [&](uint64_t items, SpillKind kind) {
    env.ctx()->clock->Reset();
    ChargeSortCost(env.ctx(), items, 16, mem, kind);
    return env.ctx()->clock->now_ns();
  };
  uint64_t boundary = mem / 16;
  // One item past the boundary:
  int64_t graceful_above = cost_at(boundary + 1, SpillKind::kGraceful);
  int64_t naive_below = cost_at(boundary, SpillKind::kNaive);
  int64_t naive_above = cost_at(boundary + 1, SpillKind::kNaive);
  // Naive: the whole 8 MiB input's I/O appears at once ("a single record"
  // past memory, §4): ~1000 temp pages against the graceful sort's one.
  env.ctx()->clock->Reset();
  uint64_t graceful_pages =
      ChargeSortCost(env.ctx(), boundary + 1, 16, mem, SpillKind::kGraceful);
  env.ctx()->clock->Reset();
  uint64_t naive_pages =
      ChargeSortCost(env.ctx(), boundary + 1, 16, mem, SpillKind::kNaive);
  EXPECT_EQ(graceful_pages, 1u);
  EXPECT_GE(naive_pages, mem / 8192);
  // Time view: the naive jump doubles total cost even though the (identical)
  // comparison CPU dominates at this input size.
  EXPECT_GT(naive_above, naive_below * 3 / 2);
  EXPECT_GT(naive_above, graceful_above * 3 / 2);
}

// `SortByRid` against `std::stable_sort` by rid: sizes on both sides of
// both `std::sort` cutoffs, rid widths from 1 bit to past 32 bits (one to
// five radix passes), and few distinct rids. Rows carry their input
// position in a column, so a reorder of equal rids shows: the radix sort,
// from the cutoff up, must keep their input order; below it the rows must
// still be the input's. The scratch buffers are reused across cases, as an
// operator reuses them across cells.
TEST(SortByRidTest, MatchesStableSort) {
  Rng rng(20260);
  std::vector<Row> rows, row_scratch;
  std::vector<Rid> rids, rid_scratch;
  const std::vector<int> widths = {1, 2, 7, 8, 9, 12, 16, 17, 24, 31, 32, 33,
                                   40, 63};
  const std::vector<size_t> sizes = {0,
                                     1,
                                     2,
                                     kRadixSortMinRows - 1,
                                     kRadixSortMinRows,
                                     kRadixSortMinRows + 1,
                                     kRadixSortMinRids - 1,
                                     kRadixSortMinRids,
                                     kRadixSortMinRids + 1,
                                     1000,
                                     5000};
  const auto by_rid = [](const Row& a, const Row& b) { return a.rid < b.rid; };
  const auto by_rid_then_position = [](const Row& a, const Row& b) {
    return a.rid != b.rid ? a.rid < b.rid : a.cols[0] < b.cols[0];
  };
  for (int width : widths) {
    for (size_t n : sizes) {
      for (bool few_distinct : {false, true}) {
        const uint64_t mask = (uint64_t{1} << width) - 1;
        // Few distinct rids: 5 values spread over the width's range.
        std::vector<Rid> pool;
        for (int i = 0; i < 5; ++i) pool.push_back(rng.Next() & mask);
        rows.clear();
        rids.clear();
        for (size_t i = 0; i < n; ++i) {
          const Rid rid =
              few_distinct ? pool[rng.NextBounded(5)] : (rng.Next() & mask);
          Row r;
          r.rid = rid;
          r.SetCol(0, static_cast<int64_t>(i));
          rows.push_back(r);
          rids.push_back(rid);
        }
        std::vector<Row> want_rows = rows;
        std::stable_sort(want_rows.begin(), want_rows.end(), by_rid);
        std::vector<Rid> want_rids = rids;
        std::stable_sort(want_rids.begin(), want_rids.end());

        SortByRid(&rows, &row_scratch);
        SortByRid(&rids, &rid_scratch);
        const std::string where = "width " + std::to_string(width) + ", n " +
                                  std::to_string(n) +
                                  (few_distinct ? ", few distinct" : "");
        ASSERT_EQ(rows.size(), n) << where;
        // Below the cutoff `std::sort` may reorder equal rids.
        if (n < kRadixSortMinRows) {
          std::sort(rows.begin(), rows.end(), by_rid_then_position);
        }
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(rows[i].rid, want_rows[i].rid) << where << ", at " << i;
          ASSERT_EQ(rows[i].cols[0], want_rows[i].cols[0])
              << where << ", at " << i;
          ASSERT_EQ(rows[i].valid_cols, want_rows[i].valid_cols) << where;
        }
        ASSERT_EQ(rids, want_rids) << where;
      }
    }
  }
}

TEST(ChargeSortCostTest, MorePassesForHugeInputs) {
  ProcEnv env;
  uint64_t mem = 16 << 10;  // tiny memory, fan-in 2
  env.ctx()->clock->Reset();
  uint64_t small = ChargeSortCost(env.ctx(), 10000, 16, mem, SpillKind::kNaive);
  env.ctx()->clock->Reset();
  uint64_t large =
      ChargeSortCost(env.ctx(), 1000000, 16, mem, SpillKind::kNaive);
  // Temp I/O grows superlinearly (more merge passes).
  EXPECT_GT(large, small * 100);
}

}  // namespace
}  // namespace robustmap
