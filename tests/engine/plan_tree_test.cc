#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "testing/counting_new.h"
#include "testing/map_expect.h"
#include "testing/test_env.h"
#include "workload/dataset.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ExpectMeasurementsBitIdentical;
using ::robustmap::testing::HeapAllocations;
using ::robustmap::testing::ProcEnv;

/// One cell of the random sequence: the query and the memory budgets it
/// runs under.
struct Cell {
  QuerySpec query;
  uint64_t sort_memory_bytes;
  uint64_t hash_memory_bytes;
  std::string what;
};

constexpr uint64_t kRoomyBytes = 64ull << 20;
constexpr uint64_t kTinyBytes = 4 << 10;

/// A seeded sequence of cells: mostly low-band (2^-10..2^-6 per
/// predicate), one in four wider (up to 2^-1, so consecutive builds and
/// probes overlap heavily), sometimes one predicate off, and, every fifth
/// cell, a wide cell under 4 KiB of sort and hash memory: hash joins
/// partition Grace-style and rid sorts spill there, then the tree goes
/// back to small cells.
std::vector<Cell> CellSequence(uint64_t seed, int64_t domain) {
  Rng rng(seed);
  std::vector<Cell> cells;
  for (int i = 0; i < 40; ++i) {
    Cell c;
    if (i % 5 == 4) {
      c.query = MakeStudyQuery(0.25, 0.5, domain);
      c.sort_memory_bytes = kTinyBytes;
      c.hash_memory_bytes = kTinyBytes;
      c.what = "spill cell " + std::to_string(i);
    } else {
      const double widest = i % 4 == 1 ? -1.0 : -6.0;
      const auto sel = [&] {
        return std::exp2(widest - (10.0 + widest) * rng.NextDouble());
      };
      const uint64_t off = rng.NextBounded(8);  // 0: a off, 1: b off
      c.query = MakeStudyQuery(off == 0 ? -1.0 : sel(),
                               off == 1 ? -1.0 : sel(), domain);
      c.sort_memory_bytes = kRoomyBytes;
      c.hash_memory_bytes = kRoomyBytes;
      c.what = "cell " + std::to_string(i) + " " + c.query.ToString();
    }
    cells.push_back(c);
  }
  return cells;
}

// For every study plan, one tree reused across a random cell sequence
// measures each cell exactly as a freshly built tree does: seconds bit for
// bit, rows, every I/O counter and the clock. The sequence includes Grace
// spills and sort spills, so every retained buffer, rid map, bitmap and
// scratch array sees a large cell followed by small ones.
TEST(PlanTreeTest, ReusedTreeMatchesFreshTreeOnEveryCell) {
  ProcEnv env(/*row_bits=*/14, /*value_bits=*/10);
  const Executor executor(env.db());
  RunContext* ctx = env.ctx();
  for (PlanKind kind : AllStudyPlans()) {
    SCOPED_TRACE(PlanKindLabel(kind));
    Executor::PlanTree tree =
        executor.BuildTree(executor.Prepare(kind).ValueOrDie());
    uint64_t spill_writes = 0;
    for (const Cell& cell : CellSequence(7, env.domain())) {
      SCOPED_TRACE(cell.what);
      ctx->sort_memory_bytes = cell.sort_memory_bytes;
      ctx->hash_memory_bytes = cell.hash_memory_bytes;
      auto reused = executor.Run(ctx, &tree, cell.query);
      ASSERT_TRUE(reused.ok()) << reused.status().ToString();
      const int64_t reused_ns = ctx->clock->now_ns();
      auto fresh = executor.Run(ctx, kind, cell.query);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      EXPECT_EQ(reused_ns, ctx->clock->now_ns());
      ExpectMeasurementsBitIdentical(reused.value(), fresh.value());
      if (cell.hash_memory_bytes == kTinyBytes) {
        spill_writes += reused.value().io.writes;
      }
    }
    // The spill cells really spill where the plan has a blocking
    // operator with a memory budget.
    if (kind == PlanKind::kMergeJoinAB || kind == PlanKind::kMergeJoinBA ||
        kind == PlanKind::kHashJoinAB || kind == PlanKind::kHashJoinBA ||
        kind == PlanKind::kIndexAImproved ||
        kind == PlanKind::kIndexBImproved) {
      EXPECT_GT(spill_writes, 0u);
    }
  }
}

/// The heap allocations of one warmed low-band cell of `kind`: one per
/// index cursor (MDAM's own cursor wraps one inner cursor), plus the
/// measurement's copy of the plan label when it is longer than the 15
/// characters std::string keeps inline.
uint64_t AllocsPerWarmCell(PlanKind kind) {
  switch (kind) {
    case PlanKind::kTableScan:
      return 0;
    // One cursor, and a label past 15 characters.
    case PlanKind::kIndexAImproved:
    case PlanKind::kIndexBImproved:
    case PlanKind::kCoverABBitmapFetch:
    case PlanKind::kCoverBABitmapFetch:
    case PlanKind::kCoverABScan:
      return 1 + 1;
    // Two cursors, and an inline label.
    case PlanKind::kMergeJoinAB:
    case PlanKind::kMergeJoinBA:
    case PlanKind::kHashJoinAB:
    case PlanKind::kHashJoinBA:
    case PlanKind::kBitmapAndFetch:
    case PlanKind::kMdamAB:
    case PlanKind::kMdamBA:
      return 2 + 0;
    case PlanKind::kIndexANaive:
    case PlanKind::kIndexBNaive:
      break;
  }
  ADD_FAILURE() << PlanKindLabel(kind) << " is not a study plan";
  return 0;
}

// After one warm-up cell, a cell on a reused tree allocates only its index
// cursors and its label copy (`AllocsPerWarmCell`). The cell is the
// largest of the sweep benchmark's low band (2^-8 on both predicates of a
// 2^16-row table: 256 rows per single-column range).
TEST(PlanTreeTest, WarmedLowBandCellAllocatesOnlyCursorsAndLabel) {
  StudyOptions opts;
  opts.row_bits = 16;
  auto env = StudyEnvironment::Create(opts).ValueOrDie();
  const Executor& executor = env->executor();
  const QuerySpec query = env->MakeQuery(0x1p-8, 0x1p-8);
  for (PlanKind kind : AllStudyPlans()) {
    SCOPED_TRACE(PlanKindLabel(kind));
    Executor::PlanTree tree =
        executor.BuildTree(executor.Prepare(kind).ValueOrDie());
    ASSERT_TRUE(executor.Run(env->ctx(), &tree, query).ok());
    const uint64_t before = HeapAllocations();
    auto m = executor.Run(env->ctx(), &tree, query);
    const uint64_t allocs = HeapAllocations() - before;
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(allocs, AllocsPerWarmCell(kind));
  }
}

}  // namespace
}  // namespace robustmap
