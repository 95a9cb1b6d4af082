#include "engine/executor.h"

#include <gtest/gtest.h>

#include "engine/query.h"
#include "testing/map_expect.h"
#include "testing/test_env.h"
#include "workload/distributions.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ExpectMeasurementsBitIdentical;
using ::robustmap::testing::ProcEnv;

// Every study plan must compute the same (correct) result for the same
// query — the core cross-validation of the 13 plan implementations.
class AllPlansAgreeTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(AllPlansAgreeTest, SameCountsOnProceduralStorage) {
  ProcEnv env;
  Executor executor(env.db());
  auto [sa, sb] = GetParam();
  QuerySpec q = MakeStudyQuery(sa, sb, env.domain());
  uint64_t expected = env.CountMatching(q.pred_a.lo, q.pred_a.hi, q.pred_b.lo,
                                        q.pred_b.hi);
  for (PlanKind kind : AllStudyPlans()) {
    auto m = executor.Run(env.ctx(), kind, q);
    ASSERT_TRUE(m.ok()) << PlanKindLabel(kind) << ": "
                        << m.status().ToString();
    EXPECT_EQ(m.value().output_rows, expected) << PlanKindLabel(kind);
    EXPECT_GT(m.value().seconds, 0) << PlanKindLabel(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SelectivityGrid, AllPlansAgreeTest,
    ::testing::Values(std::make_pair(1.0, 1.0), std::make_pair(0.25, 0.01),
                      std::make_pair(0.01, 0.25), std::make_pair(1.0, 0.002),
                      std::make_pair(0.002, 0.002),
                      std::make_pair(0.0625, 0.5)));

TEST(ExecutorTest, SinglePredicateQueriesWork) {
  ProcEnv env;
  Executor executor(env.db());
  QuerySpec q = MakeStudyQuery(0.125, -1, env.domain());
  uint64_t expected =
      env.CountMatching(q.pred_a.lo, q.pred_a.hi, INT64_MIN, INT64_MAX);
  for (PlanKind kind :
       {PlanKind::kTableScan, PlanKind::kIndexANaive,
        PlanKind::kIndexAImproved, PlanKind::kMergeJoinAB,
        PlanKind::kHashJoinBA, PlanKind::kMdamAB}) {
    auto m = executor.Run(env.ctx(), kind, q);
    ASSERT_TRUE(m.ok()) << PlanKindLabel(kind);
    EXPECT_EQ(m.value().output_rows, expected) << PlanKindLabel(kind);
  }
}

// Every study plan with either predicate off: the plans bind the inactive
// predicate as the whole domain, and the composite-index plans filter, or
// navigate, only an active second predicate in-index.
TEST(ExecutorTest, EveryPlanAgreesWithOnePredicateOff) {
  ProcEnv env;
  Executor executor(env.db());
  for (auto [sa, sb] : {std::make_pair(0.125, -1.0),
                        std::make_pair(-1.0, 0.125)}) {
    QuerySpec q = MakeStudyQuery(sa, sb, env.domain());
    const auto range = [](const PredicateSpec& p, int64_t* lo, int64_t* hi) {
      *lo = p.active ? p.lo : INT64_MIN;
      *hi = p.active ? p.hi : INT64_MAX;
    };
    int64_t a_lo, a_hi, b_lo, b_hi;
    range(q.pred_a, &a_lo, &a_hi);
    range(q.pred_b, &b_lo, &b_hi);
    const uint64_t expected = env.CountMatching(a_lo, a_hi, b_lo, b_hi);
    for (PlanKind kind : AllStudyPlans()) {
      auto m = executor.Run(env.ctx(), kind, q);
      ASSERT_TRUE(m.ok()) << PlanKindLabel(kind);
      EXPECT_EQ(m.value().output_rows, expected)
          << PlanKindLabel(kind) << " " << q.ToString();
    }
  }
}

TEST(ExecutorTest, HeapAndProceduralStorageAgree) {
  // The same plans over a real heap/B-tree database must match its own
  // brute force — proving the operators are storage-agnostic.
  VirtualClock clock;
  SimDevice device(DiskParameters{}, &clock);
  BufferPool pool(&device, 4096);
  RunContext ctx;
  ctx.clock = &clock;
  ctx.device = &device;
  ctx.pool = &pool;

  HeapDatasetOptions dopts;
  dopts.rows = 4000;
  dopts.domain = 64;
  auto dataset = BuildHeapStudyDataset(&ctx, &device, dopts).ValueOrDie();
  Executor executor(dataset.db());

  uint64_t expected = 0;
  for (Rid rid = 0; rid < dataset.table->num_rows(); ++rid) {
    int64_t a = dataset.table->RawValue(rid, 0);
    int64_t b = dataset.table->RawValue(rid, 1);
    if (a >= 0 && a <= 15 && b >= 16 && b <= 63) ++expected;
  }

  QuerySpec q;
  q.domain = 64;
  q.pred_a = {true, 0, 15, 0.25};
  q.pred_b = {true, 16, 63, 0.75};
  for (PlanKind kind : AllStudyPlans()) {
    auto m = executor.Run(&ctx, kind, q);
    ASSERT_TRUE(m.ok()) << PlanKindLabel(kind);
    EXPECT_EQ(m.value().output_rows, expected) << PlanKindLabel(kind);
  }
}

TEST(ExecutorTest, MissingIndexesAreCleanErrors) {
  ProcEnv env;
  StudyDb db = env.db();
  db.idx_ab = nullptr;
  db.idx_ba = nullptr;
  Executor executor(db);
  QuerySpec q = MakeStudyQuery(0.5, 0.5, env.domain());
  EXPECT_TRUE(executor.BuildPlan(PlanKind::kMdamAB, q)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(executor.BuildPlan(PlanKind::kCoverBABitmapFetch, q)
                  .status()
                  .IsInvalidArgument());
  // System A plans still work.
  EXPECT_TRUE(executor.Run(env.ctx(), PlanKind::kMergeJoinAB, q).ok());
}

TEST(ExecutorTest, RunsAreColdAndReproducible) {
  ProcEnv env;
  Executor executor(env.db());
  QuerySpec q = MakeStudyQuery(0.03, 0.4, env.domain());
  auto m1 = executor.Run(env.ctx(), PlanKind::kIndexAImproved, q).ValueOrDie();
  // A different plan in between would warm the pool without cold-run resets.
  ASSERT_TRUE(executor.Run(env.ctx(), PlanKind::kTableScan, q).ok());
  auto m2 = executor.Run(env.ctx(), PlanKind::kIndexAImproved, q).ValueOrDie();
  EXPECT_DOUBLE_EQ(m1.seconds, m2.seconds);
  EXPECT_EQ(m1.io.total_reads(), m2.io.total_reads());
}

TEST(ExecutorTest, MeasurementIncludesIoBreakdown) {
  ProcEnv env;
  Executor executor(env.db());
  QuerySpec q = MakeStudyQuery(1.0, 1.0, env.domain());
  auto m = executor.Run(env.ctx(), PlanKind::kTableScan, q).ValueOrDie();
  EXPECT_GT(m.io.total_reads(), 0u);
  EXPECT_GT(m.io.bytes_read, 0u);
}

TEST(ExecutorTest, MeasureColdOfAHandBuiltTreeMatchesRun) {
  // `MeasureCold` is the routine `Run` measures with, so an operator tree
  // built by hand (here by `BuildPlan`) and measured directly gives the
  // same cell, I/O counters included, whatever ran on the machine before.
  ProcEnv env;
  Executor executor(env.db());
  QuerySpec q = MakeStudyQuery(0.125, 0.25, env.domain());
  for (PlanKind kind : {PlanKind::kIndexAImproved, PlanKind::kHashJoinAB}) {
    SCOPED_TRACE(PlanKindLabel(kind));
    auto run = executor.Run(env.ctx(), kind, q).ValueOrDie();
    auto tree = executor.BuildPlan(kind, q).ValueOrDie();
    auto measured = MeasureCold(env.ctx(), tree.get()).ValueOrDie();
    ExpectMeasurementsBitIdentical(measured, run);
    EXPECT_GT(measured.io.total_reads(), 0u);
  }
}

TEST(ExecutorTest, BuildPlanProducesDistinctShapes) {
  ProcEnv env;
  Executor executor(env.db());
  QuerySpec q = MakeStudyQuery(0.5, 0.5, env.domain());
  std::set<std::string> names;
  for (PlanKind kind : AllStudyPlans()) {
    auto plan = executor.BuildPlan(kind, q);
    ASSERT_TRUE(plan.ok());
    names.insert(plan.value()->DebugName());
  }
  EXPECT_EQ(names.size(), AllStudyPlans().size());
}

}  // namespace
}  // namespace robustmap
