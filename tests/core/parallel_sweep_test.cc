#include "core/sweep_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "testing/map_expect.h"
#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ExpectMapsBitIdentical;
using ::robustmap::testing::ProcEnv;

// Plans chosen to cover every concurrency hazard: composite-index group
// synthesis (mdam, cover), spill-extent allocation (hash join at tiny
// memory), sorted fetch, and plain scans.
std::vector<PlanKind> StressPlans() {
  return {PlanKind::kTableScan,   PlanKind::kIndexAImproved,
          PlanKind::kMergeJoinAB, PlanKind::kHashJoinAB,
          PlanKind::kMdamAB,      PlanKind::kCoverABBitmapFetch};
}

ParameterSpace StressSpace() {
  return ParameterSpace::TwoD(Axis::Selectivity("a", -6, 0),
                              Axis::Selectivity("b", -6, 0));
}

/// The plain study of `plans` over `space` on `threads` threads.
SweepRequest StudyRequest(std::vector<PlanKind> plans, ParameterSpace space,
                          unsigned threads) {
  SweepRequest req;
  req.plans = std::move(plans);
  req.space = std::move(space);
  req.sweep.num_threads = threads;
  return req;
}

TEST(ParallelRunSweepTest, StudySweepBitIdenticalAcrossThreadCounts) {
  ProcEnv env;
  Executor executor(env.db());
  // Tiny budgets force hash builds to spill, exercising mid-run temp-extent
  // allocation on each worker's private device.
  env.ctx()->sort_memory_bytes = 4096;
  env.ctx()->hash_memory_bytes = 4096;
  ParameterSpace space = StressSpace();

  auto reference = SweepEngine::Run(env.ctx(), executor,
                                    StudyRequest(StressPlans(), space, 1))
                       .ValueOrDie()
                       .map();

  for (unsigned threads : {1u, 4u, 8u}) {
    SweepOptions opts;
    opts.num_threads = threads;
    RunContextFactory factory(*env.ctx());
    int64_t domain = executor.db().domain;
    auto parallel =
        SweepEngine::RunCellsParallelIndexed(
            space, reference.plan_labels(), factory,
            [&](RunContext* ctx, size_t plan, size_t point) {
              QuerySpec q = MakeStudyQuery(space.x_value(point),
                                           space.y_value(point), domain);
              return executor.Run(ctx, StressPlans()[plan], q);
            },
            opts)
            .ValueOrDie();
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ExpectMapsBitIdentical(reference, parallel);
  }
}

TEST(ParallelRunSweepTest, SweepStudyPlansParallelPathMatchesSerial) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = StressSpace();

  auto reference = SweepEngine::Run(env.ctx(), executor,
                                    StudyRequest(StressPlans(), space, 1))
                       .ValueOrDie();
  auto parallel = SweepEngine::Run(env.ctx(), executor,
                                   StudyRequest(StressPlans(), space, 8))
                      .ValueOrDie();
  ExpectMapsBitIdentical(reference.map(), parallel.map());
}

TEST(ParallelRunSweepTest, ReportsFirstErrorInSerialOrder) {
  ProcEnv env;
  ParameterSpace space = StressSpace();
  RunContextFactory factory(*env.ctx());

  // Plans 0 and 1 succeed everywhere; plans 2 and 3 fail everywhere with
  // distinct messages. Whatever the scheduling, the reported error must be
  // the one a serial plan-major sweep would hit first: plan 2's.
  SweepOptions opts;
  opts.num_threads = 8;
  auto result = SweepEngine::RunCellsParallelIndexed(
      space, {"p0", "p1", "p2", "p3"}, factory,
      [&](RunContext*, size_t plan, size_t) -> Result<Measurement> {
        if (plan >= 2) {
          return Status::Internal("boom in plan " + std::to_string(plan));
        }
        Measurement m;
        m.seconds = static_cast<double>(plan + 1);
        return m;
      },
      opts);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  EXPECT_EQ(result.status().message(), "boom in plan 2");
}

TEST(ParallelRunSweepTest, PropagatesMissingIndexError) {
  ProcEnv env;
  StudyDb db = env.db();
  db.idx_ab = nullptr;  // kMdamAB requires idx(a,b)
  Executor executor(db);
  ParameterSpace space = StressSpace();

  auto result = SweepEngine::Run(
      env.ctx(), executor,
      StudyRequest({PlanKind::kTableScan, PlanKind::kMdamAB}, space, 4));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(ParallelRunSweepTest, OneDSpacePassesNegativeY) {
  ProcEnv env;
  ParameterSpace space = ParameterSpace::OneD(Axis::Selectivity("a", -3, 0));
  RunContextFactory factory(*env.ctx());
  SweepOptions opts;
  opts.num_threads = 2;
  auto map = SweepEngine::RunCellsParallelIndexed(
                 space, {"p"}, factory,
                 [&](RunContext*, size_t, size_t point) {
                   EXPECT_EQ(space.y_value(point), -1.0);
                   Measurement m;
                   m.seconds = 1.0;
                   return Result<Measurement>(m);
                 },
                 opts)
                 .ValueOrDie();
  EXPECT_EQ(map.space().num_points(), 4u);
}

}  // namespace
}  // namespace robustmap
