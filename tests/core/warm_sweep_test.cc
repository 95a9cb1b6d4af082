#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/sweep_engine.h"
#include "testing/map_expect.h"
#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ExpectMapsBitIdentical;
using ::robustmap::testing::ProcEnv;

std::vector<PlanKind> StudyPlans() {
  return {PlanKind::kTableScan, PlanKind::kIndexAImproved};
}

ParameterSpace SmallSpace() {
  return ParameterSpace::TwoD(Axis::Selectivity("a", -4, 0),
                              Axis::Selectivity("b", -4, 0));
}

/// The warm-cold study of `StudyPlans()` over `SmallSpace()` on the
/// threaded backend.
SweepRequest WarmColdRequest(const WarmupPolicy& warm_policy,
                             const SweepOptions& opts) {
  SweepRequest req;
  req.plans = StudyPlans();
  req.space = SmallSpace();
  req.study = StudyKind::kWarmColdDelta;
  req.warm_policy = warm_policy;
  req.sweep = opts;
  return req;
}

TEST(RunWarmColdSweepTest, ProducesConsistentDeltaAndRestoresPolicy) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallSpace();
  // Warm the table's first half — the fetch paths of both plans hit it.
  std::vector<uint64_t> pages;
  for (uint64_t p = 0; p < env.table().num_pages() / 2; ++p) {
    pages.push_back(env.table().base_page() + p);
  }
  SweepOptions opts;
  opts.num_threads = 2;
  auto maps = SweepEngine::Run(
                  env.ctx(), executor,
                  WarmColdRequest(WarmupPolicy::ExplicitPages(pages), opts))
                  .ValueOrDie();

  EXPECT_EQ(env.ctx()->warmup.mode, WarmupPolicy::Mode::kCold);  // restored

  // delta = warm - cold, cell by cell; cardinalities must agree.
  double min_delta = 0;
  for (size_t plan = 0; plan < maps.delta().num_plans(); ++plan) {
    for (size_t pt = 0; pt < space.num_points(); ++pt) {
      const Measurement& d = maps.delta().At(plan, pt);
      const Measurement& w = maps.warm().At(plan, pt);
      const Measurement& c = maps.cold().At(plan, pt);
      EXPECT_DOUBLE_EQ(d.seconds, w.seconds - c.seconds);
      EXPECT_EQ(w.output_rows, c.output_rows);
      if (d.seconds < min_delta) min_delta = d.seconds;
      // The warm run can only see more buffer hits than the cold one.
      EXPECT_GE(w.io.buffer_hits, c.io.buffer_hits);
    }
  }
  EXPECT_LT(min_delta, 0);  // the warm cache helps somewhere
}

TEST(RunWarmColdSweepTest, DeterministicWarmPolicyIsThreadCountInvariant) {
  ProcEnv env;
  Executor executor(env.db());
  WarmupPolicy policy = WarmupPolicy::FractionResident(0.3);

  SweepOptions serial;
  serial.num_threads = 1;
  auto reference =
      SweepEngine::Run(env.ctx(), executor, WarmColdRequest(policy, serial))
          .ValueOrDie();

  for (unsigned threads : {2u, 8u}) {
    SweepOptions opts;
    opts.num_threads = threads;
    auto maps =
        SweepEngine::Run(env.ctx(), executor, WarmColdRequest(policy, opts))
            .ValueOrDie();
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ExpectMapsBitIdentical(reference.cold(), maps.cold());
    ExpectMapsBitIdentical(reference.warm(), maps.warm());
  }
}

TEST(RunWarmColdSweepTest, PriorRunWarmMapIsReproducible) {
  ProcEnv env;
  Executor executor(env.db());
  // Prior-run warmth depends on execution history; the sweep pins it by
  // forcing serial order and a cleared pool at the start of the warm half,
  // so two invocations must agree bit for bit — even asked to parallelize.
  SweepOptions opts;
  opts.num_threads = 4;
  const SweepRequest req = WarmColdRequest(WarmupPolicy::PriorRun(), opts);
  auto first = SweepEngine::Run(env.ctx(), executor, req).ValueOrDie();
  auto second = SweepEngine::Run(env.ctx(), executor, req).ValueOrDie();
  ExpectMapsBitIdentical(first.warm(), second.warm());
  ExpectMapsBitIdentical(first.cold(), second.cold());
}

// A page-set policy over a shared pool: every cell's ColdStart clears and
// re-warms the one shared cache, so the warm half must be forced serial —
// asked to parallelize, the maps must still reproduce bit for bit.
TEST(RunWarmColdSweepTest, SharedPoolPageSetPolicyIsReproducible) {
  ProcEnv env;
  Executor executor(env.db());
  WarmupPolicy policy = WarmupPolicy::FractionResident(0.3);

  auto run_once = [&]() {
    SharedBufferPool shared(env.ctx()->pool->capacity_pages());
    SweepOptions opts;
    opts.num_threads = 4;
    opts.shared_pool = &shared;
    return SweepEngine::Run(env.ctx(), executor,
                            WarmColdRequest(policy, opts))
        .ValueOrDie();
  };
  auto first = run_once();
  auto second = run_once();
  ExpectMapsBitIdentical(first.warm(), second.warm());
  ExpectMapsBitIdentical(first.cold(), second.cold());
}

// The §3.2 cross-query reuse scenario: one shared cache carried across the
// whole sweep. Under the serial fallback the access order is fixed, so the
// map must be deterministic run-to-run.
TEST(SweepStudyPlansTest, SharedPoolSerialSweepIsDeterministic) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallSpace();

  auto run_once = [&]() {
    SharedBufferPool shared(env.ctx()->pool->capacity_pages());
    SweepOptions opts;
    opts.num_threads = 1;
    opts.shared_pool = &shared;
    SweepRequest req;
    req.plans = StudyPlans();
    req.space = space;
    req.sweep = opts;
    env.ctx()->warmup = WarmupPolicy::PriorRun();
    auto map =
        SweepEngine::Run(env.ctx(), executor, req).ValueOrDie().map();
    env.ctx()->warmup = WarmupPolicy::Cold();
    return map;
  };

  auto first = run_once();
  auto second = run_once();
  ExpectMapsBitIdentical(first, second);

  // Reuse actually happened: some later cell hit pages a prior cell read.
  uint64_t hits = 0;
  for (size_t plan = 0; plan < first.num_plans(); ++plan) {
    for (size_t pt = 0; pt < space.num_points(); ++pt) {
      hits += first.At(plan, pt).io.buffer_hits;
    }
  }
  EXPECT_GT(hits, 0u);
}

TEST(DiffMapsTest, SubtractsColdFromWarm) {
  ParameterSpace space = ParameterSpace::OneD(Axis::Selectivity("a", -1, 0));
  RobustnessMap warm(space, {"p"});
  RobustnessMap cold(space, {"p"});
  for (size_t pt = 0; pt < space.num_points(); ++pt) {
    Measurement w, c;
    w.output_rows = c.output_rows = 10 * (pt + 1);
    c.seconds = 2.0;
    w.seconds = 0.5;
    warm.Set(0, pt, w);
    cold.Set(0, pt, c);
  }
  auto delta = DiffMaps(warm, cold).ValueOrDie();
  for (size_t pt = 0; pt < space.num_points(); ++pt) {
    EXPECT_DOUBLE_EQ(delta.At(0, pt).seconds, -1.5);
  }
}

TEST(DiffMapsTest, RejectsMismatchedShapesAndCardinalities) {
  ParameterSpace space = ParameterSpace::OneD(Axis::Selectivity("a", -1, 0));
  ParameterSpace other = ParameterSpace::OneD(Axis::Selectivity("a", -2, 0));
  RobustnessMap a(space, {"p"});
  RobustnessMap b(other, {"p"});
  EXPECT_TRUE(DiffMaps(a, b).status().IsInvalidArgument());

  // Same point count but different grid values: cells would be subtracted
  // across different run-time conditions — also an error.
  ParameterSpace shifted =
      ParameterSpace::OneD(Axis::Selectivity("a", -2, -1));
  RobustnessMap s(shifted, {"p"});
  ASSERT_EQ(s.space().num_points(), a.space().num_points());
  EXPECT_TRUE(DiffMaps(a, s).status().IsInvalidArgument());

  RobustnessMap c(space, {"p"});
  Measurement m;
  m.output_rows = 10;
  a.Set(0, 0, m);
  m.output_rows = 11;  // caching must never change a result
  c.Set(0, 0, m);
  EXPECT_TRUE(DiffMaps(a, c).status().IsInternal());
}

}  // namespace
}  // namespace robustmap
