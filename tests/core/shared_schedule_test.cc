// The deterministic concurrent-contention schedule
// (`SweepOptions::deterministic_shared_schedule`): shared-pool maps pinned
// well enough to regression-test — the ROADMAP open item the true-parallel
// schedule (intentionally) cannot satisfy.

#include <gtest/gtest.h>

#include <vector>

#include "core/sweep_engine.h"
#include "io/shared_buffer_pool.h"
#include "testing/map_expect.h"
#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ExpectMapsBitIdentical;
using ::robustmap::testing::ProcEnv;

// Two plans whose working sets overlap on the table but differ on the
// index side: what each cell inherits depends on which stream's history
// filled the cache.
std::vector<PlanKind> ContendingPlans() {
  return {PlanKind::kIndexAImproved, PlanKind::kIndexBImproved};
}

ParameterSpace Line() {
  return ParameterSpace::OneD(Axis::Selectivity("a", -6, 0));
}

RobustnessMap RunContention(ProcEnv* env, const Executor& executor,
                            bool deterministic, unsigned num_threads) {
  // Large enough that inherited residency survives from cell to cell (a
  // thrashing cache forgets its history, making every schedule look alike).
  SharedBufferPool shared(/*capacity_pages=*/512);
  SweepOptions opts;
  opts.num_threads = num_threads;
  opts.shared_pool = &shared;
  opts.deterministic_shared_schedule = deterministic;
  SweepRequest req;
  req.plans = ContendingPlans();
  req.space = Line();
  req.sweep = opts;
  env->ctx()->warmup = WarmupPolicy::PriorRun();
  auto map = SweepEngine::Run(env->ctx(), executor, req).ValueOrDie().map();
  env->ctx()->warmup = WarmupPolicy::Cold();
  return map;
}

TEST(DeterministicSharedScheduleTest, PinsTheContentionMap) {
  ProcEnv env;
  Executor executor(env.db());
  // The regression pin: the same concurrent-contention study must produce
  // the same map on every run, even at a parallel-looking thread count.
  auto first = RunContention(&env, executor, /*deterministic=*/true, 4);
  auto second = RunContention(&env, executor, /*deterministic=*/true, 4);
  ExpectMapsBitIdentical(first, second);

  uint64_t cross_hits = 0;
  for (size_t plan = 0; plan < first.num_plans(); ++plan) {
    for (size_t pt = 0; pt < first.space().num_points(); ++pt) {
      cross_hits += first.At(plan, pt).io.buffer_hits;
    }
  }
  EXPECT_GT(cross_hits, 0u) << "contention study produced no cache reuse";
}

TEST(DeterministicSharedScheduleTest, RoundRobinOrderIsObservable) {
  ProcEnv env;
  Executor executor(env.db());
  // Plan-major serial order (the existing shared-pool fallback) lets each
  // plan warm the cache with its own history; the round-robin schedule
  // interleaves the two query streams. Under a prior-run policy the
  // residency — and so the maps — must differ somewhere, or the mode is
  // not modeling anything.
  auto round_robin = RunContention(&env, executor, /*deterministic=*/true, 1);
  auto plan_major = RunContention(&env, executor, /*deterministic=*/false, 1);
  bool differs = false;
  for (size_t plan = 0; plan < round_robin.num_plans(); ++plan) {
    for (size_t pt = 0; pt < round_robin.space().num_points(); ++pt) {
      if (round_robin.At(plan, pt).io.buffer_hits !=
              plan_major.At(plan, pt).io.buffer_hits ||
          round_robin.At(plan, pt).seconds !=
              plan_major.At(plan, pt).seconds) {
        differs = true;
      }
    }
  }
  EXPECT_TRUE(differs);
}

TEST(DeterministicSharedScheduleTest, ColdCellsAreOrderIndependent) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = ParameterSpace::TwoD(Axis::Selectivity("a", -4, 0),
                                              Axis::Selectivity("b", -4, 0));
  std::vector<PlanKind> plans = {PlanKind::kTableScan,
                                 PlanKind::kIndexAImproved};
  SweepRequest req;
  req.plans = plans;
  req.space = space;
  req.sweep.num_threads = 1;
  auto reference = SweepEngine::Run(env.ctx(), executor, req).ValueOrDie();
  // With the default cold warmup every cell starts from an empty cache, so
  // the reordered schedule must reproduce the classic map exactly — the
  // flag must not perturb studies it doesn't apply to.
  req.sweep.deterministic_shared_schedule = true;
  auto reordered = SweepEngine::Run(env.ctx(), executor, req).ValueOrDie();
  ExpectMapsBitIdentical(reference.map(), reordered.map());
}

}  // namespace
}  // namespace robustmap
