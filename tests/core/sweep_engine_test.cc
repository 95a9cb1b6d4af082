#include "core/sweep_engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "core/sharded_sweep.h"
#include "engine/query.h"
#include "testing/map_expect.h"
#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ExpectMapsBitIdentical;
using ::robustmap::testing::ProcEnv;

std::vector<PlanKind> StudySubset() {
  return {PlanKind::kTableScan, PlanKind::kIndexAImproved,
          PlanKind::kMergeJoinAB};
}

ParameterSpace SmallGrid() {
  return ParameterSpace::TwoD(Axis::Selectivity("a", -4, 0),
                              Axis::Selectivity("b", -4, 0));
}

std::string FreshTileDir(const std::string& name) {
  return ::testing::TempDir() + "/engine_" + name + "_" +
         std::to_string(::getpid());
}

SweepRequest BaseRequest(StudyKind study, BackendKind backend) {
  SweepRequest req;
  req.plans = StudySubset();
  req.space = SmallGrid();
  req.study = study;
  req.backend = backend;
  req.warm_policy = WarmupPolicy::FractionResident(0.5);
  return req;
}

TEST(StudyKindTest, NamesRoundTripAndRejectUnknown) {
  for (StudyKind kind : {StudyKind::kPlainMap, StudyKind::kWarmColdDelta}) {
    auto back = StudyKindFromString(StudyKindName(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), kind);
  }
  auto bogus = StudyKindFromString("bogus");
  ASSERT_FALSE(bogus.ok());
  EXPECT_TRUE(bogus.status().IsInvalidArgument());

  EXPECT_EQ(StudyLayerCount(StudyKind::kPlainMap), 1u);
  EXPECT_EQ(StudyLayerCount(StudyKind::kWarmColdDelta), 3u);
  // Plain tiles must stay on the unnamed v2 byte stream; warm-cold layers
  // are named in study order.
  EXPECT_TRUE(StudyLayerNames(StudyKind::kPlainMap).empty());
  EXPECT_EQ(StudyLayerNames(StudyKind::kWarmColdDelta),
            (std::vector<std::string>{"cold", "warm", "delta"}));
}

TEST(SweepEngineTest, PlainStudyIdenticalAcrossInProcessBackends) {
  ProcEnv env;
  Executor executor(env.db());
  auto serial = SweepEngine::Run(env.ctx(), executor,
                                 BaseRequest(StudyKind::kPlainMap,
                                             BackendKind::kSerial))
                    .ValueOrDie();
  ASSERT_EQ(serial.layers.size(), 1u);

  SweepRequest threaded =
      BaseRequest(StudyKind::kPlainMap, BackendKind::kThreaded);
  threaded.sweep.num_threads = 4;
  auto parallel = SweepEngine::Run(env.ctx(), executor, threaded)
                      .ValueOrDie();
  ExpectMapsBitIdentical(serial.map(), parallel.map());
}

TEST(SweepEngineTest, WarmColdStudyLayersConsistentAcrossBackends) {
  ProcEnv env;
  Executor executor(env.db());
  auto serial = SweepEngine::Run(env.ctx(), executor,
                                 BaseRequest(StudyKind::kWarmColdDelta,
                                             BackendKind::kSerial))
                    .ValueOrDie();
  ASSERT_EQ(serial.layers.size(), 3u);
  // delta really is warm − cold, cell for cell.
  auto delta = DiffMaps(serial.warm(), serial.cold()).ValueOrDie();
  ExpectMapsBitIdentical(delta, serial.delta());
  // The context's policy is restored after the study.
  EXPECT_TRUE(env.ctx()->warmup.is_cold());

  SweepRequest threaded =
      BaseRequest(StudyKind::kWarmColdDelta, BackendKind::kThreaded);
  threaded.sweep.num_threads = 4;
  auto parallel = SweepEngine::Run(env.ctx(), executor, threaded)
                      .ValueOrDie();
  for (size_t li = 0; li < 3; ++li) {
    SCOPED_TRACE(li);
    ExpectMapsBitIdentical(serial.layers[li], parallel.layers[li]);
  }

  // And at the default (hardware) thread count.
  auto defaulted =
      SweepEngine::Run(env.ctx(), executor,
                       BaseRequest(StudyKind::kWarmColdDelta,
                                   BackendKind::kThreaded))
          .ValueOrDie();
  for (size_t li = 0; li < 3; ++li) {
    SCOPED_TRACE(li);
    ExpectMapsBitIdentical(serial.layers[li], defaulted.layers[li]);
  }
}

TEST(SweepEngineTest, ShardedWarmColdMatchesSerialReferencePerLayer) {
  // The composition the engine exists for: the §3.2 warm-cold study on the
  // multi-process backend, bit-identical per layer to the serial
  // reference, with resume revalidating the three-layer tiles.
  ProcEnv env;
  Executor executor(env.db());
  auto reference = SweepEngine::Run(env.ctx(), executor,
                                    BaseRequest(StudyKind::kWarmColdDelta,
                                                BackendKind::kSerial))
                       .ValueOrDie();

  SweepRequest sharded =
      BaseRequest(StudyKind::kWarmColdDelta, BackendKind::kShardedProcess);
  sharded.sharded.tile_dir = FreshTileDir("warmcold");
  sharded.sharded.num_workers = 3;
  sharded.sharded.num_tiles = 5;
  auto merged = SweepEngine::Run(env.ctx(), executor, sharded).ValueOrDie();
  ASSERT_EQ(merged.layers.size(), 3u);
  EXPECT_EQ(merged.sharded_stats.tiles_computed,
            merged.sharded_stats.tiles_total);
  for (size_t li = 0; li < 3; ++li) {
    SCOPED_TRACE(li);
    ExpectMapsBitIdentical(reference.layers[li], merged.layers[li]);
  }

  auto resumed = SweepEngine::Run(env.ctx(), executor, sharded).ValueOrDie();
  EXPECT_EQ(resumed.sharded_stats.tiles_computed, 0u);
  EXPECT_EQ(resumed.sharded_stats.tiles_reused,
            resumed.sharded_stats.tiles_total);
  ExpectMapsBitIdentical(reference.delta(), resumed.delta());
}

TEST(SweepEngineTest, RecycledMachinesBitIdenticalAcrossBackendsAndWarmups) {
  // The arena-reuse contract: worker machines recycled between cells (and
  // between whole sweeps) must measure exactly what freshly built ones
  // would, for every backend and warmup policy the study supports.
  ProcEnv env;
  Executor executor(env.db());
  // Prior-run cells inherit the pool contents the previous cell (and the
  // previous *sweep*) left behind — order-dependent by design — so every
  // run below starts from the same empty pool to be comparable at all.
  // For cold and fraction-resident the reset is a no-op: ColdStart
  // re-establishes the prescribed state at every cell anyway.
  const auto reset_pool = [&] {
    env.ctx()->pool->Clear();
    env.ctx()->pool->ResetStats();
  };
  for (const WarmupPolicy& warmup :
       {WarmupPolicy::Cold(), WarmupPolicy::PriorRun(),
        WarmupPolicy::FractionResident(0.5)}) {
    SCOPED_TRACE(warmup.label());
    env.ctx()->warmup = warmup;

    reset_pool();
    auto serial = SweepEngine::Run(env.ctx(), executor,
                                   BaseRequest(StudyKind::kPlainMap,
                                               BackendKind::kSerial))
                      .ValueOrDie();

    if (warmup.is_order_dependent()) {
      // Residency carries from cell to cell, so any schedule change would
      // be observable. What must hold: the same serialized sweep from the
      // same starting pool state reproduces exactly — plan batching must
      // not perturb it.
      reset_pool();
      auto again = SweepEngine::Run(env.ctx(), executor,
                                    BaseRequest(StudyKind::kPlainMap,
                                                BackendKind::kSerial))
                       .ValueOrDie();
      ExpectMapsBitIdentical(serial.map(), again.map());
      // Asked for threads, an order-dependent sweep still runs serially on
      // the caller's machine, so it reproduces the serial map bit for bit.
      SweepRequest threaded =
          BaseRequest(StudyKind::kPlainMap, BackendKind::kThreaded);
      threaded.sweep.num_threads = 4;
      for (int run = 0; run < 2; ++run) {
        SCOPED_TRACE("threaded run " + std::to_string(run));
        reset_pool();
        auto out = SweepEngine::Run(env.ctx(), executor, threaded)
                       .ValueOrDie();
        ExpectMapsBitIdentical(serial.map(), out.map());
      }
      // And the warm-cold study — whose parallel cold half draws recycled
      // machines from the factory arena while the prior-run warm half is
      // serialized — reproduces layer for layer.
      SweepRequest warmcold =
          BaseRequest(StudyKind::kWarmColdDelta, BackendKind::kThreaded);
      warmcold.warm_policy = WarmupPolicy::PriorRun();
      reset_pool();
      auto wc_first =
          SweepEngine::Run(env.ctx(), executor, warmcold).ValueOrDie();
      reset_pool();
      auto wc_second =
          SweepEngine::Run(env.ctx(), executor, warmcold).ValueOrDie();
      for (size_t li = 0; li < 3; ++li) {
        ExpectMapsBitIdentical(wc_first.layers[li], wc_second.layers[li]);
      }
      continue;
    }

    SweepRequest threaded =
        BaseRequest(StudyKind::kPlainMap, BackendKind::kThreaded);
    threaded.sweep.num_threads = 4;
    reset_pool();
    auto first = SweepEngine::Run(env.ctx(), executor, threaded)
                     .ValueOrDie();
    reset_pool();
    auto second = SweepEngine::Run(env.ctx(), executor, threaded)
                      .ValueOrDie();
    ExpectMapsBitIdentical(serial.map(), first.map());
    ExpectMapsBitIdentical(serial.map(), second.map());

    SweepRequest sharded =
        BaseRequest(StudyKind::kPlainMap, BackendKind::kShardedProcess);
    sharded.sharded.tile_dir = FreshTileDir(
        "recycle_" + std::to_string(static_cast<int>(warmup.mode)));
    sharded.sharded.num_workers = 2;
    sharded.sharded.num_tiles = 4;
    auto merged = SweepEngine::Run(env.ctx(), executor, sharded)
                      .ValueOrDie();
    ExpectMapsBitIdentical(serial.map(), merged.map());
  }
  env.ctx()->warmup = WarmupPolicy::Cold();
}

TEST(SweepEngineTest, RepeatedSweepsOverOneFactoryRecycleExactly) {
  // Two parallel sweeps over the same factory: the first builds its worker
  // machines cold, the second draws every machine recycled from the arena.
  // Rebuild-every-cell and recycle must be indistinguishable in the map.
  ProcEnv env;
  Executor executor(env.db());
  RunContextFactory factory(*env.ctx());
  const std::vector<PlanKind> plans = StudySubset();
  std::vector<std::string> labels;
  for (PlanKind k : plans) labels.push_back(PlanKindLabel(k));
  const int64_t domain = executor.db().domain;
  const ParameterSpace space = SmallGrid();
  const auto runner = [&](RunContext* ctx, size_t plan, size_t point) {
    return executor.Run(ctx, plans[plan],
                        MakeStudyQuery(space.x_value(point),
                                       space.y_value(point), domain));
  };
  SweepOptions opts;
  opts.num_threads = 3;
  auto fresh = SweepEngine::RunCellsParallelIndexed(space, labels, factory,
                                                    runner, opts)
                   .ValueOrDie();
  auto recycled = SweepEngine::RunCellsParallelIndexed(space, labels, factory,
                                                       runner, opts)
                      .ValueOrDie();
  ExpectMapsBitIdentical(fresh, recycled);
}

TEST(SweepEngineTest, ShardedResumeRejectsTilesOfADifferentStudy) {
  // A plain checkpoint directory re-pointed at a warm-cold study (or vice
  // versa) is a reconfiguration: every tile must be recomputed, never
  // merged into the wrong study.
  ProcEnv env;
  Executor executor(env.db());
  SweepRequest plain =
      BaseRequest(StudyKind::kPlainMap, BackendKind::kShardedProcess);
  plain.sharded.tile_dir = FreshTileDir("study_mix");
  plain.sharded.num_workers = 2;
  plain.sharded.num_tiles = 4;
  auto first = SweepEngine::Run(env.ctx(), executor, plain).ValueOrDie();
  EXPECT_EQ(first.sharded_stats.tiles_computed,
            first.sharded_stats.tiles_total);

  SweepRequest warmcold = plain;
  warmcold.study = StudyKind::kWarmColdDelta;
  auto second = SweepEngine::Run(env.ctx(), executor, warmcold).ValueOrDie();
  EXPECT_EQ(second.sharded_stats.tiles_reused, 0u);
  EXPECT_EQ(second.sharded_stats.tiles_computed,
            second.sharded_stats.tiles_total);

  auto reference = SweepEngine::Run(env.ctx(), executor,
                                    BaseRequest(StudyKind::kWarmColdDelta,
                                                BackendKind::kSerial))
                       .ValueOrDie();
  for (size_t li = 0; li < 3; ++li) {
    SCOPED_TRACE(li);
    ExpectMapsBitIdentical(reference.layers[li], second.layers[li]);
  }
}

TEST(SweepEngineTest, ShardedBackendRejectsOrderDependentConfigurations) {
  ProcEnv env;
  Executor executor(env.db());

  SweepRequest prior =
      BaseRequest(StudyKind::kWarmColdDelta, BackendKind::kShardedProcess);
  prior.sharded.tile_dir = FreshTileDir("reject");
  prior.warm_policy = WarmupPolicy::PriorRun();
  EXPECT_TRUE(SweepEngine::Run(env.ctx(), executor, prior)
                  .status()
                  .IsInvalidArgument());
}

TEST(WarmupPolicySpecTest, RoundTripsEveryMode) {
  for (const WarmupPolicy& policy :
       {WarmupPolicy::Cold(), WarmupPolicy::PriorRun(),
        WarmupPolicy::FractionResident(0.375),
        WarmupPolicy::ExplicitPages({1, 2, 3, 7, 10, 11}),
        WarmupPolicy::ExplicitPages({})}) {
    auto back = WarmupPolicy::FromSpec(policy.ToSpec());
    ASSERT_TRUE(back.ok()) << policy.ToSpec();
    EXPECT_EQ(back.value().mode, policy.mode) << policy.ToSpec();
    EXPECT_EQ(back.value().pages, policy.pages) << policy.ToSpec();
    EXPECT_DOUBLE_EQ(back.value().fraction, policy.fraction);
  }
  // Consecutive runs compress: the common "leading half of the table"
  // policy stays one short token however many pages it names.
  EXPECT_EQ(WarmupPolicy::ExplicitPages({5, 6, 7, 8}).ToSpec(),
            "pages:5-8");

  // "resident:nan" would sail through a naive `f < 0 || f > 1` check
  // (NaN compares false both ways), and a signed page token would wrap
  // through strtoull into a ~2^64-page range — both must be rejections,
  // not sweeps.
  for (const char* bad :
       {"", "warm", "resident:", "resident:1.5", "resident:x",
        "resident:nan", "resident:inf", "pages:1,", "pages:9-3",
        "pages:a-b", "pages:-2", "pages:1--2", "pages:+3"}) {
    EXPECT_TRUE(WarmupPolicy::FromSpec(bad).status().IsInvalidArgument())
        << bad;
  }
}

TEST(RectSpecTest, FormatsAndParsesTheWorkerContract) {
  TileSpec tile;
  tile.x_begin = 2;
  tile.x_end = 9;
  tile.y_begin = 0;
  tile.y_end = 4;
  EXPECT_EQ(RectSpecString(tile), "2:9:0:4");

  TileSpec parsed;
  ASSERT_TRUE(ParseRectSpec("2:9:0:4", &parsed));
  EXPECT_EQ(parsed.x_begin, 2u);
  EXPECT_EQ(parsed.x_end, 9u);
  EXPECT_EQ(parsed.y_begin, 0u);
  EXPECT_EQ(parsed.y_end, 4u);

  for (const char* bad : {"", "1:2:3", "1:2:3:4:5", "1:x:3:4", ":2:3:4",
                          "1:2:3:"}) {
    TileSpec t;
    EXPECT_FALSE(ParseRectSpec(bad, &t)) << bad;
  }
}

}  // namespace
}  // namespace robustmap
