#include "core/sharded_sweep.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/map_io.h"
#include "core/sweep_telemetry.h"
#include "testing/map_expect.h"
#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ExpectMapsBitIdentical;
using ::robustmap::testing::ProcEnv;

std::vector<PlanKind> StudySubset() {
  return {PlanKind::kTableScan, PlanKind::kIndexAImproved,
          PlanKind::kMergeJoinAB, PlanKind::kMdamAB};
}

ParameterSpace SmallGrid() {
  return ParameterSpace::TwoD(Axis::Selectivity("a", -5, 0),
                              Axis::Selectivity("b", -5, 0));
}

/// A unique checkpoint directory per test case, so resume state never
/// bleeds between tests (or between repeated runs of one test binary).
std::string FreshTileDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/sharded_" + name + "_" +
                    std::to_string(::getpid());
  for (size_t id = 0; id < 64; ++id) {
    std::remove((dir + "/" + TileFileName(id)).c_str());
  }
  return dir;
}

TEST(RunShardedSweepTest, MergedMapBitIdenticalAcrossWorkerCounts) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();

  SweepOptions serial;
  serial.num_threads = 1;
  auto reference =
      SweepStudyPlans(env.ctx(), executor, StudySubset(), space, serial)
          .ValueOrDie();

  for (unsigned workers : {1u, 2u, 8u}) {
    ShardedSweepOptions opts;
    opts.tile_dir =
        FreshTileDir("workers" + std::to_string(workers));
    opts.num_workers = workers;
    ShardedSweepStats stats;
    auto merged = RunShardedSweep(env.ctx(), executor, StudySubset(), space,
                                  opts, &stats)
                      .ValueOrDie();
    SCOPED_TRACE(std::to_string(workers) + " workers");
    // Each straggler split turns one pending tile into two, so with more
    // workers than planned tiles the computed count exceeds the plan by
    // exactly the split count — and the merged bytes must not notice.
    EXPECT_EQ(stats.tiles_computed, stats.tiles_total + stats.tiles_split);
    if (workers <= 1) {
      EXPECT_EQ(stats.tiles_split, 0u);
    }
    EXPECT_EQ(stats.tiles_reused, 0u);
    ExpectMapsBitIdentical(reference, merged);
  }
}

TEST(RunShardedSweepTest, MoreTilesThanWorkersStillMergesExactly) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  SweepOptions serial;
  serial.num_threads = 1;
  auto reference =
      SweepStudyPlans(env.ctx(), executor, StudySubset(), space, serial)
          .ValueOrDie();

  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("finetiles");
  opts.num_workers = 3;
  opts.num_tiles = 11;  // deliberately not a multiple of the worker count
  ShardedSweepStats stats;
  auto merged = RunShardedSweep(env.ctx(), executor, StudySubset(), space,
                                opts, &stats)
                    .ValueOrDie();
  EXPECT_GT(stats.tiles_total, 3u);
  // One persistent worker per lane, however many tiles it serves.
  EXPECT_EQ(stats.workers_spawned,
            std::min<size_t>(opts.num_workers, stats.tiles_computed));
  ExpectMapsBitIdentical(reference, merged);
}

TEST(RunShardedSweepTest, FailingTileDoesNotTakeItsSiblingsDown) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  SweepOptions serial;
  serial.num_threads = 1;
  auto reference =
      SweepStudyPlans(env.ctx(), executor, StudySubset(), space, serial)
          .ValueOrDie();

  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("sibling");
  opts.num_workers = 2;
  opts.num_tiles = 12;
  // The resume below recomputes one tile on two workers; unsplit, it is
  // exactly one computed tile.
  opts.split_stragglers = false;
  // A directory where tile 3's file belongs: its temp+rename fails, and
  // the fork worker that computed it must keep serving tiles.
  const std::string blocked = opts.tile_dir + "/" + TileFileName(3);
  ASSERT_TRUE(EnsureDirectory(blocked).ok());
  ShardedSweepStats stats;
  auto failed = RunShardedSweep(env.ctx(), executor, StudySubset(), space,
                                opts, &stats);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsInternal());
  EXPECT_NE(failed.status().message().find("sweep worker for tile 3 failed"),
            std::string::npos)
      << failed.status().ToString();
  for (size_t id = 0; id < opts.num_tiles; ++id) {
    if (id == 3) continue;
    const std::string path = opts.tile_dir + "/" + TileFileName(id);
    EXPECT_TRUE(ReadMapTileFile(path).ok()) << path;
  }

  ASSERT_EQ(::rmdir(blocked.c_str()), 0);
  ShardedSweepStats resumed_stats;
  auto resumed = RunShardedSweep(env.ctx(), executor, StudySubset(), space,
                                 opts, &resumed_stats)
                     .ValueOrDie();
  EXPECT_EQ(resumed_stats.tiles_computed, 1u);
  EXPECT_EQ(resumed_stats.tiles_reused, opts.num_tiles - 1);
  ExpectMapsBitIdentical(reference, resumed);
}

TEST(RunShardedSweepTest, KilledExecWorkerFailsFast) {
  // Exec-mode workers are waited for through an exit pipe, not polled: a
  // worker killed before it writes anything must fail its tile promptly.
  ProcEnv env;
  Executor executor(env.db());
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("killed_exec");
  opts.num_workers = 2;
  opts.num_tiles = 4;
  opts.worker_command = {"/bin/sh", "-c", "kill -9 $$"};
  auto result = RunShardedSweep(env.ctx(), executor, StudySubset(),
                                SmallGrid(), opts);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  EXPECT_NE(result.status().message().find("killed?"), std::string::npos)
      << result.status().ToString();
}

TEST(RunShardedSweepTest, AllCostModelsMergeTheIdenticalMap) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  SweepOptions serial;
  serial.num_threads = 1;
  auto reference =
      SweepStudyPlans(env.ctx(), executor, StudySubset(), space, serial)
          .ValueOrDie();

  // The measured leg reuses the analytic leg's directory, so the wall
  // times that run stamped into its tiles are the feedback being tested.
  std::string analytic_dir = FreshTileDir("model_analytic");
  for (CostModelKind kind :
       {CostModelKind::kUniform, CostModelKind::kAnalytic,
        CostModelKind::kMeasured}) {
    ShardedSweepOptions opts;
    opts.tile_dir = kind == CostModelKind::kUniform
                        ? FreshTileDir("model_uniform")
                        : analytic_dir;
    opts.num_workers = 4;
    opts.num_tiles = 6;
    opts.resume = false;  // measured mode moves boundaries; recompute all
    opts.cost_model = kind;
    ShardedSweepStats stats;
    auto merged = RunShardedSweep(env.ctx(), executor, StudySubset(), space,
                                  opts, &stats)
                      .ValueOrDie();
    SCOPED_TRACE(CostModelKindName(kind));
    EXPECT_EQ(stats.tiles_computed, stats.tiles_total);
    ExpectMapsBitIdentical(reference, merged);
    // Every slot that ran a tile accounted busy time.
    ASSERT_FALSE(stats.worker_busy_seconds.empty());
    for (double busy : stats.worker_busy_seconds) EXPECT_GT(busy, 0.0);
    EXPECT_GE(stats.busy_balance_ratio(), 1.0);
  }
}

TEST(RunShardedSweepTest, WeightedTilesResumeLikeUniformOnes) {
  // The weighted partition is deterministic for a fixed (space, tiles,
  // model), so checkpoint/resume must work exactly as it does for uniform
  // tiles: a second run reuses everything.
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("weighted_resume");
  opts.num_workers = 3;
  opts.num_tiles = 5;
  opts.cost_model = CostModelKind::kAnalytic;

  ShardedSweepStats first;
  auto map1 = RunShardedSweep(env.ctx(), executor, StudySubset(), space,
                              opts, &first)
                  .ValueOrDie();
  EXPECT_EQ(first.tiles_computed, first.tiles_total);

  ShardedSweepStats second;
  auto map2 = RunShardedSweep(env.ctx(), executor, StudySubset(), space,
                              opts, &second)
                  .ValueOrDie();
  EXPECT_EQ(second.tiles_computed, 0u);
  EXPECT_EQ(second.tiles_reused, second.tiles_total);
  ExpectMapsBitIdentical(map1, map2);
}

TEST(ShardedSweepStatsTest, BalanceRatioIsMaxOverMean) {
  ShardedSweepStats stats;
  EXPECT_DOUBLE_EQ(stats.busy_balance_ratio(), 1.0);  // nothing computed
  stats.worker_busy_seconds = {1.0, 1.0, 4.0};        // mean 2, max 4
  EXPECT_DOUBLE_EQ(stats.busy_balance_ratio(), 2.0);
  stats.worker_busy_seconds = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(stats.busy_balance_ratio(), 1.0);
}

TEST(RunShardedSweepTest, ResumeReusesAllValidTiles) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("resume");
  opts.num_workers = 4;

  ShardedSweepStats first;
  auto map1 = RunShardedSweep(env.ctx(), executor, StudySubset(), space,
                              opts, &first)
                  .ValueOrDie();
  EXPECT_EQ(first.tiles_computed, first.tiles_total);

  ShardedSweepStats second;
  auto map2 = RunShardedSweep(env.ctx(), executor, StudySubset(), space,
                              opts, &second)
                  .ValueOrDie();
  EXPECT_EQ(second.tiles_computed, 0u);
  EXPECT_EQ(second.tiles_reused, second.tiles_total);
  EXPECT_EQ(second.workers_spawned, 0u);
  ExpectMapsBitIdentical(map1, map2);
}

TEST(RunShardedSweepTest, ResumeRecomputesOnlyMissingAndCorruptTiles) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("heal");
  opts.num_workers = 4;

  auto map1 =
      RunShardedSweep(env.ctx(), executor, StudySubset(), space, opts)
          .ValueOrDie();

  // Kill one checkpoint outright and damage a second in place.
  ASSERT_EQ(std::remove((opts.tile_dir + "/" + TileFileName(0)).c_str()), 0);
  {
    std::fstream f(opts.tile_dir + "/" + TileFileName(2),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    auto size = static_cast<long>(f.tellg());
    f.seekg(size / 2);
    const int byte = f.get();
    f.seekp(size / 2);
    f.put(static_cast<char>(byte ^ 0x01));
  }

  ShardedSweepStats stats;
  auto map2 = RunShardedSweep(env.ctx(), executor, StudySubset(), space,
                              opts, &stats)
                  .ValueOrDie();
  // Two damaged tiles on a four-worker box leaves workers idle, so the
  // straggler splitter cuts the recomputation finer: 2 + one extra tile
  // per split. The healed map must still match the original bytes.
  EXPECT_EQ(stats.tiles_computed, 2u + stats.tiles_split);
  EXPECT_GT(stats.tiles_split, 0u);
  EXPECT_EQ(stats.tiles_reused, stats.tiles_total - 2);
  ExpectMapsBitIdentical(map1, map2);
}

TEST(RunShardedSweepTest, MegaTileSplitsAndMeasuresEachCellExactlyOnce) {
  // The worst partition on the skewed study grid: one mega-tile holding
  // every cell, four idle workers. The splitter must cut it into
  // dispatchable pieces, measure every (plan, point) cell exactly once
  // across all worker processes, and merge the serial bytes.
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();

  SweepOptions serial;
  serial.num_threads = 1;
  auto reference =
      SweepStudyPlans(env.ctx(), executor, StudySubset(), space, serial)
          .ValueOrDie();

  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("megatile");
  opts.num_workers = 4;
  opts.num_tiles = 1;
  ShardedSweepStats stats;
  SweepTelemetry::Get().Reset();
  SweepTelemetry::Get().Enable();
  auto merged = RunShardedSweep(env.ctx(), executor, StudySubset(), space,
                                opts, &stats)
                    .ValueOrDie();
  SweepTelemetry::Get().Disable();
  const auto counters = SweepTelemetry::Get().Counters();
  SweepTelemetry::Get().Reset();

  EXPECT_EQ(stats.tiles_total, 1u);
  EXPECT_GE(stats.tiles_split, 1u);
  EXPECT_EQ(stats.tiles_computed, 1u + stats.tiles_split);
  // Nothing is recomputed under a split: the per-cell counter (merged
  // from every worker's telemetry sidecar) counts each cell once.
  ASSERT_TRUE(counters.count("sweep.cells_measured"));
  EXPECT_EQ(counters.at("sweep.cells_measured"),
            StudySubset().size() * space.num_points());
  ExpectMapsBitIdentical(reference, merged);
}

TEST(RunShardedSweepTest, ResumeAdoptsSplitPiecesByCoverage) {
  // A sweep whose tiles were straggler-split leaves *pieces* on disk, not
  // the planned tile files. A later resume against the same plan must
  // adopt the pieces that cover each planned tile instead of recomputing
  // — the resume-after-kill contract when the kill landed after a split
  // checkpointed its children.
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();

  SweepOptions serial;
  serial.num_threads = 1;
  auto reference =
      SweepStudyPlans(env.ctx(), executor, StudySubset(), space, serial)
          .ValueOrDie();

  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("adopt");
  opts.num_workers = 8;
  opts.num_tiles = 2;
  ShardedSweepStats stats;
  auto first = RunShardedSweep(env.ctx(), executor, StudySubset(), space,
                               opts, &stats)
                   .ValueOrDie();
  ASSERT_GE(stats.tiles_split, 1u);
  ExpectMapsBitIdentical(reference, first);

  ShardedSweepStats resumed_stats;
  auto resumed = RunShardedSweep(env.ctx(), executor, StudySubset(), space,
                                 opts, &resumed_stats)
                     .ValueOrDie();
  EXPECT_EQ(resumed_stats.tiles_computed, 0u);
  EXPECT_GE(resumed_stats.tiles_reused, 2u);  // adopted pieces, not plans
  ExpectMapsBitIdentical(reference, resumed);

  // Lose one checkpointed piece (the kill-mid-split shape): the next
  // resume adopts the surviving pieces and recomputes only the uncovered
  // remainder — and still merges the serial bytes.
  for (size_t id = 2; id < 64; ++id) {
    const std::string path = opts.tile_dir + "/" + TileFileName(id);
    if (std::ifstream(path).good()) {
      std::remove(path.c_str());
      break;
    }
  }
  ShardedSweepStats healed_stats;
  auto healed = RunShardedSweep(env.ctx(), executor, StudySubset(), space,
                                opts, &healed_stats)
                    .ValueOrDie();
  EXPECT_GE(healed_stats.tiles_computed, 1u);
  EXPECT_GE(healed_stats.tiles_reused, 1u);
  ExpectMapsBitIdentical(reference, healed);
}

TEST(RunShardedSweepTest, ResumeRejectsTilesFromADifferentConfiguration) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("reconfig");
  opts.num_workers = 2;
  auto coarse =
      RunShardedSweep(env.ctx(), executor, StudySubset(), space, opts)
          .ValueOrDie();

  // Same directory, finer grid: every stale tile describes the old grid
  // and must be recomputed, not merged.
  ParameterSpace fine =
      ParameterSpace::TwoD(Axis::SelectivityFine("a", -5, 0, 2),
                           Axis::SelectivityFine("b", -5, 0, 2));
  ShardedSweepStats stats;
  auto fine_map = RunShardedSweep(env.ctx(), executor, StudySubset(), fine,
                                  opts, &stats)
                      .ValueOrDie();
  EXPECT_EQ(stats.tiles_computed, stats.tiles_total);
  EXPECT_EQ(stats.tiles_reused, 0u);

  SweepOptions serial;
  serial.num_threads = 1;
  auto reference =
      SweepStudyPlans(env.ctx(), executor, StudySubset(), fine, serial)
          .ValueOrDie();
  ExpectMapsBitIdentical(reference, fine_map);
}

TEST(RunShardedSweepTest, WorkerFailurePropagatesItsStatusMessage) {
  ProcEnv env;
  StudyDb db = env.db();
  db.idx_ab = nullptr;  // kMdamAB needs idx(a,b): workers must fail
  Executor executor(db);
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("failure");
  opts.num_workers = 2;
  auto result = RunShardedSweep(env.ctx(), executor,
                                {PlanKind::kTableScan, PlanKind::kMdamAB},
                                SmallGrid(), opts);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  // The child's own Status must cross the process boundary via the err
  // file, not collapse into a bare exit code.
  EXPECT_NE(result.status().message().find("sweep worker for tile"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("InvalidArgument"),
            std::string::npos);
}

TEST(RunShardedSweepTest, RejectsOrderDependentWarmupAndMissingDir) {
  ProcEnv env;
  Executor executor(env.db());
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("warmup");
  env.ctx()->warmup = WarmupPolicy::PriorRun();
  auto r = RunShardedSweep(env.ctx(), executor, StudySubset(), SmallGrid(),
                           opts);
  EXPECT_TRUE(r.status().IsInvalidArgument());
  env.ctx()->warmup = WarmupPolicy::Cold();

  ShardedSweepOptions no_dir;
  EXPECT_TRUE(RunShardedSweep(env.ctx(), executor, StudySubset(),
                              SmallGrid(), no_dir)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace robustmap
