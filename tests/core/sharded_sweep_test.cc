#include "core/sharded_sweep.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
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
/// The serial in-process sweep of the study subset over `space`: the
/// reference every sharded merge must reproduce byte for byte.
SweepRequest SerialRequest(const ParameterSpace& space) {
  SweepRequest req;
  req.plans = StudySubset();
  req.space = space;
  req.sweep.num_threads = 1;
  return req;
}

/// The same study on the sharded backend under `opts`.
SweepRequest ShardedRequest(const ParameterSpace& space,
                            const ShardedSweepOptions& opts) {
  SweepRequest req;
  req.plans = StudySubset();
  req.space = space;
  req.backend = BackendKind::kShardedProcess;
  req.sharded = opts;
  return req;
}

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

  auto reference =
      SweepEngine::Run(env.ctx(), executor, SerialRequest(space))
          .ValueOrDie()
          .map();

  for (unsigned workers : {1u, 2u, 8u}) {
    ShardedSweepOptions opts;
    opts.tile_dir =
        FreshTileDir("workers" + std::to_string(workers));
    opts.num_workers = workers;
    auto merged =
        SweepEngine::Run(env.ctx(), executor, ShardedRequest(space, opts))
            .ValueOrDie();
    const ShardedSweepStats& stats = merged.sharded_stats;
    SCOPED_TRACE(std::to_string(workers) + " workers");
    // Each straggler split turns one pending tile into two, so with more
    // workers than planned tiles the computed count exceeds the plan by
    // exactly the split count — and the merged bytes must not notice.
    EXPECT_EQ(stats.tiles_computed, stats.tiles_total + stats.tiles_split);
    if (workers <= 1) {
      EXPECT_EQ(stats.tiles_split, 0u);
    }
    EXPECT_EQ(stats.tiles_reused, 0u);
    ExpectMapsBitIdentical(reference, merged.map());
  }
}

TEST(RunShardedSweepTest, MoreTilesThanWorkersStillMergesExactly) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  auto reference =
      SweepEngine::Run(env.ctx(), executor, SerialRequest(space))
          .ValueOrDie()
          .map();

  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("finetiles");
  opts.num_workers = 3;
  opts.num_tiles = 11;  // deliberately not a multiple of the worker count
  auto merged =
      SweepEngine::Run(env.ctx(), executor, ShardedRequest(space, opts))
          .ValueOrDie();
  const ShardedSweepStats& stats = merged.sharded_stats;
  EXPECT_GT(stats.tiles_total, 3u);
  // One persistent worker per lane, however many tiles it serves.
  EXPECT_EQ(stats.workers_spawned,
            std::min<size_t>(opts.num_workers, stats.tiles_computed));
  ExpectMapsBitIdentical(reference, merged.map());
}

TEST(RunShardedSweepTest, FailingTileDoesNotTakeItsSiblingsDown) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  auto reference =
      SweepEngine::Run(env.ctx(), executor, SerialRequest(space))
          .ValueOrDie()
          .map();

  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("sibling");
  opts.num_workers = 2;
  opts.num_tiles = 12;
  // A directory where tile 3's file belongs: its temp+rename fails, and
  // the fork worker that computed it must keep serving tiles.
  const std::string blocked = opts.tile_dir + "/" + TileFileName(3);
  ASSERT_TRUE(EnsureDirectory(blocked).ok());
  auto failed = SweepEngine::Run(env.ctx(), executor,
                                 ShardedRequest(space, opts));
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
  auto resumed =
      SweepEngine::Run(env.ctx(), executor, ShardedRequest(space, opts))
          .ValueOrDie();
  const ShardedSweepStats& resumed_stats = resumed.sharded_stats;
  // One pending tile on two workers is the straggler shape: the splitter
  // cuts it finer (one extra tile per split), but only tile 3's cells are
  // recomputed.
  EXPECT_EQ(resumed_stats.tiles_computed, 1 + resumed_stats.tiles_split);
  EXPECT_EQ(resumed_stats.tiles_reused, opts.num_tiles - 1);
  ExpectMapsBitIdentical(reference, resumed.map());
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
  auto result = SweepEngine::Run(env.ctx(), executor,
                                 ShardedRequest(SmallGrid(), opts));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  EXPECT_NE(result.status().message().find("killed?"), std::string::npos)
      << result.status().ToString();
}

/// Lines in `path`; 0 when it does not exist. Fake workers append one line
/// per process start, counting spawns even for a sweep that fails (and so
/// returns no stats).
size_t CountLines(const std::string& path) {
  std::ifstream f(path);
  size_t lines = 0;
  for (std::string line; std::getline(f, line);) ++lines;
  return lines;
}

TEST(RunShardedSweepTest, WorkerKilledMidTileIsReplacedForEachPendingTile) {
  // Each worker takes one request and dies holding it: that tile fails,
  // and every tile still pending gets a fresh worker.
  ProcEnv env;
  Executor executor(env.db());
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("killed_mid_tile");
  opts.num_workers = 2;
  opts.num_tiles = 4;
  ASSERT_TRUE(EnsureDirectory(opts.tile_dir).ok());
  const std::string log = opts.tile_dir + "/spawned.log";
  std::remove(log.c_str());
  // The tile directory is the script's $0.
  opts.worker_command = {"/bin/sh", "-c",
                         "echo >> \"$0/spawned.log\"; read request; "
                         "kill -9 $$",
                         opts.tile_dir};
  auto result = SweepEngine::Run(env.ctx(), executor,
                                 ShardedRequest(SmallGrid(), opts));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  EXPECT_NE(result.status().message().find("killed?"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(CountLines(log), opts.num_tiles);
  EXPECT_GT(CountLines(log), opts.num_workers);
}

TEST(RunShardedSweepTest, WorkerAnsweringFailureKeepsServing) {
  // A worker that answers '1' with its reason in the tile's .err file is
  // alive and keeps its lane: no replacement, and the reason reaches the
  // sweep's Status.
  ProcEnv env;
  Executor executor(env.db());
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("answers_failure");
  opts.num_workers = 2;
  opts.num_tiles = 6;
  ASSERT_TRUE(EnsureDirectory(opts.tile_dir).ok());
  const std::string log = opts.tile_dir + "/spawned.log";
  std::remove(log.c_str());
  // The tile directory is the script's $0.
  opts.worker_command = {"/bin/sh", "-c",
                         "echo >> \"$0/spawned.log\"; "
                         "while read id rect; do "
                         "printf 'fake worker refused tile %s' \"$id\" "
                         "> \"$0/$(printf tile_%04d.rmt \"$id\").err\"; "
                         "printf 1; done",
                         opts.tile_dir};
  auto result = SweepEngine::Run(env.ctx(), executor,
                                 ShardedRequest(SmallGrid(), opts));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  EXPECT_NE(result.status().message().find(
                "sweep worker for tile 0 failed: fake worker refused tile 0"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(CountLines(log), opts.num_workers);
}

TEST(RunShardedSweepTest, UnexecutableWorkerCommandFailsWithCannotExec) {
  ProcEnv env;
  Executor executor(env.db());
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("cannot_exec");
  opts.num_workers = 2;
  opts.num_tiles = 4;
  opts.worker_command = {opts.tile_dir + "/no_such_worker"};
  auto result = SweepEngine::Run(env.ctx(), executor,
                                 ShardedRequest(SmallGrid(), opts));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  EXPECT_NE(result.status().message().find("cannot exec " +
                                           opts.worker_command[0] + ": "),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(result.status().message().find("killed?"), std::string::npos);
}

/// The tile a sweep of `req` dispatches first (the heaviest pending one):
/// when several answered tiles cannot be read, its error is the one
/// reported, whatever order the workers answered in.
TileSpec FirstPendingTile(const SweepRequest& req) {
  std::vector<std::string> labels;
  for (PlanKind k : req.plans) labels.push_back(PlanKindLabel(k));
  return PlanShards(req, labels, nullptr).ValueOrDie().todo.front();
}

TEST(RunShardedSweepTest, AnsweredTileThatWasNeverWrittenIsNotFound) {
  ProcEnv env;
  Executor executor(env.db());
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("answered_unwritten");
  opts.num_workers = 2;
  opts.num_tiles = 4;
  opts.worker_command = {"/bin/sh", "-c",
                         "while read id rect; do printf 0; done"};
  const SweepRequest req = ShardedRequest(SmallGrid(), opts);
  const std::string first =
      opts.tile_dir + "/" + TileFileName(FirstPendingTile(req).shard_id);
  auto result = SweepEngine::Run(env.ctx(), executor, req);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound()) << result.status().ToString();
  EXPECT_EQ(result.status().message(), "cannot open map tile " + first);
}

TEST(RunShardedSweepTest, AnsweredTileHoldingGarbageIsCorruption) {
  ProcEnv env;
  Executor executor(env.db());
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("answered_garbage");
  opts.num_workers = 2;
  opts.num_tiles = 4;
  // The tile directory is the script's $0.
  opts.worker_command = {"/bin/sh", "-c",
                         "while read id rect; do printf garbage "
                         "> \"$0/$(printf tile_%04d.rmt \"$id\")\"; "
                         "printf 0; done",
                         opts.tile_dir};
  const SweepRequest req = ShardedRequest(SmallGrid(), opts);
  const std::string first =
      opts.tile_dir + "/" + TileFileName(FirstPendingTile(req).shard_id);
  auto result = SweepEngine::Run(env.ctx(), executor, req);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  EXPECT_EQ(result.status().message().rfind(first + ": ", 0), 0u)
      << result.status().ToString();
}

TEST(RunShardedSweepTest, AnsweredTileOverTheWrongRectangleIsRejected) {
  // Every worker copies one checksum-valid tile — named for the first
  // pending shard but over the second one's rectangle — to the path it was
  // asked for. The first pending tile's mismatch is the error, not an
  // overlap whose grid point would depend on which tile arrived first.
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("wrong_rect");
  opts.num_workers = 2;
  opts.num_tiles = 4;
  ASSERT_TRUE(EnsureDirectory(opts.tile_dir).ok());
  // The tile directory is the script's $0.
  opts.worker_command = {"/bin/sh", "-c",
                         "while read id rect; do cp \"$0/wrong.tile\" "
                         "\"$0/$(printf tile_%04d.rmt \"$id\")\"; "
                         "printf 0; done",
                         opts.tile_dir};
  const SweepRequest req = ShardedRequest(space, opts);
  std::vector<std::string> labels;
  for (PlanKind k : req.plans) labels.push_back(PlanKindLabel(k));
  const std::vector<TileSpec> todo =
      PlanShards(req, labels, nullptr).ValueOrDie().todo;
  ASSERT_GE(todo.size(), 2u);
  TileSpec wrong = todo[1];
  wrong.shard_id = todo[0].shard_id;
  auto slice =
      SweepEngine::Run(env.ctx(), executor,
                       SerialRequest(SliceSpace(space, wrong).ValueOrDie()));
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();
  ASSERT_TRUE(WriteMapTileFile(opts.tile_dir + "/wrong.tile",
                               MapTile{wrong, space, slice.value().map()})
                  .ok());

  auto result = SweepEngine::Run(env.ctx(), executor, req);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
  EXPECT_EQ(result.status().message(),
            "tile " + std::to_string(todo[0].shard_id) + " came back as tile " +
                std::to_string(todo[0].shard_id) + " over " +
                RectSpecString(todo[1]) + ", not the dispatched " +
                RectSpecString(todo[0]));
}

TEST(RunShardedSweepTest, KilledWorkerOutranksAnEarlierUnreadableTile) {
  // Each worker answers its first tile with garbage on disk, then dies
  // holding its second: the worker failure is the sweep's error, not the
  // read failure of a tile answered before it.
  ProcEnv env;
  Executor executor(env.db());
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("killed_after_garbage");
  opts.num_workers = 1;
  opts.num_tiles = 4;
  // The tile directory is the script's $0.
  opts.worker_command = {"/bin/sh", "-c",
                         "read id rect; printf garbage "
                         "> \"$0/$(printf tile_%04d.rmt \"$id\")\"; "
                         "printf 0; read id rect; kill -9 $$",
                         opts.tile_dir};
  auto result = SweepEngine::Run(env.ctx(), executor,
                                 ShardedRequest(SmallGrid(), opts));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("killed?"), std::string::npos)
      << result.status().ToString();
}

TEST(ServeTilesTest, AnswersEachRequestLineAndReturnsOnEof) {
  ProcEnv env;
  Executor executor(env.db());
  SweepRequest req;
  req.plans = StudySubset();
  req.space = SmallGrid();
  req.sharded.tile_dir = FreshTileDir("serve");
  ASSERT_TRUE(EnsureDirectory(req.sharded.tile_dir).ok());
  TileSpec tile;
  tile.shard_id = 5;
  tile.x_end = 2;
  tile.y_end = 3;
  TileSpec outside = tile;
  outside.shard_id = 6;
  outside.x_end = 99;
  const std::string tile_path = req.sharded.tile_dir + "/" + TileFileName(5);
  const std::string outside_path =
      req.sharded.tile_dir + "/" + TileFileName(6);
  std::remove(TileErrFileName(outside_path).c_str());
  const std::string requests =
      TileRequestLine(tile) + TileRequestLine(outside) + "not a request\n";
  int in[2] = {-1, -1};
  int out[2] = {-1, -1};
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  ASSERT_TRUE(WriteMessage(in[1], requests.data(), requests.size()));
  ::close(in[1]);
  ServeTiles(in[0], out[1], env.ctx(), executor, req);
  ::close(in[0]);
  ::close(out[1]);
  char answers[8] = {};
  EXPECT_EQ(ReadMessage(out[0], answers, sizeof answers), 3);
  ::close(out[0]);
  EXPECT_EQ(std::string(answers, 3), "011");
  auto written = ReadMapTileFile(tile_path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written.value().spec, tile);
  std::ifstream err(TileErrFileName(outside_path));
  std::string reason((std::istreambuf_iterator<char>(err)),
                     std::istreambuf_iterator<char>());
  EXPECT_NE(reason.find("outside the"), std::string::npos) << reason;
}

TEST(RunShardedSweepTest, WeightedTilesResumeLikeUniformOnes) {
  // The cost-weighted partition is deterministic for a fixed (space,
  // tiles), so checkpoint/resume works on its tiles: a second run reuses
  // everything. The first run must merge the serial reference's bytes.
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("weighted_resume");
  opts.num_workers = 3;
  opts.num_tiles = 5;
  auto reference =
      SweepEngine::Run(env.ctx(), executor, SerialRequest(space))
          .ValueOrDie()
          .map();

  auto map1 =
      SweepEngine::Run(env.ctx(), executor, ShardedRequest(space, opts))
          .ValueOrDie();
  const ShardedSweepStats& first = map1.sharded_stats;
  EXPECT_EQ(first.tiles_computed, first.tiles_total);
  ExpectMapsBitIdentical(reference, map1.map());
  // Every lane that ran a tile accounted busy time.
  ASSERT_FALSE(first.worker_busy_seconds.empty());
  for (double busy : first.worker_busy_seconds) EXPECT_GT(busy, 0.0);
  EXPECT_GE(first.busy_balance_ratio(), 1.0);

  auto map2 =
      SweepEngine::Run(env.ctx(), executor, ShardedRequest(space, opts))
          .ValueOrDie();
  const ShardedSweepStats& second = map2.sharded_stats;
  EXPECT_EQ(second.tiles_computed, 0u);
  EXPECT_EQ(second.tiles_reused, second.tiles_total);
  ExpectMapsBitIdentical(map1.map(), map2.map());
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

  auto map1 =
      SweepEngine::Run(env.ctx(), executor, ShardedRequest(space, opts))
          .ValueOrDie();
  const ShardedSweepStats& first = map1.sharded_stats;
  EXPECT_EQ(first.tiles_computed, first.tiles_total);

  auto map2 =
      SweepEngine::Run(env.ctx(), executor, ShardedRequest(space, opts))
          .ValueOrDie();
  const ShardedSweepStats& second = map2.sharded_stats;
  EXPECT_EQ(second.tiles_computed, 0u);
  EXPECT_EQ(second.tiles_reused, second.tiles_total);
  EXPECT_EQ(second.workers_spawned, 0u);
  ExpectMapsBitIdentical(map1.map(), map2.map());
}

TEST(RunShardedSweepTest, ResumeRecomputesOnlyMissingAndCorruptTiles) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("heal");
  opts.num_workers = 4;

  auto map1 =
      SweepEngine::Run(env.ctx(), executor,
                       ShardedRequest(space, opts))
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

  auto map2 =
      SweepEngine::Run(env.ctx(), executor, ShardedRequest(space, opts))
          .ValueOrDie();
  const ShardedSweepStats& stats = map2.sharded_stats;
  // Two damaged tiles on a four-worker box leaves workers idle, so the
  // straggler splitter cuts the recomputation finer: 2 + one extra tile
  // per split. The healed map must still match the original bytes.
  EXPECT_EQ(stats.tiles_computed, 2u + stats.tiles_split);
  EXPECT_GT(stats.tiles_split, 0u);
  EXPECT_EQ(stats.tiles_reused, stats.tiles_total - 2);
  ExpectMapsBitIdentical(map1.map(), map2.map());
}

TEST(RunShardedSweepTest, MegaTileSplitsAndMeasuresEachCellExactlyOnce) {
  // The worst partition on the skewed study grid: one mega-tile holding
  // every cell, four idle workers. The splitter must cut it into
  // dispatchable pieces, measure every (plan, point) cell exactly once
  // across all worker processes, and merge the serial bytes.
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();

  auto reference =
      SweepEngine::Run(env.ctx(), executor, SerialRequest(space))
          .ValueOrDie()
          .map();

  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("megatile");
  opts.num_workers = 4;
  opts.num_tiles = 1;
  SweepTelemetry::Get().Reset();
  SweepTelemetry::Get().Enable();
  auto merged =
      SweepEngine::Run(env.ctx(), executor, ShardedRequest(space, opts))
          .ValueOrDie();
  const ShardedSweepStats& stats = merged.sharded_stats;
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
  ExpectMapsBitIdentical(reference, merged.map());
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

  auto reference =
      SweepEngine::Run(env.ctx(), executor, SerialRequest(space))
          .ValueOrDie()
          .map();

  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("adopt");
  opts.num_workers = 8;
  opts.num_tiles = 2;
  auto first =
      SweepEngine::Run(env.ctx(), executor, ShardedRequest(space, opts))
          .ValueOrDie();
  const ShardedSweepStats& stats = first.sharded_stats;
  ASSERT_GE(stats.tiles_split, 1u);
  ExpectMapsBitIdentical(reference, first.map());

  auto resumed =
      SweepEngine::Run(env.ctx(), executor, ShardedRequest(space, opts))
          .ValueOrDie();
  const ShardedSweepStats& resumed_stats = resumed.sharded_stats;
  EXPECT_EQ(resumed_stats.tiles_computed, 0u);
  EXPECT_GE(resumed_stats.tiles_reused, 2u);  // adopted pieces, not plans
  ExpectMapsBitIdentical(reference, resumed.map());

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
  auto healed =
      SweepEngine::Run(env.ctx(), executor, ShardedRequest(space, opts))
          .ValueOrDie();
  const ShardedSweepStats& healed_stats = healed.sharded_stats;
  EXPECT_GE(healed_stats.tiles_computed, 1u);
  EXPECT_GE(healed_stats.tiles_reused, 1u);
  ExpectMapsBitIdentical(reference, healed.map());
}

TEST(RunShardedSweepTest, ResumeRejectsTilesFromADifferentConfiguration) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = SmallGrid();
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("reconfig");
  opts.num_workers = 2;
  auto coarse =
      SweepEngine::Run(env.ctx(), executor,
                       ShardedRequest(space, opts))
          .ValueOrDie();

  // Same directory, finer grid: every stale tile describes the old grid
  // and must be recomputed, not merged.
  ParameterSpace fine =
      ParameterSpace::TwoD(Axis::SelectivityFine("a", -5, 0, 2),
                           Axis::SelectivityFine("b", -5, 0, 2));
  auto fine_map =
      SweepEngine::Run(env.ctx(), executor, ShardedRequest(fine, opts))
          .ValueOrDie();
  const ShardedSweepStats& stats = fine_map.sharded_stats;
  EXPECT_EQ(stats.tiles_computed, stats.tiles_total);
  EXPECT_EQ(stats.tiles_reused, 0u);

  auto reference =
      SweepEngine::Run(env.ctx(), executor, SerialRequest(fine))
          .ValueOrDie()
          .map();
  ExpectMapsBitIdentical(reference, fine_map.map());
}

TEST(RunShardedSweepTest, WorkerFailurePropagatesItsStatusMessage) {
  ProcEnv env;
  StudyDb db = env.db();
  db.idx_ab = nullptr;  // kMdamAB needs idx(a,b): workers must fail
  Executor executor(db);
  ShardedSweepOptions opts;
  opts.tile_dir = FreshTileDir("failure");
  opts.num_workers = 2;
  SweepRequest req = ShardedRequest(SmallGrid(), opts);
  req.plans = {PlanKind::kTableScan, PlanKind::kMdamAB};
  auto result = SweepEngine::Run(env.ctx(), executor, req);
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
  auto r = SweepEngine::Run(env.ctx(), executor,
                            ShardedRequest(SmallGrid(), opts));
  EXPECT_TRUE(r.status().IsInvalidArgument());
  env.ctx()->warmup = WarmupPolicy::Cold();

  ShardedSweepOptions no_dir;
  EXPECT_TRUE(SweepEngine::Run(env.ctx(), executor,
                               ShardedRequest(SmallGrid(), no_dir))
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace robustmap
