#include "core/shard_planner.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/cell_cache.h"
#include "core/sharded_sweep.h"
#include "core/sweep_cost.h"
#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ProcEnv;

ParameterSpace Grid(int x_min_log2, int y_min_log2) {
  return ParameterSpace::TwoD(Axis::Selectivity("a", x_min_log2, 0),
                              Axis::Selectivity("b", y_min_log2, 0));
}

CellCostModel Analytic(const ParameterSpace& space) {
  return CellCostModel::Analytic(space).ValueOrDie();
}

/// The equal-area reference partition: the same tile-grid shape as
/// `ShardPlanner::Partition`, with bands cut by cell count instead of by
/// cost (band b of n over s cells is [b*s/n, (b+1)*s/n)).
std::vector<TileSpec> EqualAreaTiles(const ParameterSpace& space,
                                     size_t max_tiles) {
  const size_t gy = std::min(max_tiles, space.y_size());
  const size_t gx =
      std::min(std::max<size_t>(1, max_tiles / gy), space.x_size());
  std::vector<TileSpec> tiles;
  for (size_t by = 0; by < gy; ++by) {
    for (size_t bx = 0; bx < gx; ++bx) {
      TileSpec t;
      t.shard_id = by * gx + bx;
      t.x_begin = bx * space.x_size() / gx;
      t.x_end = (bx + 1) * space.x_size() / gx;
      t.y_begin = by * space.y_size() / gy;
      t.y_end = (by + 1) * space.y_size() / gy;
      tiles.push_back(t);
    }
  }
  return tiles;
}

/// Every grid point must be covered by exactly one tile.
void ExpectExactCover(const ParameterSpace& space,
                      const std::vector<TileSpec>& tiles) {
  std::vector<int> covered(space.num_points(), 0);
  for (const TileSpec& t : tiles) {
    ASSERT_LE(t.x_end, space.x_size());
    ASSERT_LE(t.y_end, space.y_size());
    ASSERT_LT(t.x_begin, t.x_end);
    ASSERT_LT(t.y_begin, t.y_end);
    for (size_t yi = t.y_begin; yi < t.y_end; ++yi) {
      for (size_t xi = t.x_begin; xi < t.x_end; ++xi) {
        ++covered[space.IndexOf(xi, yi)];
      }
    }
  }
  for (size_t pt = 0; pt < covered.size(); ++pt) {
    EXPECT_EQ(covered[pt], 1) << "point " << pt;
  }
}

TEST(ShardPlannerTest, CoversGridExactlyAtManyTileCounts) {
  ParameterSpace space = Grid(-8, -6);  // 9 x 7
  for (size_t tiles : {1u, 2u, 3u, 7u, 8u, 13u, 63u, 1000u}) {
    auto plan =
        ShardPlanner::Partition(space, tiles, Analytic(space)).ValueOrDie();
    SCOPED_TRACE(tiles);
    EXPECT_LE(plan.size(), tiles);
    EXPECT_FALSE(plan.empty());
    ExpectExactCover(space, plan);
  }
}

TEST(ShardPlannerTest, OneDSpaceSplitsAlongX) {
  ParameterSpace line = ParameterSpace::OneD(Axis::Selectivity("a", -10, 0));
  auto plan = ShardPlanner::Partition(line, 4, Analytic(line)).ValueOrDie();
  EXPECT_EQ(plan.size(), 4u);
  ExpectExactCover(line, plan);
  for (const TileSpec& t : plan) {
    EXPECT_EQ(t.y_begin, 0u);
    EXPECT_EQ(t.y_end, 1u);
  }
}

TEST(ShardPlannerTest, MoreTilesThanPointsIsCappedByTheGrid) {
  ParameterSpace space = Grid(-2, -2);  // 3 x 3 = 9 points
  auto plan =
      ShardPlanner::Partition(space, 1000, Analytic(space)).ValueOrDie();
  EXPECT_EQ(plan.size(), 9u);  // one tile per point, never an empty tile
  ExpectExactCover(space, plan);
}

TEST(ShardPlannerTest, StableIdsAcrossInvocations) {
  ParameterSpace space = Grid(-8, -8);
  auto a = ShardPlanner::Partition(space, 8, Analytic(space)).ValueOrDie();
  auto b = ShardPlanner::Partition(space, 8, Analytic(space)).ValueOrDie();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
    // One tile per row band (8 tiles, 9 rows), so the snake never turns:
    // emission order is id order, and ids are dense.
    EXPECT_EQ(a[i].shard_id, i);
  }
}

TEST(ShardPlannerTest, ZeroTilesIsAnError) {
  const ParameterSpace space = Grid(-4, -4);
  auto plan = ShardPlanner::Partition(space, 0, Analytic(space));
  EXPECT_FALSE(plan.ok());
  EXPECT_TRUE(plan.status().IsInvalidArgument());
}

TEST(ShardPlannerTest, EmptyGridIsAnError) {
  // A default-constructed space is the 0-point grid; the OneD/TwoD
  // factories assert non-empty axes in Debug builds, so the Status-based
  // rejection must be reachable without them.
  ParameterSpace empty;
  auto plan = ShardPlanner::Partition(empty, 4, Analytic(Grid(-4, -4)));
  EXPECT_FALSE(plan.ok());
  EXPECT_TRUE(plan.status().IsInvalidArgument());
}

TEST(ShardPlannerWeightedTest, CoversGridExactlyAndKeepsDenseIds) {
  ParameterSpace space = Grid(-8, -6);  // 9 x 7
  auto model = CellCostModel::Analytic(space).ValueOrDie();
  for (size_t tiles : {1u, 2u, 3u, 7u, 13u, 63u, 1000u}) {
    SCOPED_TRACE(tiles);
    auto plan = ShardPlanner::Partition(space, tiles, model).ValueOrDie();
    EXPECT_LE(plan.size(), tiles);
    EXPECT_FALSE(plan.empty());
    ExpectExactCover(space, plan);
    // Ids stay dense row-major even though emission order snakes.
    std::vector<size_t> ids;
    for (const TileSpec& t : plan) ids.push_back(t.shard_id);
    std::sort(ids.begin(), ids.end());
    for (size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
  }
}

TEST(ShardPlannerWeightedTest, SameTileCountAsUniformPartition) {
  // Resume directories key tiles by (id, rectangle); the partition keeps
  // the equal-area tile-grid shape, so discounting cached cells never
  // changes how many tiles a (space, max_tiles) request produces.
  ParameterSpace space = Grid(-8, -8);
  auto model = CellCostModel::Analytic(space).ValueOrDie();
  std::vector<uint8_t> half_cached(space.num_points(), 0);
  for (size_t pt = 0; pt < half_cached.size(); pt += 2) half_cached[pt] = 1;
  auto discounted = model.WithDiscountedCells(half_cached);
  for (size_t tiles : {1u, 4u, 8u, 12u, 64u}) {
    const size_t uniform = EqualAreaTiles(space, tiles).size();
    auto weighted = ShardPlanner::Partition(space, tiles, model).ValueOrDie();
    auto cached =
        ShardPlanner::Partition(space, tiles, discounted).ValueOrDie();
    EXPECT_EQ(uniform, weighted.size()) << tiles << " tiles";
    EXPECT_EQ(uniform, cached.size()) << tiles << " tiles";
  }
}

TEST(ShardPlannerWeightedTest, BalancesCostBetterThanUniform) {
  // A strongly skewed grid: the analytic model concentrates cost near
  // sel=1, so uniform row bands leave one tile holding most of the work.
  ParameterSpace space = Grid(-12, -12);  // 13 x 13
  auto model = CellCostModel::Analytic(space).ValueOrDie();
  auto uniform = EqualAreaTiles(space, 4);
  auto weighted = ShardPlanner::Partition(space, 4, model).ValueOrDie();
  auto max_cost = [&](const std::vector<TileSpec>& tiles) {
    double m = 0;
    for (const TileSpec& t : tiles) m = std::max(m, model.TileCost(t));
    return m;
  };
  EXPECT_LT(max_cost(weighted), max_cost(uniform));
  // The expensive band (toward high y) must be finer than the cheap one:
  // the last band is thinner than the first.
  auto y_span = [](const TileSpec& t) { return t.y_end - t.y_begin; };
  const TileSpec* first_band = nullptr;
  const TileSpec* last_band = nullptr;
  for (const TileSpec& t : weighted) {
    if (t.y_begin == 0) first_band = &t;
    if (t.y_end == space.y_size()) last_band = &t;
  }
  ASSERT_NE(first_band, nullptr);
  ASSERT_NE(last_band, nullptr);
  EXPECT_LT(y_span(*last_band), y_span(*first_band));
}

TEST(ShardPlannerWeightedTest, UniformModelReproducesUniformRectangles) {
  // A fully cached grid discounts every cell to the same epsilon. Under
  // that flat model the cost cuts and the count cuts agree, so a warm
  // rerun's tiles are the equal-area rectangles (order aside).
  ParameterSpace space = Grid(-7, -7);
  auto flat = CellCostModel::Analytic(space).ValueOrDie().WithDiscountedCells(
      std::vector<uint8_t>(space.num_points(), 1));
  auto uniform = EqualAreaTiles(space, 8);
  auto weighted = ShardPlanner::Partition(space, 8, flat).ValueOrDie();
  ASSERT_EQ(uniform.size(), weighted.size());
  auto by_id = [](const TileSpec& a, const TileSpec& b) {
    return a.shard_id < b.shard_id;
  };
  std::sort(uniform.begin(), uniform.end(), by_id);
  std::sort(weighted.begin(), weighted.end(), by_id);
  for (size_t i = 0; i < uniform.size(); ++i) {
    EXPECT_EQ(uniform[i], weighted[i]) << "tile " << i;
  }
}

TEST(ShardPlannerWeightedTest, SnakeOrderKeepsBandsAdjacent) {
  ParameterSpace space = Grid(-7, -7);  // 8 x 8
  auto model = CellCostModel::Analytic(space).ValueOrDie();
  // 16 tiles over 8 rows: a 2-wide tile grid, so snake order alternates
  // x-direction per band.
  auto plan = ShardPlanner::Partition(space, 16, model).ValueOrDie();
  ASSERT_EQ(plan.size(), 16u);
  for (size_t i = 0; i + 1 < plan.size(); ++i) {
    const TileSpec& a = plan[i];
    const TileSpec& b = plan[i + 1];
    // Consecutive emissions share a band or touch across the band seam.
    const bool same_band = a.y_begin == b.y_begin;
    const bool adjacent_band = a.y_end == b.y_begin;
    EXPECT_TRUE(same_band || adjacent_band) << "emission " << i;
    if (adjacent_band) {
      // The snake turns in place: the x range repeats at the seam.
      EXPECT_EQ(a.x_begin == b.x_begin || a.x_end == b.x_end, true);
    }
  }
}

TEST(ShardPlannerWeightedTest, StableAcrossInvocationsAndValidatesModel) {
  ParameterSpace space = Grid(-8, -8);
  auto model = CellCostModel::Analytic(space).ValueOrDie();
  auto a = ShardPlanner::Partition(space, 8, model).ValueOrDie();
  auto b = ShardPlanner::Partition(space, 8, model).ValueOrDie();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);

  ParameterSpace other = Grid(-4, -4);
  auto mismatch =
      ShardPlanner::Partition(other, 4, model);  // model built over `space`
  EXPECT_FALSE(mismatch.ok());
  EXPECT_TRUE(mismatch.status().IsInvalidArgument());
}

TEST(SliceSpaceTest, SliceCarriesAxisNamesAndValues) {
  ParameterSpace space = Grid(-8, -6);
  TileSpec t;
  t.x_begin = 2;
  t.x_end = 5;
  t.y_begin = 1;
  t.y_end = 3;
  ParameterSpace sub = SliceSpace(space, t).ValueOrDie();
  EXPECT_TRUE(sub.is_2d());
  EXPECT_EQ(sub.x().name, "a");
  EXPECT_EQ(sub.y().name, "b");
  ASSERT_EQ(sub.x_size(), 3u);
  ASSERT_EQ(sub.y_size(), 2u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sub.x().values[i], space.x().values[2 + i]);
  }
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(sub.y().values[i], space.y().values[1 + i]);
  }
}

TEST(SliceSpaceTest, OneDSliceStaysOneD) {
  ParameterSpace line = ParameterSpace::OneD(Axis::Selectivity("a", -4, 0));
  TileSpec t;
  t.x_begin = 1;
  t.x_end = 3;
  t.y_begin = 0;
  t.y_end = 1;
  ParameterSpace sub = SliceSpace(line, t).ValueOrDie();
  EXPECT_FALSE(sub.is_2d());
  EXPECT_EQ(sub.num_points(), 2u);
}

TEST(SliceSpaceTest, RejectsEmptyAndOutOfRangeRectangles) {
  ParameterSpace space = Grid(-4, -4);
  TileSpec empty;  // x_begin == x_end == 0
  EXPECT_FALSE(SliceSpace(space, empty).ok());
  TileSpec outside;
  outside.x_begin = 0;
  outside.x_end = space.x_size() + 1;
  outside.y_begin = 0;
  outside.y_end = 1;
  EXPECT_FALSE(SliceSpace(space, outside).ok());
}

// ---------------------------------------------------------------------------
// PlanShards: the sharded coordinator's planning step, tested against tile
// files written into a temp directory — no worker process is started.

/// A fresh, empty tile directory per test case.
std::string FreshPlanDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/plan_shards_" + name +
                          "_" + std::to_string(::getpid());
  for (const std::string& file : SortedTileFiles(dir)) {
    std::remove((dir + "/" + file).c_str());
  }
  EXPECT_TRUE(EnsureDirectory(dir).ok());
  return dir;
}

std::vector<std::string> PlanLabels() {
  return {PlanKindLabel(PlanKind::kTableScan)};
}

/// A plain single-plan sharded request over `space` into `dir`.
SweepRequest PlanRequest(const ParameterSpace& space, const std::string& dir,
                         unsigned workers, size_t tiles) {
  SweepRequest req;
  req.plans = {PlanKind::kTableScan};
  req.space = space;
  req.backend = BackendKind::kShardedProcess;
  req.sharded.tile_dir = dir;
  req.sharded.num_workers = workers;
  req.sharded.num_tiles = tiles;
  return req;
}

/// Writes a valid tile of `req`'s study for `rect` under `shard_id`, every
/// cell's seconds set to its parent-grid point index.
void WritePlanTile(const SweepRequest& req, TileSpec rect, size_t shard_id) {
  rect.shard_id = shard_id;
  const ParameterSpace sub = SliceSpace(req.space, rect).ValueOrDie();
  RobustnessMap map(sub, PlanLabels());
  for (size_t pt = 0; pt < sub.num_points(); ++pt) {
    const auto [sx, sy] = sub.CoordsOf(pt);
    Measurement m;
    m.seconds = static_cast<double>(
        req.space.IndexOf(rect.x_begin + sx, rect.y_begin + sy));
    map.Set(0, pt, m);
  }
  ASSERT_TRUE(WriteMapTileFile(req.sharded.tile_dir + "/" +
                                   TileFileName(shard_id),
                               MapTile{rect, req.space, map})
                  .ok());
}

TileSpec Rect(size_t x0, size_t x1, size_t y0, size_t y1) {
  TileSpec t;
  t.x_begin = x0;
  t.x_end = x1;
  t.y_begin = y0;
  t.y_end = y1;
  return t;
}

ShardPlan Plan(const SweepRequest& req,
               const ShardCacheView* cache_view = nullptr) {
  return PlanShards(req, PlanLabels(), cache_view).ValueOrDie();
}

TEST(PlanShardsTest, SameDirectoryStateYieldsTheSameTodoList) {
  const ParameterSpace space = Grid(-8, -6);  // 9 x 7
  const SweepRequest req = PlanRequest(space, FreshPlanDir("same"), 8, 4);
  const auto planned =
      ShardPlanner::Partition(space, 4, Analytic(space)).ValueOrDie();
  // Two planned tiles valid on disk, two missing: the two pending tiles
  // leave idle workers, so the plan also splits stragglers.
  WritePlanTile(req, planned[0], planned[0].shard_id);
  WritePlanTile(req, planned[2], planned[2].shard_id);

  const ShardPlan first = Plan(req);
  const ShardPlan second = Plan(req);
  EXPECT_GT(first.stats.tiles_split, 0u);
  EXPECT_EQ(first.stats.tiles_reused, 2u);
  EXPECT_EQ(first.todo, second.todo);  // ids, rectangles and order
  EXPECT_EQ(first.stats.tiles_split, second.stats.tiles_split);
  EXPECT_EQ(first.loaded.size(), second.loaded.size());
}

TEST(PlanShardsTest, StragglerPiecesPartitionTheTileUnderFreshIds) {
  const ParameterSpace space = Grid(-8, -6);
  const SweepRequest req = PlanRequest(space, FreshPlanDir("split"), 4, 1);
  // A tile file of an earlier sweep over another grid holds id 7: it is
  // not adoptable, but no piece may reuse its id.
  WritePlanTile(PlanRequest(Grid(-4, -4), req.sharded.tile_dir, 4, 1),
                Rect(0, 1, 0, 1), 7);

  const ShardPlan plan = Plan(req);
  EXPECT_EQ(plan.stats.tiles_total, 1u);
  EXPECT_TRUE(plan.loaded.empty());
  EXPECT_GE(plan.stats.tiles_split, 1u);
  ASSERT_EQ(plan.todo.size(), 1u + plan.stats.tiles_split);
  ExpectExactCover(space, plan.todo);
  std::vector<size_t> ids;
  for (const TileSpec& t : plan.todo) ids.push_back(t.shard_id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  for (size_t id : ids) {
    EXPECT_NE(id, 0u) << "collides with the planned tile";
    EXPECT_NE(id, 7u) << "collides with a tile file on disk";
  }
  EXPECT_EQ(plan.stats.workers_spawned, 4u);
}

TEST(PlanShardsTest, AdoptsSplitPiecesAndQueuesOnlyTheRemainder) {
  const ParameterSpace space = Grid(-8, -6);  // 9 x 7, one planned tile
  SweepRequest req = PlanRequest(space, FreshPlanDir("adopt"), 1, 1);
  // Two pieces a killed split left behind; tile 0 itself is missing.
  WritePlanTile(req, Rect(0, 4, 0, 7), 5);
  WritePlanTile(req, Rect(4, 9, 0, 3), 6);

  const ShardPlan plan = Plan(req);
  EXPECT_EQ(plan.stats.tiles_reused, 2u);
  ASSERT_EQ(plan.loaded.size(), 2u);
  ASSERT_EQ(plan.todo.size(), 1u);
  TileSpec remainder = Rect(4, 9, 3, 7);  // only the uncovered remainder
  remainder.shard_id = 7;                 // the first id free on disk
  EXPECT_EQ(plan.todo[0], remainder);
  std::vector<TileSpec> cover = plan.todo;
  for (const MapTile& t : plan.loaded) cover.push_back(t.spec);
  ExpectExactCover(space, cover);
}

TEST(PlanShardsTest, FullyCachedTilesAreNeverQueued) {
  ProcEnv env;
  const ParameterSpace space = Grid(-8, -6);  // 9 x 7: four row bands
  SweepRequest req = PlanRequest(space, FreshPlanDir("cached"), 1, 4);
  // Cache every cell below the top row.
  CellResultCache cache;
  req.cell_cache = &cache;
  const ShardCacheView keys(&cache, *env.ctx(), env.domain(), req,
                            PlanLabels());
  const size_t top = space.y_size() - 1;
  for (size_t yi = 0; yi < top; ++yi) {
    for (size_t xi = 0; xi < space.x_size(); ++xi) {
      Measurement m;
      m.seconds = 1.5;
      cache.Publish(keys.fp(0, 0, space.IndexOf(xi, yi)), "plain", m);
    }
  }

  // Cached cells cost a vanishing epsilon, so the bands are cut around
  // the one row still to measure: three fully cached bands are
  // materialized from the cache, and only the top row is queued.
  const ShardCacheView view(&cache, *env.ctx(), env.domain(), req,
                            PlanLabels());
  const ShardPlan plan = Plan(req, &view);
  ASSERT_EQ(plan.loaded.size(), 3u);
  std::vector<TileSpec> cover = plan.todo;
  for (const MapTile& t : plan.loaded) {
    EXPECT_LE(t.spec.y_end, top);
    EXPECT_DOUBLE_EQ(t.map.At(0, 0).seconds, 1.5);
    cover.push_back(t.spec);
  }
  ASSERT_EQ(plan.todo.size(), 1u);
  EXPECT_EQ(plan.todo[0].y_begin, top);
  EXPECT_EQ(plan.todo[0].y_end, space.y_size());
  ExpectExactCover(space, cover);
}

TEST(PlanShardsTest, ResumeOffIgnoresValidTilesOnDisk) {
  const ParameterSpace space = Grid(-8, -6);
  SweepRequest req = PlanRequest(space, FreshPlanDir("no_resume"), 1, 4);
  const auto planned =
      ShardPlanner::Partition(space, 4, Analytic(space)).ValueOrDie();
  for (const TileSpec& t : planned) WritePlanTile(req, t, t.shard_id);

  const ShardPlan resumed = Plan(req);
  EXPECT_TRUE(resumed.todo.empty());
  EXPECT_EQ(resumed.stats.tiles_reused, planned.size());

  req.sharded.resume = false;
  const ShardPlan fresh = Plan(req);
  EXPECT_TRUE(fresh.loaded.empty());
  EXPECT_EQ(fresh.stats.tiles_reused, 0u);
  EXPECT_EQ(fresh.todo.size(), planned.size());
  ExpectExactCover(space, fresh.todo);
}

}  // namespace
}  // namespace robustmap
