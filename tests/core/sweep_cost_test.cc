#include "core/sweep_cost.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <string>
#include <vector>

#include "core/map_io.h"
#include "core/shard_planner.h"

namespace robustmap {
namespace {

ParameterSpace Grid(int x_min_log2, int y_min_log2) {
  return ParameterSpace::TwoD(Axis::Selectivity("a", x_min_log2, 0),
                              Axis::Selectivity("b", y_min_log2, 0));
}

TileSpec Rect(size_t x0, size_t x1, size_t y0, size_t y1) {
  TileSpec t;
  t.x_begin = x0;
  t.x_end = x1;
  t.y_begin = y0;
  t.y_end = y1;
  return t;
}

TEST(CostModelKindTest, RoundTripsNames) {
  for (CostModelKind kind :
       {CostModelKind::kUniform, CostModelKind::kAnalytic,
        CostModelKind::kMeasured}) {
    auto back = CostModelKindFromString(CostModelKindName(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), kind);
  }
  auto bad = CostModelKindFromString("psychic");
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(CellCostModelTest, UniformWeighsEveryCellEqually) {
  ParameterSpace space = Grid(-4, -4);
  auto model = CellCostModel::Uniform(space).ValueOrDie();
  for (size_t yi = 0; yi < space.y_size(); ++yi) {
    for (size_t xi = 0; xi < space.x_size(); ++xi) {
      EXPECT_DOUBLE_EQ(model.CellCost(xi, yi), 1.0);
    }
  }
  EXPECT_DOUBLE_EQ(model.TotalCost(),
                   static_cast<double>(space.num_points()));
}

TEST(CellCostModelTest, AnalyticGrowsWithSelectivity) {
  ParameterSpace space = Grid(-6, -6);
  auto model = CellCostModel::Analytic(space).ValueOrDie();
  // Strictly increasing along each axis, positive everywhere, and the
  // expensive corner dominates the cheap one by far more than the grid is
  // wide — the skew the weighted planner exists to absorb.
  for (size_t yi = 0; yi < space.y_size(); ++yi) {
    for (size_t xi = 0; xi < space.x_size(); ++xi) {
      EXPECT_GT(model.CellCost(xi, yi), 0.0);
      if (xi > 0) {
        EXPECT_GT(model.CellCost(xi, yi), model.CellCost(xi - 1, yi));
      }
      if (yi > 0) {
        EXPECT_GT(model.CellCost(xi, yi), model.CellCost(xi, yi - 1));
      }
    }
  }
  EXPECT_GT(model.CellCost(6, 6), 8 * model.CellCost(0, 0));
}

TEST(CellCostModelTest, AnalyticOneDIsXOnly) {
  ParameterSpace line = ParameterSpace::OneD(Axis::Selectivity("a", -5, 0));
  auto model = CellCostModel::Analytic(line).ValueOrDie();
  for (size_t xi = 1; xi < line.x_size(); ++xi) {
    EXPECT_GT(model.CellCost(xi, 0), model.CellCost(xi - 1, 0));
  }
}

TEST(CellCostModelTest, TileCostIsAdditiveOverAPartition) {
  ParameterSpace space = Grid(-5, -4);
  auto model = CellCostModel::Analytic(space).ValueOrDie();
  auto tiles = ShardPlanner::Partition(space, 7).ValueOrDie();
  double sum = 0;
  for (const TileSpec& t : tiles) sum += model.TileCost(t);
  EXPECT_NEAR(sum, model.TotalCost(), 1e-9 * model.TotalCost());
}

TEST(CellCostModelTest, RejectsEmptyGrid) {
  // A default-constructed space is the 0-point grid; the OneD/TwoD
  // factories assert non-empty axes in Debug builds, so the Status-based
  // rejection must be reachable without them.
  ParameterSpace empty;
  EXPECT_TRUE(
      CellCostModel::Uniform(empty).status().IsInvalidArgument());
  EXPECT_TRUE(
      CellCostModel::Analytic(empty).status().IsInvalidArgument());
}

TEST(CellCostModelTest, MeasuredOverridesCoveredCells) {
  ParameterSpace space = Grid(-3, -3);  // 4x4
  // Left half measured as uniformly expensive, right half unmeasured.
  std::vector<TileCostRecord> records = {
      {Rect(0, 2, 0, 4), 8.0},  // 8 cells at density 1.0 s/cell
  };
  auto model = CellCostModel::FromMeasuredTiles(space, records).ValueOrDie();
  for (size_t yi = 0; yi < 4; ++yi) {
    EXPECT_DOUBLE_EQ(model.CellCost(0, yi), 1.0);
    EXPECT_DOUBLE_EQ(model.CellCost(1, yi), 1.0);
  }
  // Unmeasured cells follow the analytic prior's *shape* (rising in x and
  // y) after rescaling — not the measured flat density.
  EXPECT_GT(model.CellCost(3, 3), model.CellCost(2, 0));
  EXPECT_GT(model.CellCost(2, 0), 0.0);
}

TEST(CellCostModelTest, MeasuredLaterRecordWinsOnOverlap) {
  ParameterSpace space = Grid(-3, -3);
  std::vector<TileCostRecord> records = {
      {Rect(0, 4, 0, 4), 16.0},  // density 1.0 everywhere
      {Rect(0, 4, 0, 2), 80.0},  // fresher: bottom half at density 10.0
  };
  auto model = CellCostModel::FromMeasuredTiles(space, records).ValueOrDie();
  EXPECT_DOUBLE_EQ(model.CellCost(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(model.CellCost(0, 3), 1.0);
}

TEST(CellCostModelTest, MeasuredWithNoRecordsIsTheAnalyticPrior) {
  ParameterSpace space = Grid(-4, -4);
  auto analytic = CellCostModel::Analytic(space).ValueOrDie();
  auto measured = CellCostModel::FromMeasuredTiles(space, {}).ValueOrDie();
  for (size_t yi = 0; yi < space.y_size(); ++yi) {
    for (size_t xi = 0; xi < space.x_size(); ++xi) {
      EXPECT_DOUBLE_EQ(measured.CellCost(xi, yi), analytic.CellCost(xi, yi));
    }
  }
  // Zero-duration records carry no signal either.
  auto zeros = CellCostModel::FromMeasuredTiles(
                   space, {{Rect(0, 2, 0, 2), 0.0}})
                   .ValueOrDie();
  EXPECT_DOUBLE_EQ(zeros.TotalCost(), analytic.TotalCost());
}

TEST(CellCostModelTest, MeasuredRejectsOutOfGridRecords) {
  ParameterSpace space = Grid(-3, -3);
  auto r = CellCostModel::FromMeasuredTiles(space, {{Rect(0, 9, 0, 1), 1.0}});
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(MeasuredCostModelFromDirTest, ReadsWallTimesAndSkipsNoise) {
  ParameterSpace space = Grid(-3, -3);
  const std::string dir =
      ::testing::TempDir() + "/sweep_cost_dir_" + std::to_string(::getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST, true);

  // A timed tile over the bottom half...
  TileSpec spec = Rect(0, 4, 0, 2);
  spec.shard_id = 0;
  ParameterSpace sub = SliceSpace(space, spec).ValueOrDie();
  RobustnessMap map(sub, {"p"});
  for (size_t pt = 0; pt < sub.num_points(); ++pt) {
    Measurement m;
    m.seconds = 1;
    map.Set(0, pt, m);
  }
  ASSERT_TRUE(WriteMapTileFile(dir + "/tile_0000.rmt",
                               MapTile{spec, space, map, 16.0})
                  .ok());
  // ...an untimed merged artifact (wall 0: must carry no signal)...
  TileSpec full = Rect(0, 4, 0, 4);
  RobustnessMap full_map(space, {"p"});
  for (size_t pt = 0; pt < space.num_points(); ++pt) {
    Measurement m;
    m.seconds = 1;
    full_map.Set(0, pt, m);
  }
  ASSERT_TRUE(WriteMapTileFile(dir + "/merged.rmt",
                               MapTile{full, space, full_map, 0.0})
                  .ok());
  // ...and a file that is not a tile at all.
  {
    std::FILE* junk = std::fopen((dir + "/junk.rmt").c_str(), "w");
    std::fputs("not a tile", junk);
    std::fclose(junk);
  }

  auto model = MeasuredCostModelFromDir(dir, space).ValueOrDie();
  // Bottom half: measured density 16 s / 8 cells = 2 s per cell.
  EXPECT_DOUBLE_EQ(model.CellCost(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(model.CellCost(3, 1), 2.0);
  // Top half: analytic fallback, still rising toward the corner.
  EXPECT_GT(model.CellCost(3, 3), model.CellCost(0, 2));

  // A directory that does not exist degrades to the analytic prior.
  auto fresh =
      MeasuredCostModelFromDir(dir + "/missing", space).ValueOrDie();
  auto analytic = CellCostModel::Analytic(space).ValueOrDie();
  EXPECT_DOUBLE_EQ(fresh.TotalCost(), analytic.TotalCost());
}

TEST(SortTilesHeaviestFirstTest, OrdersByDescendingCost) {
  ParameterSpace space = Grid(-6, -6);
  auto model = CellCostModel::Analytic(space).ValueOrDie();
  auto tiles = ShardPlanner::Partition(space, 7).ValueOrDie();
  SortTilesHeaviestFirst(&tiles, model);
  for (size_t i = 1; i < tiles.size(); ++i) {
    EXPECT_GE(model.TileCost(tiles[i - 1]), model.TileCost(tiles[i]));
  }
}

}  // namespace
}  // namespace robustmap
