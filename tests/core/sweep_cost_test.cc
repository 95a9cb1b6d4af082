#include "core/sweep_cost.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/shard_planner.h"

namespace robustmap {
namespace {

ParameterSpace Grid(int x_min_log2, int y_min_log2) {
  return ParameterSpace::TwoD(Axis::Selectivity("a", x_min_log2, 0),
                              Axis::Selectivity("b", y_min_log2, 0));
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
  auto tiles = ShardPlanner::Partition(space, 7, model).ValueOrDie();
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
      CellCostModel::Analytic(empty).status().IsInvalidArgument());
}

TEST(SortTilesHeaviestFirstTest, OrdersByDescendingCost) {
  ParameterSpace space = Grid(-6, -6);
  auto model = CellCostModel::Analytic(space).ValueOrDie();
  auto tiles = ShardPlanner::Partition(space, 7, model).ValueOrDie();
  SortTilesHeaviestFirst(&tiles, model);
  for (size_t i = 1; i < tiles.size(); ++i) {
    EXPECT_GE(model.TileCost(tiles[i - 1]), model.TileCost(tiles[i]));
  }
}

}  // namespace
}  // namespace robustmap
