#include "common/math_util.h"

#include <gtest/gtest.h>

#include <cmath>

namespace robustmap {
namespace {

TEST(Log2GridTest, EndpointsAndSpacing) {
  auto grid = Log2Grid(-4, 0);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.0625);
  EXPECT_DOUBLE_EQ(grid.back(), 1.0);
  for (size_t i = 0; i + 1 < grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(grid[i + 1] / grid[i], 2.0);
  }
}

TEST(Log2GridTest, FineGrid) {
  auto grid = Log2GridFine(-2, 0, 2);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_NEAR(grid[1] / grid[0], std::sqrt(2.0), 1e-12);
}

TEST(GeometricMeanTest, Values) {
  EXPECT_DOUBLE_EQ(GeometricMean({4, 4, 4}), 4);
  EXPECT_NEAR(GeometricMean({1, 100}), 10, 1e-9);
}

}  // namespace
}  // namespace robustmap
