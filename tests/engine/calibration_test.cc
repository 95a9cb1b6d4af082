// Calibration: the Figure 1 landmarks must land where the paper reports
// them (within a factor of ~2 — the cost model is calibrated to the paper's
// fractions, which are scale-invariant; see DESIGN.md §5).

#include <gtest/gtest.h>

#include <cmath>

#include "core/landmarks.h"
#include "core/sweep_engine.h"
#include "workload/dataset.h"

namespace robustmap {
namespace {

class CalibrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StudyOptions opts;
    opts.row_bits = 18;
    opts.value_bits = 16;
    env_ = StudyEnvironment::Create(opts).ValueOrDie().release();
    ParameterSpace space =
        ParameterSpace::OneD(Axis::Selectivity("sel(a)", -16, 0));
    SweepRequest req;
    req.plans = {PlanKind::kTableScan, PlanKind::kIndexANaive,
                 PlanKind::kIndexAImproved};
    req.space = space;
    map_ = new RobustnessMap(
        SweepEngine::Run(env_->ctx(), env_->executor(), req)
            .ValueOrDie()
            .map());
  }
  static void TearDownTestSuite() {
    delete map_;
    delete env_;
    map_ = nullptr;
    env_ = nullptr;
  }

  static double Crossover(const std::vector<double>& a,
                          const std::vector<double>& b) {
    const auto& xs = map_->space().x().values;
    for (size_t i = 0; i + 1 < xs.size(); ++i) {
      if ((a[i] - b[i]) * (a[i + 1] - b[i + 1]) <= 0 && a[i] != b[i]) {
        double l0 = std::log(a[i] / b[i]);
        double l1 = std::log(a[i + 1] / b[i + 1]);
        double t = l0 / (l0 - l1);
        return std::exp(std::log(xs[i]) +
                        t * (std::log(xs[i + 1]) - std::log(xs[i])));
      }
    }
    return -1;
  }

  static StudyEnvironment* env_;
  static RobustnessMap* map_;
};

StudyEnvironment* CalibrationTest::env_ = nullptr;
RobustnessMap* CalibrationTest::map_ = nullptr;

TEST_F(CalibrationTest, TableScanIsFlat) {
  auto ts = map_->SecondsOfPlan(0);
  double lo = *std::min_element(ts.begin(), ts.end());
  double hi = *std::max_element(ts.begin(), ts.end());
  EXPECT_LT(hi / lo, 1.1);
}

TEST_F(CalibrationTest, TraditionalBreakEvenNearTwoToMinusEleven) {
  // Paper: "the break-even point between table scan and traditional index
  // scan is at about 30K result rows or 2^-11 of the rows in the table."
  double x = Crossover(map_->SecondsOfPlan(1), map_->SecondsOfPlan(0));
  ASSERT_GT(x, 0);
  double log2x = std::log2(x);
  EXPECT_GT(log2x, -12.0);
  EXPECT_LT(log2x, -10.0);
}

TEST_F(CalibrationTest, ImprovedBreakEvenNearTwoToMinusFour) {
  // Paper: "competitive with the table scan all the way up to about 4M
  // result rows or 2^-4 of the rows in the table."
  double x = Crossover(map_->SecondsOfPlan(2), map_->SecondsOfPlan(0));
  ASSERT_GT(x, 0);
  double log2x = std::log2(x);
  EXPECT_GT(log2x, -5.0);
  EXPECT_LT(log2x, -2.0);
}

TEST_F(CalibrationTest, ImprovedAtFullSelectivityModeratelyWorse) {
  // Paper: "about 2.5 times worse than a table scan" — accept 1.5x..4x.
  double ratio =
      map_->SecondsOfPlan(2).back() / map_->SecondsOfPlan(0).back();
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 4.0);
}

TEST_F(CalibrationTest, TraditionalCatastrophicAtFullSelectivity) {
  // Paper: "would exceed the cost of a table scan by multiple orders of
  // magnitude."
  double ratio =
      map_->SecondsOfPlan(1).back() / map_->SecondsOfPlan(0).back();
  EXPECT_GT(ratio, 100.0);
}

TEST_F(CalibrationTest, IndexScansWinAtSmallResults) {
  // Left edge: both index scans far faster than the table scan.
  EXPECT_LT(map_->SecondsOfPlan(1).front() * 5,
            map_->SecondsOfPlan(0).front());
  EXPECT_LT(map_->SecondsOfPlan(2).front() * 5,
            map_->SecondsOfPlan(0).front());
}

TEST_F(CalibrationTest, AllCurvesMonotoneNonDecreasing) {
  // "Fetching rows should become more expensive with additional rows."
  for (size_t pl = 0; pl < map_->num_plans(); ++pl) {
    auto lm = AnalyzeCurve(map_->space().x().values, map_->SecondsOfPlan(pl));
    EXPECT_TRUE(lm.monotonicity_violations.empty())
        << map_->plan_label(pl) << " violates monotonicity";
  }
}

TEST_F(CalibrationTest, ImprovedScanSteepensAtHighEnd) {
  // Paper §3.1: the improved index scan "shows a flat cost growth followed
  // by a steeper cost growth for very large result sizes" — the flattening
  // condition is violated.
  auto lm = AnalyzeCurve(map_->space().x().values, map_->SecondsOfPlan(2));
  ASSERT_FALSE(lm.steepening_points.empty());
  // The steepening happens in the upper half of the range (the paper:
  // "for very large result sizes").
  EXPECT_GT(lm.steepening_points.back().index,
            map_->space().x().values.size() / 2);
}

TEST_F(CalibrationTest, CurvesContainNoDiscontinuities) {
  for (size_t pl = 0; pl < map_->num_plans(); ++pl) {
    auto lm = AnalyzeCurve(map_->space().x().values, map_->SecondsOfPlan(pl));
    EXPECT_TRUE(lm.discontinuities.empty()) << map_->plan_label(pl);
  }
}

}  // namespace
}  // namespace robustmap
