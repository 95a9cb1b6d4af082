// Property: the fractional landmarks of the cost model are scale-invariant
// (DESIGN.md §5). This is what justifies running the paper's 60M-row study
// at 2^16..2^20 rows: break-even *fractions* and cost *ratios* must agree
// across scales, even though absolute times differ by orders of magnitude.

#include <gtest/gtest.h>

#include <cmath>

#include "core/sweep_engine.h"
#include "workload/dataset.h"

namespace robustmap {
namespace {

struct Landmarks {
  double trad_breakeven_log2;      // traditional IS vs. table scan
  double improved_breakeven_log2;  // improved IS vs. table scan
  double improved_full_ratio;      // improved IS / table scan at 100%
  double tablescan_seconds;
};

Landmarks MeasureAt(int row_bits) {
  StudyOptions opts;
  opts.row_bits = row_bits;
  opts.value_bits = row_bits - 4;  // constant duplication across scales
  auto env = StudyEnvironment::Create(opts).ValueOrDie();
  ParameterSpace space = ParameterSpace::OneD(
      Axis::Selectivity("s", -(row_bits - 4), 0));
  SweepRequest req;
  req.plans = {PlanKind::kTableScan, PlanKind::kIndexANaive,
               PlanKind::kIndexAImproved};
  req.space = space;
  auto map =
      SweepEngine::Run(env->ctx(), env->executor(), req).ValueOrDie().map();

  auto crossover_log2 = [&](size_t plan) {
    auto a = map.SecondsOfPlan(plan);
    auto b = map.SecondsOfPlan(0);
    const auto& xs = space.x().values;
    for (size_t i = 0; i + 1 < xs.size(); ++i) {
      if ((a[i] - b[i]) * (a[i + 1] - b[i + 1]) <= 0 && a[i] != b[i]) {
        double l0 = std::log(a[i] / b[i]);
        double l1 = std::log(a[i + 1] / b[i + 1]);
        double t = l0 / (l0 - l1);
        return std::log2(xs[i]) + t * (std::log2(xs[i + 1]) - std::log2(xs[i]));
      }
    }
    return 1.0;  // no crossover
  };

  Landmarks lm;
  lm.trad_breakeven_log2 = crossover_log2(1);
  lm.improved_breakeven_log2 = crossover_log2(2);
  lm.improved_full_ratio =
      map.SecondsOfPlan(2).back() / map.SecondsOfPlan(0).back();
  lm.tablescan_seconds = map.SecondsOfPlan(0).back();
  return lm;
}

class ScaleInvarianceTest : public ::testing::TestWithParam<int> {};

TEST_P(ScaleInvarianceTest, FractionalLandmarksMatchReferenceScale) {
  Landmarks ref = MeasureAt(18);
  Landmarks other = MeasureAt(GetParam());
  // Break-even fractions agree within one octave across scales.
  EXPECT_NEAR(other.trad_breakeven_log2, ref.trad_breakeven_log2, 1.0);
  EXPECT_NEAR(other.improved_breakeven_log2, ref.improved_breakeven_log2,
              1.0);
  // Full-selectivity ratio agrees within 25%.
  EXPECT_NEAR(other.improved_full_ratio / ref.improved_full_ratio, 1.0, 0.25);
}

TEST_P(ScaleInvarianceTest, AbsoluteTimesScaleLinearly) {
  Landmarks ref = MeasureAt(18);
  Landmarks other = MeasureAt(GetParam());
  double expected = std::exp2(GetParam() - 18);
  EXPECT_NEAR(other.tablescan_seconds / ref.tablescan_seconds, expected,
              expected * 0.15);
}

// Invariance holds in the disk-bound regime (>= 2^16 rows / 8 MiB tables);
// below that, fixed probe costs (one random access ~ 32 page transfers)
// rival whole scans and the improved-IS landmarks drift — the paper's
// "other sizes may lead to new insights" caveat (§3).
INSTANTIATE_TEST_SUITE_P(Scales, ScaleInvarianceTest,
                         ::testing::Values(16, 20, 22));

}  // namespace
}  // namespace robustmap
