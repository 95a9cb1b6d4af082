// End-to-end: the full paper pipeline on a small procedural database —
// sweep all 13 plans over a 2-D grid, then verify the qualitative findings
// of Figures 4, 5, 7, 8, 9, 10 hold as *invariants* of the implementation.

#include <gtest/gtest.h>

#include "core/landmarks.h"
#include "core/metrics.h"
#include "core/optimality.h"
#include "core/regions.h"
#include "core/relative.h"
#include "core/sweep_engine.h"
#include "engine/system.h"
#include "workload/dataset.h"

namespace robustmap {
namespace {

class StudyIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StudyOptions opts;
    opts.row_bits = 16;
    opts.value_bits = 12;
    env_ = StudyEnvironment::Create(opts).ValueOrDie().release();
    ParameterSpace space =
        ParameterSpace::TwoD(Axis::Selectivity("sel(a)", -12, 0),
                             Axis::Selectivity("sel(b)", -12, 0));
    SweepRequest req;
    req.plans = AllStudyPlans();
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

  size_t Plan(const std::string& label) {
    return map_->PlanIndexOf(label).ValueOrDie();
  }

  static StudyEnvironment* env_;
  static RobustnessMap* map_;
};

StudyEnvironment* StudyIntegrationTest::env_ = nullptr;
RobustnessMap* StudyIntegrationTest::map_ = nullptr;

TEST_F(StudyIntegrationTest, AllPlansAgreeOnCardinalities) {
  for (size_t pt = 0; pt < map_->space().num_points(); ++pt) {
    uint64_t rows = map_->At(0, pt).output_rows;
    for (size_t pl = 1; pl < map_->num_plans(); ++pl) {
      ASSERT_EQ(map_->At(pl, pt).output_rows, rows)
          << map_->plan_label(pl) << " at point " << pt;
    }
  }
}

TEST_F(StudyIntegrationTest, Fig4SingleIndexIgnoresResidualSelectivity) {
  size_t plan = Plan("A.idx_a.improved");
  auto grid = map_->SecondsOfPlan(plan);
  const auto& space = map_->space();
  for (size_t xi = 0; xi < space.x_size(); ++xi) {
    double lo = 1e300, hi = 0;
    for (size_t yi = 0; yi < space.y_size(); ++yi) {
      double v = grid[space.IndexOf(xi, yi)];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    EXPECT_LT(hi / lo, 1.3) << "residual selectivity affected cost at s_a="
                            << space.x().values[xi];
  }
}

TEST_F(StudyIntegrationTest, Fig5MergeJoinSymmetricHashJoinNot) {
  SymmetryScore mj =
      ComputeSymmetry(map_->space(), map_->SecondsOfPlan(Plan("A.mj(a,b)")));
  SymmetryScore hj =
      ComputeSymmetry(map_->space(), map_->SecondsOfPlan(Plan("A.hj(a,b)")));
  EXPECT_TRUE(mj.is_symmetric());
  EXPECT_FALSE(hj.is_symmetric());
  EXPECT_GT(hj.max_abs_log2_ratio, mj.max_abs_log2_ratio);
}

TEST_F(StudyIntegrationTest, Fig7SingleIndexPlanFragileOutsideItsRegion) {
  RelativeMap rel = ComputeRelative(*map_);
  size_t plan = Plan("A.idx_a.improved");
  // Catastrophic against the best of all 13 plans somewhere in the space.
  EXPECT_GT(WorstQuotient(rel, plan), 50);

  // Within its own system (Figure 7 compares against the best of System A's
  // seven plans), the plan is the winner somewhere — yet still loses by
  // orders of magnitude elsewhere.
  std::vector<size_t> system_a;
  for (PlanKind k : SystemConfig::SystemA().plans) {
    system_a.push_back(Plan(PlanKindLabel(k)));
  }
  size_t wins = 0;
  double worst_vs_a = 1;
  for (size_t pt = 0; pt < map_->space().num_points(); ++pt) {
    double best_a = 1e300;
    for (size_t pl : system_a)
      best_a = std::min(best_a, map_->At(pl, pt).seconds);
    double mine = map_->At(plan, pt).seconds;
    if (mine <= best_a * 1.0001) ++wins;
    worst_vs_a = std::max(worst_vs_a, mine / best_a);
  }
  EXPECT_GT(wins, 0u);
  // The factor grows with scale (paper reports 101,000 at 60M rows; the
  // fig07 bench reports ~10^3 at 2^18 rows); at this reduced test scale an
  // order of magnitude remains.
  EXPECT_GT(worst_vs_a, 10);
}

TEST_F(StudyIntegrationTest, Fig8CoveringPlanMoreRobustThanSingleIndex) {
  RelativeMap rel = ComputeRelative(*map_);
  double wq_b = WorstQuotient(rel, Plan("B.cover(a,b).bitmap"));
  double wq_a = WorstQuotient(rel, Plan("A.idx_a.improved"));
  EXPECT_LT(wq_b, wq_a);
  OptimalityMap opt = ComputeOptimality(*map_, ToleranceSpec{0.01, 1.0});
  RegionStats rb = AnalyzeRegions(
      map_->space(), OptimalRegionOf(opt, Plan("B.cover(a,b).bitmap")));
  RegionStats ra = AnalyzeRegions(
      map_->space(), OptimalRegionOf(opt, Plan("A.idx_a.improved")));
  EXPECT_GE(rb.member_cells, ra.member_cells);
}

TEST_F(StudyIntegrationTest, Fig9MdamReasonableEverywhere) {
  RelativeMap rel = ComputeRelative(*map_);
  size_t plan = Plan("C.mdam(a,b)");
  // "Reasonable across the entire parameter space": within a modest factor
  // of the best plan at every single point.
  EXPECT_LT(WorstQuotient(rel, plan), 20);
}

TEST_F(StudyIntegrationTest, Fig10MostPointsHaveMultipleOptimalPlans) {
  // 20% relative tolerance (one of the paper's §3.4 alternatives; an
  // unscaled 0.1 s would be trivially permissive at this test scale).
  OptimalityMap opt = ComputeOptimality(*map_, ToleranceSpec{0.0, 1.20});
  size_t multi = 0;
  for (int c : opt.counts) {
    ASSERT_GE(c, 1);
    if (c >= 2) ++multi;
  }
  EXPECT_GT(multi, opt.counts.size() / 2);
}

TEST_F(StudyIntegrationTest, SummariesAreInternallyConsistent) {
  auto summaries = SummarizePlans(*map_, ToleranceSpec{0.1, 1.0});
  ASSERT_EQ(summaries.size(), map_->num_plans());
  for (const auto& s : summaries) {
    EXPECT_GE(s.worst_quotient, 1.0) << s.label;
    EXPECT_GE(s.geomean_quotient, 1.0) << s.label;
    EXPECT_LE(s.geomean_quotient, s.worst_quotient) << s.label;
    EXPECT_LE(s.area_within_2x, s.area_within_10x) << s.label;
    EXPECT_GE(s.fragmentation, 0.0) << s.label;
    EXPECT_LE(s.fragmentation, 1.0) << s.label;
  }
  std::string table = RenderSummaryTable(summaries);
  EXPECT_NE(table.find("A.tablescan"), std::string::npos);
  EXPECT_NE(table.find("C.mdam(a,b)"), std::string::npos);
}

TEST_F(StudyIntegrationTest, AbsoluteCostsSpanOrdersOfMagnitude) {
  // The whole reason the paper uses log color scales.
  double lo = 1e300, hi = 0;
  for (size_t pl = 0; pl < map_->num_plans(); ++pl) {
    for (double s : map_->SecondsOfPlan(pl)) {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
  }
  // At this reduced test scale the spread is ~2 decades; at bench scale
  // (2^18+) it exceeds 3.
  EXPECT_GT(hi / lo, 30);
}

}  // namespace
}  // namespace robustmap
