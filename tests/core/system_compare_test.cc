#include "core/system_compare.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/sweep_engine.h"
#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ProcEnv;

RobustnessMap MakeSyntheticMap() {
  ParameterSpace space = ParameterSpace::OneD(Axis::Selectivity("s", -2, 0));
  RobustnessMap map(space, {"p0", "p1"});
  double costs[2][3] = {{1, 10, 4}, {2, 1, 4}};
  for (size_t pl = 0; pl < 2; ++pl) {
    for (size_t pt = 0; pt < 3; ++pt) {
      Measurement m;
      m.seconds = costs[pl][pt];
      map.Set(pl, pt, m);
    }
  }
  return map;
}

TEST(WorstCaseMapTest, FindsWorstPlanPerPoint) {
  WorstCaseMap w = ComputeWorstCase(MakeSyntheticMap());
  EXPECT_EQ(w.worst_plan[0], 1u);
  EXPECT_EQ(w.worst_plan[1], 0u);
  EXPECT_DOUBLE_EQ(w.worst_seconds[1], 10);
  // Safety: worst/cost; the worst plan itself has safety 1.
  EXPECT_DOUBLE_EQ(w.safety[1][0], 1.0);
  EXPECT_DOUBLE_EQ(w.safety[0][0], 2.0);
  EXPECT_DOUBLE_EQ(w.safety[1][1], 10.0);
}

TEST(WorstCaseMapTest, DangerCellsCount) {
  WorstCaseMap w = ComputeWorstCase(MakeSyntheticMap());
  auto danger = DangerCells(w);
  // Point 2 is a tie (both 4); argmax keeps the first plan.
  EXPECT_EQ(danger[0] + danger[1], 3u);
  EXPECT_GE(danger[0], 1u);
  EXPECT_GE(danger[1], 1u);
}

class SystemCompareTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new ProcEnv(/*row_bits=*/12, /*value_bits=*/6);
    Executor executor(env_->db());
    ParameterSpace space =
        ParameterSpace::TwoD(Axis::Selectivity("a", -6, 0),
                             Axis::Selectivity("b", -6, 0));
    SweepRequest req;
    req.plans = AllStudyPlans();
    req.space = space;
    map_ = new RobustnessMap(
        SweepEngine::Run(env_->ctx(), executor, req).ValueOrDie().map());
  }
  static void TearDownTestSuite() {
    delete map_;
    delete env_;
    map_ = nullptr;
    env_ = nullptr;
  }
  static ProcEnv* env_;
  static RobustnessMap* map_;
};

ProcEnv* SystemCompareTest::env_ = nullptr;
RobustnessMap* SystemCompareTest::map_ = nullptr;

TEST_F(SystemCompareTest, ProfilesUseOnlyOwnPlans) {
  auto cmp = CompareSystems(*map_, SystemConfig::AllSystems()).ValueOrDie();
  ASSERT_EQ(cmp.profiles.size(), 3u);
  // System B's best plan at every point must be one of B's three plans.
  const std::vector<PlanKind> b_plans = SystemConfig::SystemB().plans;
  for (size_t pl : cmp.profiles[1].best_plan) {
    EXPECT_NE(std::find(b_plans.begin(), b_plans.end(), AllStudyPlans()[pl]),
              b_plans.end());
  }
}

TEST_F(SystemCompareTest, QuotientsConsistent) {
  auto cmp = CompareSystems(*map_, SystemConfig::AllSystems()).ValueOrDie();
  size_t points = map_->space().num_points();
  size_t total_wins = 0;
  for (size_t s = 0; s < cmp.profiles.size(); ++s) {
    total_wins += cmp.wins[s];
    for (size_t pt = 0; pt < points; ++pt) {
      EXPECT_GE(cmp.quotient[s][pt], 1.0);
    }
    EXPECT_GE(cmp.worst_quotient[s], 1.0);
  }
  // Every point has at least one winning system (ties may add more).
  EXPECT_GE(total_wins, points);
}

TEST_F(SystemCompareTest, RenderMentionsAllSystems) {
  auto cmp = CompareSystems(*map_, SystemConfig::AllSystems()).ValueOrDie();
  std::string table = RenderSystemComparison(cmp);
  EXPECT_NE(table.find("System A"), std::string::npos);
  EXPECT_NE(table.find("System B"), std::string::npos);
  EXPECT_NE(table.find("System C"), std::string::npos);
}

TEST_F(SystemCompareTest, MissingPlanIsCleanError) {
  RobustnessMap small(map_->space(), {"A.tablescan"});
  auto cmp = CompareSystems(small, SystemConfig::AllSystems());
  EXPECT_FALSE(cmp.ok());
}

}  // namespace
}  // namespace robustmap
