#include "core/sweep_engine.h"

#include <gtest/gtest.h>

#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ProcEnv;

TEST(RunSweepTest, FillsEveryCell) {
  ParameterSpace space = ParameterSpace::TwoD(Axis::Selectivity("a", -2, 0),
                                              Axis::Selectivity("b", -1, 0));
  int calls = 0;
  auto map = SweepEngine::RunCellsIndexed(
                 space, {"p0", "p1"},
                 [&](size_t plan, size_t point) {
                   ++calls;
                   Measurement m;
                   m.seconds =
                       (plan + 1) * space.x_value(point) * space.y_value(point);
                   return Result<Measurement>(m);
                 })
                 .ValueOrDie();
  EXPECT_EQ(calls, 12);
  EXPECT_DOUBLE_EQ(map.AtXY(1, 2, 1).seconds, 2.0 * 1.0 * 1.0);
}

TEST(RunSweepTest, EmptyPlanListOrEmptyGridIsAnError) {
  ParameterSpace space = ParameterSpace::OneD(Axis::Selectivity("a", -2, 0));
  auto runner = [](size_t, size_t) {
    Measurement m;
    m.seconds = 1;
    return Result<Measurement>(m);
  };
  auto no_plans = SweepEngine::RunCellsIndexed(space, {}, runner);
  ASSERT_FALSE(no_plans.ok());
  EXPECT_TRUE(no_plans.status().IsInvalidArgument());

  // A default-constructed space is the 0-point grid; the OneD/TwoD
  // factories assert non-empty axes in Debug builds, so the Status-based
  // rejection must be reachable without them.
  ParameterSpace empty;
  auto no_points = SweepEngine::RunCellsIndexed(empty, {"p"}, runner);
  ASSERT_FALSE(no_points.ok());
  EXPECT_TRUE(no_points.status().IsInvalidArgument());
}

TEST(ParallelRunSweepTest, EmptyPlanListOrEmptyGridIsAnError) {
  ProcEnv env;
  RunContextFactory factory(*env.ctx());
  auto runner = [](RunContext*, size_t, size_t) {
    Measurement m;
    m.seconds = 1;
    return Result<Measurement>(m);
  };
  ParameterSpace space = ParameterSpace::OneD(Axis::Selectivity("a", -2, 0));
  auto no_plans =
      SweepEngine::RunCellsParallelIndexed(space, {}, factory, runner);
  ASSERT_FALSE(no_plans.ok());
  EXPECT_TRUE(no_plans.status().IsInvalidArgument());

  // A default-constructed space is the 0-point grid; the OneD/TwoD
  // factories assert non-empty axes in Debug builds, so the Status-based
  // rejection must be reachable without them.
  ParameterSpace empty;
  auto no_points =
      SweepEngine::RunCellsParallelIndexed(empty, {"p"}, factory, runner);
  ASSERT_FALSE(no_points.ok());
  EXPECT_TRUE(no_points.status().IsInvalidArgument());
}

TEST(SweepStudyPlansTest, EmptyPlanListIsAnError) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = ParameterSpace::OneD(Axis::Selectivity("a", -2, 0));
  SweepRequest req;
  req.space = space;
  auto r = SweepEngine::Run(env.ctx(), executor, req);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(RunSweepTest, PropagatesErrors) {
  ParameterSpace space = ParameterSpace::OneD(Axis::Selectivity("a", -1, 0));
  auto result =
      SweepEngine::RunCellsIndexed(space, {"p"}, [&](size_t, size_t) {
        return Result<Measurement>(Status::Internal("boom"));
      });
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
}

TEST(RunSweepTest, OneDPassesNegativeY) {
  ParameterSpace space = ParameterSpace::OneD(Axis::Selectivity("a", -1, 0));
  auto map = SweepEngine::RunCellsIndexed(
                 space, {"p"},
                 [&](size_t, size_t point) {
                   EXPECT_LT(space.y_value(point), 0);
                   Measurement m;
                   m.seconds = 1;
                   return Result<Measurement>(m);
                 })
                 .ValueOrDie();
  EXPECT_EQ(map.space().num_points(), 2u);
}

TEST(SweepStudyPlansTest, MeasuresRealPlans) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = ParameterSpace::OneD(Axis::Selectivity("a", -4, 0));
  SweepRequest req;
  req.plans = {PlanKind::kTableScan, PlanKind::kIndexAImproved};
  req.space = space;
  auto map = SweepEngine::Run(env.ctx(), executor, req).ValueOrDie().map();
  EXPECT_EQ(map.num_plans(), 2u);
  EXPECT_EQ(map.plan_label(0), "A.tablescan");
  for (size_t pt = 0; pt < space.num_points(); ++pt) {
    EXPECT_GT(map.At(0, pt).seconds, 0);
    // Both plans returned identical cardinalities.
    EXPECT_EQ(map.At(0, pt).output_rows, map.At(1, pt).output_rows);
  }
  // Output cardinality follows the axis.
  EXPECT_LT(map.At(0, 0).output_rows, map.At(0, 4).output_rows);
}

}  // namespace
}  // namespace robustmap
