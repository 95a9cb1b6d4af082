// The observability hard invariant, checked at sweep level: enabling the
// tracer and the telemetry sink must not change a single map byte, on the
// serial and the threaded backend alike. (CI checks the same for the
// sharded-process backend by byte-diffing merged .rmt files.)
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/trace.h"
#include "core/sweep_engine.h"
#include "core/sweep_telemetry.h"
#include "testing/map_expect.h"
#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ExpectMapsBitIdentical;
using ::robustmap::testing::ProcEnv;

class SweepTraceIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override { DisableAll(); }
  void TearDown() override { DisableAll(); }

  static void DisableAll() {
    Tracer::Get().Reset();
    Tracer::Get().Disable();
    SweepTelemetry::Get().Reset();
    SweepTelemetry::Get().Disable();
  }
};

std::vector<PlanKind> IdentityPlans() {
  return {PlanKind::kTableScan, PlanKind::kIndexAImproved,
          PlanKind::kHashJoinAB, PlanKind::kMdamAB};
}

ParameterSpace IdentitySpace() {
  return ParameterSpace::TwoD(Axis::Selectivity("a", -5, 0),
                              Axis::Selectivity("b", -5, 0));
}

TEST_F(SweepTraceIdentityTest, TracingOnVsOffIsBitIdentical) {
  ProcEnv env;
  Executor executor(env.db());
  ParameterSpace space = IdentitySpace();

  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    SweepRequest req;
    req.plans = IdentityPlans();
    req.space = space;
    req.sweep.num_threads = threads;

    DisableAll();
    auto untraced = SweepEngine::Run(env.ctx(), executor, req).ValueOrDie();

    Tracer::Get().Enable();
    SweepTelemetry::Get().Enable();
    auto traced = SweepEngine::Run(env.ctx(), executor, req).ValueOrDie();

    // The instrumented run must have actually observed something — a
    // trivially-green test with dead instrumentation proves nothing.
    EXPECT_GT(Tracer::Get().event_count(), 0u);
    const auto counters = SweepTelemetry::Get().Counters();
    const auto cells = counters.find("sweep.cells_measured");
    ASSERT_NE(cells, counters.end());
    EXPECT_EQ(cells->second, IdentityPlans().size() * space.num_points());
    EXPECT_NE(SweepTelemetry::Get().Histograms().count("sweep.cell_seconds"),
              0u);

    ExpectMapsBitIdentical(untraced.map(), traced.map());
  }
}

}  // namespace
}  // namespace robustmap
