// Mapping your own operator: the paper's §4 sort-spill prediction.
//
// Demonstrates the generic cell loop, `SweepEngine::RunCellsIndexed` — no
// PlanKind involved. Any operator tree can be measured over any run-time
// condition; here the condition is input size relative to sort memory,
// and the subjects are a graceful external merge sort vs. a naive
// spill-everything sort.

#include <cstdio>

#include "common/format.h"
#include "core/landmarks.h"
#include "core/sweep_engine.h"
#include "engine/executor.h"
#include "exec/index_scan.h"
#include "exec/sort.h"
#include "viz/ascii_heatmap.h"
#include "workload/dataset.h"

using namespace robustmap;

namespace {

Result<Measurement> MeasureSort(StudyEnvironment* env, double input_fraction,
                                SpillKind kind) {
  RunContext* ctx = env->ctx();
  QuerySpec q = env->MakeQuery(input_fraction, -1);
  IndexScanOptions so;
  so.k0_lo = q.pred_a.lo;
  so.k0_hi = q.pred_a.hi;
  SortKeySpec key{SortKeySpec::Kind::kColumn, 0};
  SortOp sort(std::make_unique<IndexScanOp>(env->db().idx_a, so), key, kind);
  return MeasureCold(ctx, &sort);
}

}  // namespace

int main() {
  StudyOptions options;
  options.row_bits = 16;
  options.value_bits = 12;
  auto env = StudyEnvironment::Create(options).ValueOrDie();
  env->ctx()->sort_memory_bytes = (uint64_t{1} << options.row_bits) * 4;
  std::printf("sort memory: %s\n",
              FormatBytes(env->ctx()->sort_memory_bytes).c_str());

  ParameterSpace space = ParameterSpace::OneD(
      Axis::SelectivityFine("input fraction", -8, 0, 2));
  RobustnessMap map =
      SweepEngine::RunCellsIndexed(
          space, {"graceful external sort", "naive spill-all sort"},
          [&](size_t plan, size_t point) {
            return MeasureSort(env.get(), space.x_value(point),
                               plan == 0 ? SpillKind::kGraceful
                                         : SpillKind::kNaive);
          })
          .ValueOrDie();

  std::vector<ChartSeries> series = {
      {"graceful", map.SecondsOfPlan(0)},
      {"naive", map.SecondsOfPlan(1)},
  };
  ChartOptions copts;
  copts.title = "sort robustness map (log-log)";
  copts.x_label = "input size as fraction of the table";
  std::printf("%s", RenderChart(space.x().values, series, copts).c_str());

  LandmarkOptions lopts;
  lopts.discontinuity_ratio = 2.5;
  for (size_t pl = 0; pl < 2; ++pl) {
    auto lm = AnalyzeCurve(space.x().values, map.SecondsOfPlan(pl), lopts);
    std::printf("%s: %zu discontinuities%s\n", map.plan_label(pl).c_str(),
                lm.discontinuities.size(),
                lm.discontinuities.empty()
                    ? " — degrades gracefully"
                    : " — \"lacking graceful degradation\" (paper §4)");
  }
  return 0;
}
