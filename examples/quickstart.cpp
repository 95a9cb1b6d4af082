// Quickstart: measure three plans for one query, then draw your first
// robustness map.
//
// Build & run:   ./build/examples/example_quickstart

#include <cstdio>

#include "common/format.h"
#include "core/sweep_engine.h"
#include "viz/ascii_heatmap.h"
#include "workload/dataset.h"

using namespace robustmap;

int main() {
  // 1. Create a simulated machine plus the benchmark database: a 2^18-row
  //    two-column table with single- and two-column indexes.
  StudyOptions options;
  options.row_bits = 18;
  options.value_bits = 14;
  auto env = StudyEnvironment::Create(options).ValueOrDie();

  // 2. Run one query (selectivity 1% on column a) under three plans.
  QuerySpec query = env->MakeQuery(/*sel_a=*/0.01, /*sel_b=*/-1);
  std::printf("query: %s\n\n", query.ToString().c_str());
  for (PlanKind plan : {PlanKind::kTableScan, PlanKind::kIndexANaive,
                        PlanKind::kIndexAImproved}) {
    Measurement m = env->executor().Run(env->ctx(), plan, query).ValueOrDie();
    std::printf("  %-22s %10s   (%llu rows, %llu random + %llu sequential "
                "reads)\n",
                PlanKindLabel(plan).c_str(), FormatSeconds(m.seconds).c_str(),
                static_cast<unsigned long long>(m.output_rows),
                static_cast<unsigned long long>(m.io.random_reads),
                static_cast<unsigned long long>(m.io.sequential_reads));
  }

  // 3. Sweep the whole selectivity axis and draw the Figure-1-style map.
  ParameterSpace space =
      ParameterSpace::OneD(Axis::Selectivity("selectivity(a)", -14, 0));
  SweepRequest req;
  req.plans = {PlanKind::kTableScan, PlanKind::kIndexANaive,
               PlanKind::kIndexAImproved};
  req.space = space;
  SweepOutcome out =
      SweepEngine::Run(env->ctx(), env->executor(), req).ValueOrDie();
  const RobustnessMap& map = out.map();

  std::vector<ChartSeries> series;
  for (size_t pl = 0; pl < map.num_plans(); ++pl) {
    series.push_back({map.plan_label(pl), map.SecondsOfPlan(pl)});
  }
  ChartOptions copts;
  copts.title = "\nrobustness map: execution time vs. selectivity (log-log)";
  copts.x_label = "selectivity of predicate on a";
  std::printf("%s", RenderChart(space.x().values, series, copts).c_str());

  std::printf("\nRead DESIGN.md for the full system map and bench/ for the "
              "per-figure reproductions.\n");
  return 0;
}
