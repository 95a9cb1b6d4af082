// Ablation: memory as a run-time condition (paper §1/§3.2: "resource
// availability such as memory" is a first-class robustness dimension).
//
// 2-D robustness map of the hash-join plan with build-side selectivity on
// one axis and hash work memory on the other: Grace-partitioning cliffs
// appear where the build side outgrows memory.

#include <cstdio>

#include "bench_util.h"
#include "common/format.h"
#include "core/landmarks.h"
#include "core/sweep.h"
#include "engine/query.h"
#include "viz/ascii_heatmap.h"
#include "viz/legend.h"

using namespace robustmap;
using namespace robustmap::bench;

int main() {
  BenchScale scale = ResolveScale(/*default_row_bits=*/16, /*min_log2=*/-12);
  PrintHeader("Ablation: hash-join memory map (2-D: selectivity x memory)",
              "performance degrades where the build side exceeds work "
              "memory; the map shows how gracefully",
              scale);
  auto env = MakeEnvironment(scale);
  uint64_t rows = uint64_t{1} << scale.row_bits;

  Axis sel = Axis::Selectivity("build selectivity(a)", scale.grid_min_log2, 0);
  // Memory axis: from rows/64 bytes up to 16*rows bytes (build needs 16
  // bytes/row, so the top rows never spill and the bottom rows always do).
  Axis memory{"hash memory [bytes]", {}};
  for (double m = static_cast<double>(rows) / 64;
       m <= static_cast<double>(rows) * 16; m *= 4) {
    memory.values.push_back(m);
  }
  ParameterSpace space = ParameterSpace::TwoD(sel, memory);

  // Each worker varies the memory budget on its *own* machine, so the
  // memory axis parallelizes without cross-cell interference.
  RunContextFactory factory(*env->ctx());
  auto map =
      SweepEngine::RunCellsParallelIndexed(
          space, {"A.hj(a,b) s_b=1"}, factory,
          [&](RunContext* ctx, size_t, size_t point) -> Result<Measurement> {
            ctx->hash_memory_bytes =
                static_cast<uint64_t>(space.y_value(point));
            QuerySpec q = env->MakeQuery(space.x_value(point), 1.0);
            return env->executor().Run(ctx, PlanKind::kHashJoinAB, q);
          },
          SweepOpts(scale))
          .ValueOrDie();

  ColorScale cs = ColorScale::AbsoluteSeconds();
  HeatmapOptions hopts;
  hopts.title = "\nhash join cost over (build selectivity, memory)";
  std::printf(
      "%s", RenderHeatmap(space, map.SecondsOfPlan(0), cs, hopts).c_str());
  std::printf("%s", RenderLegend(cs).c_str());

  // Along the memory axis (for the largest build), cost must be monotone
  // non-increasing; count violations and measure the spill cliff.
  std::printf("\nspill cliff along the memory axis at selectivity 1:\n");
  auto grid = map.SecondsOfPlan(0);
  size_t xi = space.x_size() - 1;
  double worst_ratio = 1;
  for (size_t yi = 0; yi + 1 < space.y_size(); ++yi) {
    double with_less = grid[space.IndexOf(xi, yi)];
    double with_more = grid[space.IndexOf(xi, yi + 1)];
    worst_ratio = std::max(worst_ratio, with_less / with_more);
    std::printf("  mem %-10s -> %s\n",
                FormatBytes(static_cast<uint64_t>(memory.values[yi])).c_str(),
                FormatSeconds(with_less).c_str());
  }
  std::printf("  max speedup from one 4x memory step: %.2fx\n", worst_ratio);

  ExportMap("ablation_memory_map", map);
  return 0;
}
