// Custom systems and real storage: runs the robustness study on a genuine
// heap file + real B-trees (not the procedural simulator tables), and
// defines a hypothetical "System D" — System A's executor with MDAM bolted
// on — to ask the paper's question: which executor improvement buys the
// most robustness?

#include <cstdio>

#include "core/metrics.h"
#include "core/sweep_engine.h"
#include "engine/plan_enumerator.h"
#include "engine/system.h"
#include "workload/distributions.h"

using namespace robustmap;

int main() {
  // A real materialized database: 50K rows, correlated columns (a classic
  // estimation hazard), loaded into slotted pages and bulk-loaded B-trees.
  VirtualClock clock;
  SimDevice device(DiskParameters{}, &clock);
  BufferPool pool(&device, 1024);
  RunContext ctx;
  ctx.clock = &clock;
  ctx.device = &device;
  ctx.pool = &pool;
  ctx.sort_memory_bytes = 64 << 10;
  ctx.hash_memory_bytes = 64 << 10;

  HeapDatasetOptions dopts;
  dopts.rows = 50000;
  dopts.domain = 4096;
  dopts.correlation = 0.3;
  auto dataset = BuildHeapStudyDataset(&ctx, &device, dopts).ValueOrDie();
  Executor executor(dataset.db());
  std::printf("heap dataset: %llu rows in %llu pages, B-tree heights: "
              "idx_a=%d idx_ab=%d\n\n",
              static_cast<unsigned long long>(dataset.table->num_rows()),
              static_cast<unsigned long long>(dataset.table->num_pages()),
              dataset.idx_a->height(), dataset.idx_ab->height());

  // System D: System A plus MDAM covering plans, but no hash joins.
  SystemConfig system_d{
      "System D",
      {PlanKind::kTableScan, PlanKind::kIndexAImproved,
       PlanKind::kIndexBImproved, PlanKind::kMergeJoinAB,
       PlanKind::kMergeJoinBA, PlanKind::kMdamAB, PlanKind::kMdamBA},
  };

  ParameterSpace space =
      ParameterSpace::TwoD(Axis::Selectivity("selectivity(a)", -10, 0),
                           Axis::Selectivity("selectivity(b)", -10, 0));

  for (const SystemConfig& sys :
       {SystemConfig::SystemA(), system_d}) {
    QuerySpec q = MakeStudyQuery(0.5, 0.5, dataset.domain);
    auto plans = EnumeratePlans(sys, q);
    SweepRequest req;
    for (const auto& p : plans) req.plans.push_back(p.kind);
    req.space = space;
    SweepOutcome out = SweepEngine::Run(&ctx, executor, req).ValueOrDie();
    auto summaries = SummarizePlans(out.map(), ToleranceSpec{0.01, 1.0});
    std::printf("%s (%zu plans):\n%s\n", sys.name.c_str(), req.plans.size(),
                RenderSummaryTable(summaries).c_str());
  }

  std::printf("Compare the worst-factor columns: adding MDAM gives System D "
              "a plan whose worst case stays small — the executor-side "
              "robustness the paper argues for.\n");
  return 0;
}
