// Plan study: the workflow of a DBA (or engine developer) deciding which
// plan to hint for a two-predicate query whose run-time selectivities are
// unpredictable — the paper's central use case.
//
// Sweeps all 13 plans over the 2-D selectivity space, then ranks plans by
// robustness rather than by best-case speed.

#include <cstdio>

#include "core/metrics.h"
#include "core/optimality.h"
#include "core/relative.h"
#include "core/sweep_engine.h"
#include "viz/ascii_heatmap.h"
#include "viz/legend.h"
#include "workload/dataset.h"

using namespace robustmap;

int main() {
  StudyOptions options;
  options.row_bits = 16;  // small grid: this is a demo, not the bench
  options.value_bits = 12;
  auto env = StudyEnvironment::Create(options).ValueOrDie();

  ParameterSpace space =
      ParameterSpace::TwoD(Axis::Selectivity("selectivity(a)", -12, 0),
                           Axis::Selectivity("selectivity(b)", -12, 0));
  SweepRequest req;
  req.plans = AllStudyPlans();
  req.space = space;
  SweepOutcome out =
      SweepEngine::Run(env->ctx(), env->executor(), req).ValueOrDie();
  const RobustnessMap& map = out.map();
  RelativeMap rel = ComputeRelative(map);

  // Show the relative maps the paper contrasts: fragile vs. robust.
  ColorScale cs = ColorScale::RelativeFactor();
  for (const char* label : {"A.idx_a.improved", "C.mdam(a,b)"}) {
    size_t plan = map.PlanIndexOf(label).ValueOrDie();
    HeatmapOptions hopts;
    hopts.title = std::string("\n") + label + " — cost factor vs. best of 13";
    std::printf("%s",
                RenderHeatmap(space, rel.quotient[plan], cs, hopts).c_str());
  }
  std::printf("%s", RenderLegend(cs).c_str());

  // Rank plans the way the paper suggests: by worst-case factor, i.e. by
  // what happens when the optimizer's selectivity estimate is wrong.
  auto summaries = SummarizePlans(map, ToleranceSpec{0.1, 1.0});
  std::printf("\nrobustness ranking (what to hint when selectivities are "
              "unpredictable):\n%s",
              RenderSummaryTable(summaries).c_str());

  double best_worst = 1e300;
  std::string pick;
  for (const auto& s : summaries) {
    if (s.worst_quotient < best_worst) {
      best_worst = s.worst_quotient;
      pick = s.label;
    }
  }
  std::printf("\nrecommendation: hint %s (worst-case factor %.3g) — "
              "\"robustness might well trump performance\" (paper §3.3)\n",
              pick.c_str(), best_worst);
  return 0;
}
