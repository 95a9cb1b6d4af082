#ifndef ROBUSTMAP_CORE_RELATIVE_H_
#define ROBUSTMAP_CORE_RELATIVE_H_

#include <string>
#include <vector>

#include "core/robustness_map.h"

namespace robustmap {

/// Performance of every plan relative to the best plan at each point — the
/// paper's §3.3: "a given plan is optimal if ... the quotient of costs is 1;
/// a plan is sub-optimal if the quotient is much higher than 1."
struct RelativeMap {
  ParameterSpace space;
  std::vector<std::string> plan_labels;
  std::vector<double> best_seconds;               ///< per point
  std::vector<size_t> best_plan;                  ///< argmin per point
  std::vector<std::vector<double>> quotient;      ///< [plan][point], >= 1
};

/// Computes per-point best plans and cost quotients.
RelativeMap ComputeRelative(const RobustnessMap& map);

/// Worst (largest) quotient of one plan over the whole space.
double WorstQuotient(const RelativeMap& rel, size_t plan);

}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_RELATIVE_H_
