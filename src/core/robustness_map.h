#ifndef ROBUSTMAP_CORE_ROBUSTNESS_MAP_H_
#define ROBUSTMAP_CORE_ROBUSTNESS_MAP_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/parameter_space.h"
#include "engine/executor.h"

namespace robustmap {

/// The central data structure of the paper: measured run-time performance
/// of a set of fixed plans over a 1-D or 2-D space of run-time conditions.
class RobustnessMap {
 public:
  RobustnessMap(ParameterSpace space, std::vector<std::string> plan_labels);

  const ParameterSpace& space() const { return space_; }
  size_t num_plans() const { return plan_labels_.size(); }
  const std::vector<std::string>& plan_labels() const { return plan_labels_; }
  const std::string& plan_label(size_t plan) const {
    return plan_labels_[plan];
  }

  void Set(size_t plan, size_t point, Measurement m);
  const Measurement& At(size_t plan, size_t point) const;
  /// Moves the measurement out, leaving a moved-from one in its place.
  Measurement Take(size_t plan, size_t point);
  const Measurement& AtXY(size_t plan, size_t xi, size_t yi) const {
    return At(plan, space_.IndexOf(xi, yi));
  }

  /// The cost surface of one plan as a flat grid of seconds.
  std::vector<double> SecondsOfPlan(size_t plan) const;

  /// Index of the plan with the given label.
  Result<size_t> PlanIndexOf(const std::string& label) const;

 private:
  ParameterSpace space_;
  std::vector<std::string> plan_labels_;
  std::vector<std::vector<Measurement>> data_;  ///< [plan][point]
};

}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_ROBUSTNESS_MAP_H_
