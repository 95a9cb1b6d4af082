#include "core/robustness_map.h"

#include <cassert>

namespace robustmap {

RobustnessMap::RobustnessMap(ParameterSpace space,
                             std::vector<std::string> plan_labels)
    : space_(std::move(space)), plan_labels_(std::move(plan_labels)) {
  data_.assign(plan_labels_.size(),
               std::vector<Measurement>(space_.num_points()));
}

void RobustnessMap::Set(size_t plan, size_t point, Measurement m) {
  assert(plan < data_.size() && point < data_[plan].size());
  data_[plan][point] = std::move(m);
}

const Measurement& RobustnessMap::At(size_t plan, size_t point) const {
  assert(plan < data_.size() && point < data_[plan].size());
  return data_[plan][point];
}

Measurement RobustnessMap::Take(size_t plan, size_t point) {
  assert(plan < data_.size() && point < data_[plan].size());
  return std::move(data_[plan][point]);
}

std::vector<double> RobustnessMap::SecondsOfPlan(size_t plan) const {
  std::vector<double> out;
  out.reserve(space_.num_points());
  for (const auto& m : data_[plan]) out.push_back(m.seconds);
  return out;
}

Result<size_t> RobustnessMap::PlanIndexOf(const std::string& label) const {
  for (size_t i = 0; i < plan_labels_.size(); ++i) {
    if (plan_labels_[i] == label) return i;
  }
  return Status::NotFound("no plan labeled " + label);
}

}  // namespace robustmap
