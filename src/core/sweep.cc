#include "core/sweep.h"

#include <thread>
#include <utility>

namespace robustmap {

unsigned ResolveParallelism(unsigned requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

Result<RobustnessMap> DiffMaps(const RobustnessMap& warm,
                               const RobustnessMap& cold) {
  if (warm.num_plans() != cold.num_plans() ||
      !(warm.space() == cold.space())) {
    return Status::InvalidArgument(
        "warm and cold maps cover different plans or spaces");
  }
  RobustnessMap delta(warm.space(), warm.plan_labels());
  for (size_t plan = 0; plan < warm.num_plans(); ++plan) {
    if (warm.plan_label(plan) != cold.plan_label(plan)) {
      return Status::InvalidArgument("warm/cold plan labels disagree at " +
                                     std::to_string(plan));
    }
    for (size_t pt = 0; pt < warm.space().num_points(); ++pt) {
      const Measurement& w = warm.At(plan, pt);
      const Measurement& c = cold.At(plan, pt);
      if (w.output_rows != c.output_rows) {
        return Status::Internal(
            "warm run changed the result cardinality of " +
            warm.plan_label(plan) + " at point " + std::to_string(pt) +
            " — caching must never change results");
      }
      Measurement m;
      m.seconds = w.seconds - c.seconds;
      m.plan_label = w.plan_label;
      delta.Set(plan, pt, std::move(m));
    }
  }
  return delta;
}

}  // namespace robustmap
