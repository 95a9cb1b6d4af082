#include "engine/plan_enumerator.h"

namespace robustmap {

std::vector<PlanSpec> EnumeratePlans(const SystemConfig& system,
                                     const QuerySpec& query) {
  (void)query;  // all plan kinds tolerate inactive predicates
  std::vector<PlanSpec> out;
  out.reserve(system.plans.size());
  for (PlanKind kind : system.plans) {
    out.push_back(PlanSpec{kind, PlanKindLabel(kind)});
  }
  return out;
}

}  // namespace robustmap
