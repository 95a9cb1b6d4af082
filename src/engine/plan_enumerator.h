#ifndef ROBUSTMAP_ENGINE_PLAN_ENUMERATOR_H_
#define ROBUSTMAP_ENGINE_PLAN_ENUMERATOR_H_

#include <vector>

#include "engine/plan.h"
#include "engine/query.h"
#include "engine/system.h"

namespace robustmap {

/// Enumerates the plans a system offers for a query — the paper's "hints":
/// query optimization is bypassed and every listed plan is forced in turn
/// (§3: "we eliminate choices in query optimization using hints on index
/// usage, join order, join algorithm, and memory allocation").
///
/// Plans that reference a predicate the query does not have remain legal
/// (the missing predicate widens to the full domain); plans that require a
/// structure the system lacks are simply absent from its `SystemConfig`.
std::vector<PlanSpec> EnumeratePlans(const SystemConfig& system,
                                     const QuerySpec& query);

}  // namespace robustmap

#endif  // ROBUSTMAP_ENGINE_PLAN_ENUMERATOR_H_
