#ifndef ROBUSTMAP_CORE_SWEEP_H_
#define ROBUSTMAP_CORE_SWEEP_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/robustness_map.h"
#include "engine/plan.h"
#include "io/run_context.h"

namespace robustmap {

/// The "0 = one per hardware thread" convention shared by
/// `SweepOptions::num_threads` and `ShardedSweepOptions::num_workers`:
/// returns `requested` unless it is 0, then the hardware concurrency
/// (1 when unknown). One definition, so threads and worker processes can
/// never resolve the same setting differently.
unsigned ResolveParallelism(unsigned requested);

/// Progress/parallelism options for sweeps.
struct SweepOptions {
  /// Prints per-plan / percent progress to stderr; the sharded backend
  /// prints its per-tile planning and dispatch lines under the same flag.
  bool verbose = false;

  /// Worker threads for parallel sweeps: 0 = one per hardware thread,
  /// 1 = serial in the caller's thread. Any setting produces bit-identical
  /// maps: every cell is measured on an isolated simulated machine, so only
  /// wall-clock time changes. An order-dependent sweep — one under
  /// `WarmupPolicy::PriorRun()`, whose cells inherit the pool their
  /// predecessor left — runs serially on the caller's context whatever this
  /// says. (`RunCellsIndexed` is serial by construction and ignores it.)
  unsigned num_threads = 0;
};

/// The cell runner of `SweepEngine::RunCellsIndexed`: measures `plan` at
/// grid point `point` of the sweep's space. The cell is identified by its
/// grid-point index rather than resolved axis values, so a caller that
/// precomputed per-point state (bound queries, prepared plans) indexes
/// straight into its tables; `space.x_value(point)` / `y_value(point)`
/// recover the axis values (`y_value` is -1 on 1-D spaces).
using IndexedPointRunner =
    std::function<Result<Measurement>(size_t plan, size_t point)>;

/// The runner of `SweepEngine::RunCellsParallelIndexed`: the worker's
/// private machine is passed in, so per-cell run-time conditions (memory
/// budgets, CPU constants) can be varied without racing other workers.
/// The runner is invoked concurrently and must only touch shared state
/// that is safe for concurrent reads (all storage objects' read paths
/// are).
using IndexedContextPointRunner = std::function<Result<Measurement>(
    RunContext* ctx, size_t plan, size_t point)>;

/// warm − cold, cell by cell. The maps must have identical shapes and plan
/// labels, and each cell pair must agree on `output_rows` (caching must
/// never change a result) — anything else is an error.
Result<RobustnessMap> DiffMaps(const RobustnessMap& warm,
                               const RobustnessMap& cold);

}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_SWEEP_H_
