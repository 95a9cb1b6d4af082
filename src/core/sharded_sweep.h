#ifndef ROBUSTMAP_CORE_SHARDED_SWEEP_H_
#define ROBUSTMAP_CORE_SHARDED_SWEEP_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/map_io.h"
#include "core/shard_planner.h"
#include "core/sweep.h"
#include "core/sweep_cost.h"
#include "core/sweep_engine.h"

namespace robustmap {

// `ShardedSweepOptions` and `ShardedSweepStats` live in core/sweep_engine.h
// (the sharded-process backend is one axis of the engine); this header
// keeps the worker-side helpers and the legacy coordinator entry point.

/// Checkpoint file name for a shard, e.g. "tile_0007.rmt".
std::string TileFileName(size_t shard_id);

/// Sidecar file a failed worker leaves its Status message in — the one
/// channel an exit code cannot carry across the process boundary. Part of
/// the worker contract: coordinators read it back, so workers (including
/// external `sweep_worker` binaries) must write exactly this path.
std::string TileErrFileName(const std::string& tile_path);

/// Writes the sidecar (overwriting any stale one) — the one writer both
/// the built-in workers and external worker binaries share.
void WriteTileErrFile(const std::string& tile_path, const Status& s);

/// mkdir -p: creates `path` and any missing parents, tolerating ones that
/// already exist.
Status EnsureDirectory(const std::string& path);

/// Computes one tile — `study` restricted to the tile's rectangle, run
/// through `SweepEngine::Run` on the in-process backend `sweep_opts`
/// selects — and writes it atomically to `path`: one cell layer per study
/// output (named per `StudyLayerNames`), stamping the sweep's wall-clock
/// seconds into the tile's metadata (the measured-cost feedback later
/// runs reschedule from). The body of both worker modes and of the
/// `sweep_worker` executable. `warm_policy` is the warm layer's policy for
/// `kWarmColdDelta` and ignored for plain tiles (which sweep under
/// `ctx->warmup`, as always). A non-null `cell_cache` is consulted per
/// cell and populated with the tile's measurements (in this process's
/// memory only — tile workers never flush it).
Status ComputeAndWriteTile(RunContext* ctx, const Executor& executor,
                           const std::vector<PlanKind>& plans,
                           const ParameterSpace& space, const TileSpec& tile,
                           const std::string& path,
                           const SweepOptions& sweep_opts = {},
                           StudyKind study = StudyKind::kPlainMap,
                           const WarmupPolicy& warm_policy = {},
                           CellResultCache* cell_cache = nullptr);

/// The sharded equivalent of `SweepStudyPlans`: partitions the grid with
/// `ShardPlanner` under `opts.cost_model`, skips tiles already valid on
/// disk (unless `opts.resume == false`), computes the rest through a
/// pull-based work queue — up to `opts.num_workers` worker processes, each
/// one that finishes a tile immediately pulling the heaviest pending one —
/// and merges the tile files into one map that is bit-identical to
/// a single-process sweep of the same grid — every cell is an independent
/// cold measurement, so its value cannot depend on which process ran it.
///
/// Requires an order-independent warmup policy on `ctx` (anything but
/// `kPriorRun`, whose cells inherit state across the tile boundaries this
/// function erases). POSIX only: workers are fork(2)ed once per sweep and
/// serve tiles over pipes, or fork+exec'd once per tile when
/// `opts.worker_command` is set. A worker failure is reported after all
/// workers finish; completed tiles remain on disk, so a rerun resumes
/// rather than restarts.
///
/// Compatibility shim over `SweepEngine::Run` with a plain-map study on
/// the sharded-process backend; multi-layer studies (warm/cold/delta
/// tiles) go through the engine directly.
Result<RobustnessMap> RunShardedSweep(RunContext* ctx,
                                      const Executor& executor,
                                      const std::vector<PlanKind>& plans,
                                      const ParameterSpace& space,
                                      const ShardedSweepOptions& opts,
                                      ShardedSweepStats* stats = nullptr);

}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_SHARDED_SWEEP_H_
