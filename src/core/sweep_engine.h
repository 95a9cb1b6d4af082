#ifndef ROBUSTMAP_CORE_SWEEP_ENGINE_H_
#define ROBUSTMAP_CORE_SWEEP_ENGINE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/robustness_map.h"
#include "core/sweep.h"
#include "engine/plan.h"
#include "io/run_context.h"

namespace robustmap {

class CellResultCache;

/// The *study* axis of a sweep: what is measured at every grid cell, and
/// how many output maps ("layers") the sweep therefore produces. Studies
/// compose orthogonally with every `BackendKind` — the §3.2 buffer-contents
/// study runs sharded across processes exactly as the plain map does.
enum class StudyKind {
  kPlainMap,       ///< one layer: each cell measured once under ctx->warmup
  kWarmColdDelta,  ///< three layers: cold, warm (under the request's
                   ///< warm policy), and their per-cell delta (warm − cold)
};

/// "plain" / "warmcold" — the spelling of the `--study` flag and the
/// REPRO_STUDY env knob.
Result<StudyKind> StudyKindFromString(const std::string& name);
const char* StudyKindName(StudyKind kind);

/// How many maps the study produces (1 for plain, 3 for warm-cold).
size_t StudyLayerCount(StudyKind kind);

/// The layer names stored in this study's tiles, in output order. Empty
/// for single-layer studies: plain tiles carry no names, which keeps them
/// on the v2 byte stream (byte-stable artifacts).
std::vector<std::string> StudyLayerNames(StudyKind kind);

/// The *execution* axis of a sweep: which machinery measures the cells.
/// Every backend produces bit-identical layers for order-independent
/// studies — the backend may only change wall-clock time, never values.
enum class BackendKind {
  kSerial,          ///< in the caller's thread, on `ctx` itself
  kThreaded,        ///< thread pool of private simulated machines
  kShardedProcess,  ///< checkpointed worker processes merging tile files
};

/// "serial" / "threaded" / "sharded" — the string spelling of a backend.
Result<BackendKind> BackendKindFromString(const std::string& name);
const char* BackendKindName(BackendKind kind);

/// Options for the sharded-process backend.
struct ShardedSweepOptions {
  /// Directory the per-tile checkpoint files live in; created if missing.
  /// Point a rerun at the same directory to resume a killed sweep.
  std::string tile_dir;

  /// Concurrent worker processes. 0 = one per hardware thread.
  unsigned num_workers = 0;

  /// Tiles to split the grid into (work units; a worker processes several).
  /// 0 = one per worker. More tiles than workers smooths load imbalance and
  /// makes checkpoints finer-grained. Tiles are cut to equal cost under the
  /// analytic prior and dispatched heaviest first; when fewer are pending
  /// than workers, heavy ones are split further (`PlanShards`).
  size_t num_tiles = 0;

  /// When true (the default), tiles already present and valid in `tile_dir`
  /// are trusted and only missing or invalid ones are recomputed — the
  /// checkpoint/resume path. When false, every tile is recomputed and
  /// existing files are overwritten.
  bool resume = true;

  /// How workers start; every worker runs `ServeTiles`, one per lane for
  /// the whole sweep. Empty (the default): forked children of this
  /// process, computing with the already-built executor — the mode benches
  /// and tests use. Non-empty: the command prefix of a serving worker
  /// (`sweep_worker` and its grid flags), exec'd with the request pipe as
  /// stdin and the answer pipe as stdout, for coordinators whose workers
  /// must build their own environment. The engine appends the sweep's
  /// session flags: "--tile-dir=<dir>", "--study=<name>", and when they
  /// apply "--warmup=<spec>", "--stride=<k>", "--cache-dir=<dir>",
  /// "--trace-epoch=<ns>" and "--telemetry".
  std::vector<std::string> worker_command;
};

/// Coarse-to-fine refinement for a sweep: measure the stride-k sublattice
/// of the grid first, surface it as a nearest-neighbor-filled snapshot,
/// then halve the stride and repeat until stride 1 — every level reusing
/// all previously measured cells through the request's cell cache (or a
/// per-run in-memory one), so a progressive sweep measures each grid cell
/// exactly once and its final layers are byte-identical to a direct
/// sweep's. Requires an order-independent configuration (no prior-run
/// warmth): reuse makes cell order unobservable only when cells are
/// independent.
struct ProgressiveOptions {
  /// Lattice stride of the first (coarsest) level; successive levels halve
  /// it until 1, the full grid. 0 or 1 = not a progressive sweep.
  size_t initial_stride = 0;

  /// Called after each level with that level's stride and full-grid
  /// layers: coarse levels are nearest-neighbor upsampled to grid size
  /// (every cell shows its nearest measured lattice point), the final
  /// stride-1 level is the exact result. Use it to write per-level `.rmt`
  /// snapshots a viewer can tail.
  std::function<void(size_t stride, const std::vector<RobustnessMap>& layers)>
      on_snapshot;

  bool enabled() const { return initial_stride > 1; }
};

/// What a sharded sweep did, for self-checks, resume tests, and the
/// scheduling-quality metrics `robustness_benchmark` records.
struct ShardedSweepStats {
  size_t tiles_total = 0;
  size_t tiles_reused = 0;    ///< valid checkpoints skipped (whole or as
                              ///< adopted pieces covering a planned tile)
  size_t tiles_computed = 0;  ///< recomputed by workers this run
  size_t tiles_split = 0;     ///< straggler split operations (each turns
                              ///< one pending tile into two)
  unsigned workers_spawned = 0;  ///< worker processes started, forked or
                                 ///< exec'd: one per lane, plus one for
                                 ///< each that died with tiles pending

  /// Wall-clock seconds each worker lane spent holding a tile, from its
  /// dispatch to its result (lane = one of the up-to-`num_workers`
  /// concurrent workers; one entry per lane). The makespan is dominated by
  /// the busiest lane, so the spread here *is* the scheduling quality.
  std::vector<double> worker_busy_seconds;

  /// Busiest lane / mean lane — 1.0 is a perfectly balanced sweep, 2.0
  /// means the slowest worker carried twice its fair share while others
  /// idled. 1.0 when nothing was computed.
  double busy_balance_ratio() const {
    if (worker_busy_seconds.empty()) return 1.0;
    double sum = 0, max = 0;
    for (double b : worker_busy_seconds) {
      sum += b;
      if (b > max) max = b;
    }
    if (sum <= 0) return 1.0;
    return max * static_cast<double>(worker_busy_seconds.size()) / sum;
  }
};

/// One fully-specified sweep: *what* to measure (plans × space × study)
/// and *how* to execute it (backend + its configuration). Every sweep in
/// the repo — every fig bench, the scorecard, the shard coordinator, each
/// worker's single tile — is one of these, so cost models, warmup
/// policies, and progress callbacks are applied by exactly one code path.
struct SweepRequest {
  std::vector<PlanKind> plans;
  ParameterSpace space;
  StudyKind study = StudyKind::kPlainMap;
  BackendKind backend = BackendKind::kThreaded;

  /// The warm layer's policy (kWarmColdDelta only; the cold layer is
  /// always `WarmupPolicy::Cold()`, and a plain study sweeps under the
  /// context's own `ctx->warmup`). Must be order-independent for the
  /// sharded backend.
  WarmupPolicy warm_policy;

  /// Thread count, verbosity, and the progress callback. The sharded
  /// backend takes its parallelism from `sharded` instead; `verbose` also
  /// turns on its per-tile progress lines.
  SweepOptions sweep;

  /// Sharded-process backend configuration (ignored by the in-process
  /// backends).
  ShardedSweepOptions sharded;

  /// Optional content-addressed cell-result cache ("never measure a cell
  /// twice"). Non-null: cells whose fingerprint is already stored skip
  /// `Executor::Run` entirely and publish nothing to the measurement
  /// telemetry (`sweep.cells_measured` counts real measurements only);
  /// missed cells are measured and published back. Ignored — the sweep
  /// measures everything, as without a cache — for order-dependent
  /// configurations (prior-run warmth), whose cell values are not a pure
  /// function of the cell.
  /// The caller owns the cache and decides when to flush it.
  CellResultCache* cell_cache = nullptr;

  /// Coarse-to-fine refinement schedule; disabled by default.
  ProgressiveOptions progressive;
};

/// The maps a sweep produced: `StudyLayerCount(study)` layers, in study
/// order, plus the sharded backend's scheduling stats (zeroed for
/// in-process backends).
struct SweepOutcome {
  StudyKind study = StudyKind::kPlainMap;
  std::vector<RobustnessMap> layers;
  ShardedSweepStats sharded_stats;

  const RobustnessMap& map() const { return layers.front(); }
  const RobustnessMap& cold() const { return layers[0]; }
  const RobustnessMap& warm() const { return layers[1]; }
  const RobustnessMap& delta() const { return layers[2]; }
};

/// The composable sweep engine: any study × any backend, one entry point.
///
/// Guarantees, for order-independent configurations (no prior-run
/// warmth): every (study, backend) pair produces layers bit-identical to
/// the serial reference of the same study — the backend axis only ever
/// changes wall-clock time. A prior-run sweep is confined to the in-process
/// backends, where it runs serially on `ctx` at any thread count (so the
/// serial and threaded backends agree bit for bit from the same starting
/// pool), and is rejected with `InvalidArgument` by the sharded and
/// progressive paths.
class SweepEngine {
 public:
  /// Executes `req`.
  static Result<SweepOutcome> Run(RunContext* ctx, const Executor& executor,
                                  const SweepRequest& req);

  /// The generic serial cell loop, exposed for sweeps over arbitrary
  /// runners — ablations mapping memory budgets or spill behavior rather
  /// than study plans. The runner receives the grid-point index, so
  /// per-point state precomputed once per sweep (bound queries, prepared
  /// plans) is a table lookup per cell, not a rebuild. An empty plan list
  /// or an empty grid is an `InvalidArgument`, here and in the parallel
  /// loop: a sweep over nothing is a caller bug, not a map.
  static Result<RobustnessMap> RunCellsIndexed(
      const ParameterSpace& space, const std::vector<std::string>& plan_labels,
      const IndexedPointRunner& runner, const SweepOptions& opts = {});

  /// The generic thread-pool cell loop over `opts.num_threads` workers,
  /// each measuring on its own simulated machine drawn from `factory`'s
  /// arena (`Acquire`/`Release`), so repeated sweeps over one factory
  /// recycle their machines instead of rebuilding them. Cells are claimed
  /// from a shared queue in cost-weighted blocks (contiguous runs of the
  /// serial order sized to carry ~equal analytic cost) and written into
  /// the map by (plan, point) index, so the map is bit-identical to
  /// `RunCellsIndexed` at any thread count. On error, the Status of the
  /// first failing cell in serial plan-major order is returned.
  static Result<RobustnessMap> RunCellsParallelIndexed(
      const ParameterSpace& space, const std::vector<std::string>& plan_labels,
      const RunContextFactory& factory, const IndexedContextPointRunner& runner,
      const SweepOptions& opts = {});
};

}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_SWEEP_ENGINE_H_
