#ifndef ROBUSTMAP_CORE_SWEEP_ENGINE_H_
#define ROBUSTMAP_CORE_SWEEP_ENGINE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/robustness_map.h"
#include "core/sweep.h"
#include "core/sweep_cost.h"
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

/// Options for the sharded-process backend (also the configuration of the
/// `RunShardedSweep` compatibility shim).
struct ShardedSweepOptions {
  /// Directory the per-tile checkpoint files live in; created if missing.
  /// Point a rerun at the same directory to resume a killed sweep.
  std::string tile_dir;

  /// Concurrent worker processes. 0 = one per hardware thread.
  unsigned num_workers = 0;

  /// Tiles to split the grid into (work units; a worker processes several).
  /// 0 = one per worker. More tiles than workers smooths load imbalance and
  /// makes checkpoints finer-grained.
  size_t num_tiles = 0;

  /// Sweep threads inside each worker process (multiplies with
  /// `num_workers`; keep at 1 unless workers are spread across machines).
  unsigned threads_per_worker = 1;

  /// When true (the default), tiles already present and valid in `tile_dir`
  /// are trusted and only missing or invalid ones are recomputed — the
  /// checkpoint/resume path. When false, every tile is recomputed and
  /// existing files are overwritten.
  bool resume = true;

  /// Per-tile progress lines on stderr.
  bool verbose = false;

  /// Empty (the default): workers are forked children of this process,
  /// one per lane for the whole sweep, computing the tiles they are handed
  /// with the already-built executor — the in-process subprocess mode
  /// benches and tests use. Non-empty: each tile spawns
  /// fork+exec of this argv with "--tiles=<count>", "--tile=<id>",
  /// "--rect=<x0:x1:y0:y1>", "--study=<name>", "--out=<path>" — and
  /// "--warmup=<spec>" when the study's policy is not cold — appended (the
  /// `sweep_worker` contract — the resolved tile count, its exact
  /// rectangle, and the study ride along so worker and coordinator can
  /// never compute different things under the same tile name), for
  /// coordinators whose workers must build their own environment.
  std::vector<std::string> worker_command;

  /// How tiles are sized and dispatched. `kUniform` reproduces the
  /// pre-cost-layer equal-area tiles in shard-id order. `kAnalytic` (the
  /// default) cuts cost-balanced tiles from the selectivity prior and
  /// dispatches the heaviest pending tile first, so the sweep no longer
  /// finishes at the speed of its unluckiest tile. `kMeasured`
  /// additionally rebuilds the model from per-tile wall times found in
  /// `tile_dir` before partitioning — a repeated sweep reschedules from
  /// what cells actually cost here, not from the prior. (Changing the
  /// model between runs usually moves tile boundaries, which resume then
  /// treats as a reconfiguration and recomputes; measured mode is a
  /// re-balancing run, not a resume accelerator.) The merged map is
  /// bit-identical under every setting — scheduling never touches values.
  CostModelKind cost_model = CostModelKind::kAnalytic;

  /// Straggler-tile splitting. When fewer tiles are pending than workers —
  /// a resume recomputing two damaged tiles on an eight-worker box, or a
  /// coarse partition — a pending tile whose modeled cost exceeds 1.25×
  /// the pending average per worker is cut at its cost midpoint, repeatedly,
  /// until the head of the queue fits; the pieces (fresh synthetic shard
  /// ids, exact sub-rectangles) dispatch like any other tile. Splitting is
  /// decided from the cost model *before* dispatch, never from wall-clock
  /// observations mid-run, so a given directory state always produces the
  /// same tiles, the same stats, and — tiles being keyed by cell ranges —
  /// the same merged bytes. A later resume adopts any completed pieces it
  /// finds covering a planned tile and recomputes only the uncovered
  /// remainder.
  bool split_stragglers = true;

  /// Internal to progressive sweeps: the request's `space` is the stride-k
  /// sublattice of the grid the worker flags describe (see
  /// `SubsampleSpace`). Forwarded to exec-mode workers as "--stride=<k>"
  /// so worker and coordinator slice rectangles from the same lattice;
  /// 1 for ordinary sweeps. Set by `SweepEngine::Run`'s progressive
  /// driver, not by callers.
  size_t lattice_stride = 1;
};

/// Coarse-to-fine refinement for a sweep: measure the stride-k sublattice
/// of the grid first, surface it as a nearest-neighbor-filled snapshot,
/// then halve the stride and repeat until stride 1 — every level reusing
/// all previously measured cells through the request's cell cache (or a
/// per-run in-memory one), so a progressive sweep measures each grid cell
/// exactly once and its final layers are byte-identical to a direct
/// sweep's. Requires an order-independent configuration (no prior-run
/// warmth, no shared pool): reuse makes cell order unobservable only when
/// cells are independent.
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
  unsigned workers_spawned = 0;  ///< worker lanes; in fork mode also the
                                 ///< persistent workers forked (plus any
                                 ///< replacement for one that died)

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
/// policies, shared pools, deterministic schedules, and progress callbacks
/// are applied by exactly one code path.
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

  /// Thread count, shared pool, deterministic schedule, verbosity, and the
  /// progress callback. The sharded backend takes its parallelism from
  /// `sharded` instead and rejects shared pools (one process cannot share
  /// cache residency with another).
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
  /// configurations (prior-run warmth, shared pool, deterministic shared
  /// schedule), whose cell values are not a pure function of the cell.
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

  /// Unpacks a kWarmColdDelta outcome into the legacy struct.
  WarmColdMaps ToWarmColdMaps() && {
    return WarmColdMaps{std::move(layers[0]), std::move(layers[1]),
                        std::move(layers[2])};
  }
};

/// The composable sweep engine: any study × any backend, one entry point.
///
/// Guarantees, for order-independent configurations (no prior-run warmth,
/// no shared pool): every (study, backend) pair produces layers
/// bit-identical to the serial reference of the same study — the backend
/// axis only ever changes wall-clock time. Order-dependent configurations
/// are confined to the in-process backends (serialized as the legacy
/// entry points always did) and rejected with `InvalidArgument` by the
/// sharded backend.
class SweepEngine {
 public:
  /// Executes `req`. The legacy entry points (`SweepStudyPlans`,
  /// `RunWarmColdSweep`, `RunShardedSweep`) are thin shims over this.
  static Result<SweepOutcome> Run(RunContext* ctx, const Executor& executor,
                                  const SweepRequest& req);

  /// The generic serial cell loop (the engine's substrate, exposed for
  /// sweeps over arbitrary runners — ablations mapping memory budgets or
  /// spill behavior rather than study plans). `RunSweep` shims here; the
  /// value-based form adapts onto `RunCellsIndexed`.
  static Result<RobustnessMap> RunCells(
      const ParameterSpace& space, const std::vector<std::string>& plan_labels,
      const PointRunner& runner, const SweepOptions& opts = {});

  /// The core serial loop: the runner receives the grid-point index, so
  /// per-point state precomputed once per sweep (bound queries, prepared
  /// plans) is a table lookup per cell, not a rebuild.
  static Result<RobustnessMap> RunCellsIndexed(
      const ParameterSpace& space, const std::vector<std::string>& plan_labels,
      const IndexedPointRunner& runner, const SweepOptions& opts = {});

  /// The generic thread-pool cell loop over per-worker simulated machines
  /// built by `factory`; bit-identical to `RunCells` at any thread count.
  /// `ParallelRunSweep` shims here; the value-based form adapts onto
  /// `RunCellsParallelIndexed`.
  static Result<RobustnessMap> RunCellsParallel(
      const ParameterSpace& space, const std::vector<std::string>& plan_labels,
      const RunContextFactory& factory, const ContextPointRunner& runner,
      const SweepOptions& opts = {});

  /// The core parallel loop (index-based, see `RunCellsIndexed`). Worker
  /// machines are drawn from the factory's arena (`Acquire`/`Release`), so
  /// repeated sweeps over one factory recycle their simulated machines
  /// instead of rebuilding them.
  static Result<RobustnessMap> RunCellsParallelIndexed(
      const ParameterSpace& space, const std::vector<std::string>& plan_labels,
      const RunContextFactory& factory, const IndexedContextPointRunner& runner,
      const SweepOptions& opts = {});
};

}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_SWEEP_ENGINE_H_
