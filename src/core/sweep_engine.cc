#include "core/sweep_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/mutex.h"
#include "common/trace.h"
#include "core/cell_cache.h"
#include "core/map_io.h"
#include "core/shard_planner.h"
#include "core/sharded_sweep.h"
#include "core/sweep_cost.h"
#include "core/sweep_telemetry.h"
#include "engine/query.h"

namespace robustmap {

namespace {

/// Every sweep entry point rejects degenerate inputs up front: a sweep
/// over nothing is almost always a caller bug (an empty plan list, an axis
/// that lost its values), and the alternative — silently returning a
/// 0-cell map that every downstream analysis then has to defend against —
/// just moves the failure somewhere less diagnosable.
Status ValidateSweepInputs(const ParameterSpace& space,
                           const std::vector<std::string>& plan_labels) {
  if (plan_labels.empty()) {
    return Status::InvalidArgument("cannot sweep an empty plan list");
  }
  if (space.num_points() == 0) {
    return Status::InvalidArgument(
        "cannot sweep an empty grid (an axis has no values)");
  }
  return Status::OK();
}

/// True when any observability sink would accept data — the one check the
/// cell loops make before touching the wall clock, so an uninstrumented
/// sweep never reads it.
bool Observing() {
  return SweepTelemetry::Get().enabled() || Tracer::Get().enabled();
}

/// Sidecar-only accounting of one measured cell: the cell latency
/// histogram plus the simulated-I/O counters of the measurement. Reads the
/// Measurement, never writes it — no map byte may depend on anything
/// recorded here.
void ObserveCell(const Measurement& m, double cell_seconds) {
  SweepTelemetry& t = SweepTelemetry::Get();
  if (!t.enabled()) return;
  t.RecordLatency("sweep.cell_seconds", cell_seconds);
  t.AddCounter("sweep.cells_measured", 1);
  t.AddCounter("io.sequential_reads", m.io.sequential_reads);
  t.AddCounter("io.skip_reads", m.io.skip_reads);
  t.AddCounter("io.random_reads", m.io.random_reads);
  t.AddCounter("io.writes", m.io.writes);
  t.AddCounter("io.buffer_hits", m.io.buffer_hits);
  t.AddCounter("io.bytes_read", m.io.bytes_read);
  t.AddCounter("io.bytes_written", m.io.bytes_written);
}

/// RAII stopwatch around one measured cell: reads the wall clock at
/// construction only when some sink is observing (an uninstrumented sweep
/// never touches it), and `Observe` folds the finished cell into the
/// telemetry. Like everything observability, it reads the Measurement and
/// never writes it.
class CellTimer {
 public:
  explicit CellTimer(bool observing)
      : observing_(observing), start_ns_(observing ? MonotonicNowNs() : 0) {}

  /// Records the cell (latency + I/O counters). Call once, after a
  /// successful measurement; failed cells record nothing, as before.
  void Observe(const Measurement& m) const {
    if (!observing_) return;
    ObserveCell(m,
                static_cast<double>(MonotonicNowNs() - start_ns_) * 1e-9);
  }

 private:
  const bool observing_;
  const int64_t start_ns_;
};

/// The verbose-mode progress printer, shared by the serial and the parallel
/// cell loop: one stderr line per completed plan and per 10% step —
/// readable for both quick smokes and hour-long studies. The counts live
/// under one mutex, so lines come out in cell-completion order.
class ProgressTracker {
 public:
  ProgressTracker(bool verbose, size_t num_plans, size_t points)
      : verbose_(verbose),
        points_(points),
        num_plans_(num_plans),
        cells_total_(num_plans * points),
        per_plan_done_(verbose ? num_plans : 0, 0) {}

  void CellDone(size_t plan) {
    if (!verbose_) return;
    MutexLock lock(&mu_);
    ++cells_done_;
    const bool plan_step = ++per_plan_done_[plan] == points_;
    if (plan_step) ++plans_done_;
    // cells_total_ > 0: every cell loop rejects an empty sweep up front.
    const double percent = 100.0 * static_cast<double>(cells_done_) /
                           static_cast<double>(cells_total_);
    const int decile = static_cast<int>(percent / 10.0);
    if (decile == last_decile_ && !plan_step && cells_done_ != cells_total_) {
      return;
    }
    last_decile_ = decile;
    std::fprintf(stderr, "  sweep: %5.1f%% (%zu/%zu cells, %zu/%zu plans)\n",
                 percent, cells_done_, cells_total_, plans_done_, num_plans_);
  }

 private:
  // The sizes are immutable after construction, so workers may read them
  // without the capability; the cumulative counts are the shared mutable
  // state and live under mu_.
  const bool verbose_;
  const size_t points_;
  const size_t num_plans_;
  const size_t cells_total_;
  Mutex mu_;
  size_t cells_done_ GUARDED_BY(mu_) = 0;
  size_t plans_done_ GUARDED_BY(mu_) = 0;
  int last_decile_ GUARDED_BY(mu_) = -1;
  std::vector<size_t> per_plan_done_ GUARDED_BY(mu_);
};

/// The plan trees of one simulated machine in a study sweep: `owner` is
/// the machine's context once a worker has claimed the slot, and `trees`
/// holds one tree per plan, built at the machine's first cell of that plan.
struct MachineTrees {
  std::atomic<RunContext*> owner{nullptr};
  std::vector<std::optional<Executor::PlanTree>> trees;
};

/// The paper's standard study sweep under one in-process backend choice:
/// axes are predicate selectivities, plans are `PlanKind`s executed under
/// `ctx`'s warmup policy. The serial path measures on `ctx` itself, and
/// an order-dependent sweep (prior-run warmth: each cell inherits the pool
/// its predecessor left) always takes it, whatever `opts.num_threads` says
/// — serial order on the one machine is the only history that is the same
/// on every invocation.
///
/// Everything a cell does not depend on is paid once per sweep, not once
/// per cell: plans are validated and their labels materialized through
/// `Executor::Prepare`, every grid point's query — selectivity math,
/// predicate binding — is bound up front, and each machine builds one
/// operator tree per plan and rebinds it per cell, so the inner loop is a
/// table lookup, a bind and the measurement itself. A caller running
/// several sweeps against the same prototype (the warm-cold study) may pass
/// `shared_factory` so the parallel loop recycles its simulated machines
/// across sweeps; the factory must have been built from `ctx`.
///
/// With a `cache`, each cell consults it first — a hit returns the stored
/// measurement without touching the executor, a miss measures and
/// publishes back — keyed under `study_name` and the sweep's own
/// `ctx->warmup`. Only the calling thread touches the cache: every hit is
/// looked up before the cell loop starts, and the new measurements are
/// published after it ends (a failing sweep publishes none). Workers then
/// never take a cache lock or write a cache line, so a parallel sweep's
/// cost does not hinge on how its threads meet there. Order-dependent
/// sweeps bypass the cache: their cell values depend on execution history,
/// which a content fingerprint cannot capture.
Result<RobustnessMap> StudySweep(RunContext* ctx, const Executor& executor,
                                 const std::vector<PlanKind>& plans,
                                 const ParameterSpace& space,
                                 const SweepOptions& opts,
                                 const char* study_name,
                                 CellResultCache* cache,
                                 RunContextFactory* shared_factory = nullptr) {
  std::vector<Executor::PreparedPlan> prepared;
  std::vector<std::string> labels;
  prepared.reserve(plans.size());
  labels.reserve(plans.size());
  for (PlanKind k : plans) {
    auto p = executor.Prepare(k);
    RM_RETURN_IF_ERROR(p.status());
    labels.push_back(p.value().label());
    prepared.push_back(std::move(p).value());
  }
  const int64_t domain = executor.db().domain;
  const size_t points = space.num_points();
  std::vector<QuerySpec> queries;
  queries.reserve(points);
  for (size_t pt = 0; pt < points; ++pt) {
    queries.push_back(
        MakeStudyQuery(space.x_value(pt), space.y_value(pt), domain));
  }
  const bool order_dependent = ctx->warmup.is_order_dependent();
  if (order_dependent) cache = nullptr;
  std::vector<uint64_t> fps;  // [plan * points + point]
  if (cache != nullptr) {
    const uint64_t env = EnvironmentFingerprint(*ctx, domain);
    const std::string warmup_spec = ctx->warmup.ToSpec();
    fps.reserve(plans.size() * points);
    for (const std::string& label : labels) {
      const CellKeyer keyer(env, study_name, warmup_spec, label);
      for (size_t pt = 0; pt < points; ++pt) {
        fps.push_back(keyer.Key(space.x_value(pt), space.y_value(pt)));
      }
    }
  }
  // Every hit, looked up before any worker starts: [plan * points +
  // point], valid where `is_hit` is set. Exactly one worker visits each
  // cell and moves its hit out.
  std::vector<Measurement> hits;
  std::vector<uint8_t> is_hit;
  if (cache != nullptr) {
    hits.resize(fps.size());
    is_hit.resize(fps.size());
    for (size_t cell = 0; cell < fps.size(); ++cell) {
      is_hit[cell] = cache->Lookup(fps[cell], &hits[cell]) ? 1 : 0;
    }
  }
  // One tree per plan and machine for the whole sweep. A worker finds its
  // machine's slot by the context pointer, claiming a free one on its first
  // cell, so the loop takes no lock: slots are written only when claimed
  // (and a tree only by the one thread running that machine).
  const size_t num_slots =
      order_dependent ? 1 : ResolveParallelism(opts.num_threads);
  std::vector<MachineTrees> slots(num_slots);
  for (MachineTrees& slot : slots) slot.trees.resize(plans.size());
  const auto tree_for = [&](RunContext* run_ctx,
                            size_t plan) -> Executor::PlanTree* {
    for (MachineTrees& slot : slots) {
      RunContext* owner = slot.owner.load(std::memory_order_acquire);
      // A free slot is claimed; a lost race leaves the winner in `owner`.
      if (owner == nullptr &&
          slot.owner.compare_exchange_strong(owner, run_ctx,
                                             std::memory_order_acq_rel)) {
        owner = run_ctx;
      }
      if (owner != run_ctx) continue;
      std::optional<Executor::PlanTree>& tree = slot.trees[plan];
      if (!tree.has_value()) tree.emplace(executor.BuildTree(prepared[plan]));
      return &*tree;
    }
    return nullptr;
  };
  // Every cell is reused or measured, and only a measured one reaches the
  // measurement-side sinks (`sweep.cells_measured`, the latency histogram,
  // the io.* counters) — so a warm rerun proves "zero cells measured" from
  // telemetry. A reused cell counts under the cache.* namespace.
  const bool observing = Observing();
  const auto run_cell = [&](RunContext* run_ctx, size_t plan,
                            size_t point) -> Result<Measurement> {
    if (cache != nullptr) {
      const size_t i = plan * points + point;
      if (is_hit[i]) {
        SweepTelemetry::Get().AddCounter("cache.hits", 1);
        SweepTelemetry::Get().AddCounter("sweep.cells_reused", 1);
        return std::move(hits[i]);
      }
      SweepTelemetry::Get().AddCounter("cache.misses", 1);
    }
    Executor::PlanTree* tree = tree_for(run_ctx, plan);
    if (tree == nullptr) {
      return Status::Internal("sweep ran on more machines than its " +
                              std::to_string(num_slots) + " threads");
    }
    const CellTimer timer(observing);
    auto m = executor.Run(run_ctx, tree, queries[point]);
    if (m.ok()) timer.Observe(m.value());
    return m;
  };
  // Publishes the measured cells of a finished sweep, in cell order.
  const auto publish = [&](Result<RobustnessMap> map) -> Result<RobustnessMap> {
    if (cache == nullptr || !map.ok()) return map;
    for (size_t cell = 0; cell < fps.size(); ++cell) {
      if (is_hit[cell]) continue;
      if (cache->Publish(fps[cell], study_name,
                         map.value().At(cell / points, cell % points))) {
        SweepTelemetry::Get().AddCounter("cache.publishes", 1);
      }
    }
    return map;
  };
  if (order_dependent || ResolveParallelism(opts.num_threads) <= 1) {
    return publish(SweepEngine::RunCellsIndexed(
        space, labels,
        [&](size_t plan, size_t point) {
          return run_cell(ctx, plan, point);
        },
        opts));
  }
  RunContextFactory local_factory(*ctx);
  RunContextFactory* factory =
      shared_factory != nullptr ? shared_factory : &local_factory;
  // The prototype's warmup may have changed since the factory was built
  // (the warm-cold study flips it between halves); machines must start
  // under the policy of *this* sweep.
  factory->set_warmup(ctx->warmup);
  return publish(SweepEngine::RunCellsParallelIndexed(space, labels, *factory,
                                                      run_cell, opts));
}

/// The warm-cold study: the same plans measured twice — once cold, once
/// under `warm_policy` — plus their per-cell delta. A `kPriorRun` warm half
/// runs serially on `ctx` (StudySweep's rule for order-dependent sweeps)
/// from a cleared pool, so the warm map is reproducible run-to-run for
/// every policy. `ctx->warmup` is restored on return.
Result<std::vector<RobustnessMap>> WarmColdLayers(
    RunContext* ctx, const Executor& executor,
    const std::vector<PlanKind>& plans, const ParameterSpace& space,
    const WarmupPolicy& warm_policy, const SweepOptions& opts,
    CellResultCache* cache) {
  const WarmupPolicy saved = ctx->warmup;

  // One machine factory for both halves: the warm half's parallel workers
  // recycle the cold half's simulated machines from the factory arena
  // instead of rebuilding them (recycled machines measure bit-identically
  // to fresh ones — see OwnedRunContext::Recycle).
  RunContextFactory factory(*ctx);

  // Cold half: warmup off — the classic map, bit-identical at any thread
  // count.
  ctx->warmup = WarmupPolicy::Cold();
  // Both halves fingerprint under the study's name; the halves stay
  // distinct because each sweeps under its own warmup spec (and when the
  // warm policy *is* cold, the halves are genuinely the same cells — the
  // warm half then rides entirely on the cold half's published entries).
  auto cold = StudySweep(ctx, executor, plans, space, opts,
                         StudyKindName(StudyKind::kWarmColdDelta), cache,
                         &factory);
  if (!cold.ok()) {
    ctx->warmup = saved;
    return cold.status();
  }

  // Warm half under the requested policy. Page-set policies are
  // order-independent and stay parallel; a prior-run half runs serially
  // on `ctx`, and its starting state is pinned here: the first cell runs
  // cold, every later cell inherits from its predecessor — the same
  // history on every invocation.
  ctx->warmup = warm_policy;
  if (warm_policy.is_order_dependent()) ctx->pool->Clear();
  auto warm = StudySweep(ctx, executor, plans, space, opts,
                         StudyKindName(StudyKind::kWarmColdDelta), cache,
                         &factory);
  ctx->warmup = saved;
  if (!warm.ok()) return warm.status();

  auto delta = DiffMaps(warm.value(), cold.value());
  RM_RETURN_IF_ERROR(delta.status());
  std::vector<RobustnessMap> layers;
  layers.reserve(3);
  layers.push_back(std::move(cold).value());
  layers.push_back(std::move(warm).value());
  layers.push_back(std::move(delta).value());
  return layers;
}

/// Sharded and progressive sweeps run cells out of sweep order — in other
/// processes, or reused from a coarser level — so every cell must be a
/// pure function of its coordinates: no prior-run warmth.
Status RequireOrderIndependent(const RunContext& ctx, const SweepRequest& req,
                               const std::string& what) {
  if (ctx.warmup.is_order_dependent() ||
      (req.study == StudyKind::kWarmColdDelta &&
       req.warm_policy.is_order_dependent())) {
    return Status::InvalidArgument(
        what + " require an order-independent warmup policy; kPriorRun "
               "cells inherit the cache state of the cells run before them");
  }
  return Status::OK();
}

/// The sharded-process backend: plans the tiles (`PlanShards` — reused
/// checkpoints, adopted pieces, cache-materialized tiles, and the
/// heaviest-first queue with its straggler pieces), computes the queue on
/// worker processes (`DispatchTiles`), and stitches every tile, layer by
/// layer, into maps bit-identical to an in-process sweep of the same
/// study (every cell is an order-independent measurement, so its value
/// cannot depend on which process ran it). Each fresh tile is read back
/// from disk — the same validated path a resumed coordinator takes — and
/// stitched as soon as its worker answers, while the other workers
/// compute; after the last answer only the coverage check remains.
/// `stride` > 1 marks a progressive sweep's coarse level, whose
/// `req.space` is that sublattice of the grid exec'd workers reconstruct
/// from their flags.
Result<SweepOutcome> RunShardedStudy(RunContext* ctx,
                                     const Executor& executor,
                                     const SweepRequest& req,
                                     size_t stride = 1) {
  const ShardedSweepOptions& opts = req.sharded;
  if (opts.tile_dir.empty()) {
    return Status::InvalidArgument("sharded sweep needs a tile_dir");
  }
  RM_RETURN_IF_ERROR(RequireOrderIndependent(*ctx, req, "sharded sweeps"));
  TraceSpan coordinator_span("shard.coordinator", "shard");
  std::vector<std::string> labels;
  labels.reserve(req.plans.size());
  for (PlanKind k : req.plans) labels.push_back(PlanKindLabel(k));

  // The cache view, computed once at planning time: it discounts cached
  // cells in the cost model, skips dispatching fully-cached tiles, and
  // keys the post-merge publish of every measured cell.
  auto plan_span = std::make_unique<TraceSpan>("shard.plan", "shard");
  std::optional<ShardCacheView> cache_view;
  if (req.cell_cache != nullptr) {
    cache_view.emplace(req.cell_cache, *ctx, executor.db().domain, req,
                       labels);
  }
  const ShardCacheView* view = cache_view ? &*cache_view : nullptr;
  RM_RETURN_IF_ERROR(EnsureDirectory(opts.tile_dir));
  auto plan = PlanShards(req, labels, view);
  RM_RETURN_IF_ERROR(plan.status());
  plan_span.reset();
  std::vector<TileSpec>& todo = plan.value().todo;
  ShardedSweepStats& stats = plan.value().stats;

  // Exec-mode workers can only see the cache through its file, so
  // everything this coordinator holds must hit the disk before the first
  // worker starts; fork-mode workers inherit the in-memory cache for
  // free. A failed flush degrades reuse, never the sweep.
  if (!todo.empty() && !opts.worker_command.empty() &&
      req.cell_cache != nullptr && req.cell_cache->attached()) {
    if (Status s = req.cell_cache->WriteCellCacheFile(); !s.ok()) {
      std::fprintf(stderr, "  shard: cell cache flush: %s\n",
                   s.ToString().c_str());
    }
  }
  // The stitcher allocates the output maps at its first tile. Reused tiles
  // therefore wait for the first fresh one: by then every worker has
  // forked, so none shares (or counts in its RSS) the output's pages.
  TileStitcher stitcher(req.space, labels, StudyLayerNames(req.study));
  const auto stitch = [&](MapTile&& tile) {
    Status s = stitcher.Add(std::move(tile));
    if (s.ok()) SweepTelemetry::Get().AddCounter("shard.tiles_merged", 1);
    return s;
  };
  std::vector<MapTile>& loaded = plan.value().loaded;
  Status loaded_status;
  const auto stitch_loaded = [&] {
    for (MapTile& tile : loaded) {
      if (loaded_status.ok()) loaded_status = stitch(std::move(tile));
    }
    loaded.clear();
  };
  const auto ingest = [&](size_t idx) -> Status {
    stitch_loaded();
    const TileSpec& want = todo[idx];
    auto tile = ReadMapTileFile(opts.tile_dir + "/" +
                                TileFileName(want.shard_id));
    RM_RETURN_IF_ERROR(tile.status());
    // Shard ids and rectangles come from the plan, so a tile over any
    // other rectangle is a worker's mistake, named here rather than as an
    // overlap or gap whose grid point would depend on arrival order.
    const TileSpec& got = tile.value().spec;
    if (!(got == want)) {
      return Status::InvalidArgument(
          "tile " + std::to_string(want.shard_id) + " came back as tile " +
          std::to_string(got.shard_id) + " over " + RectSpecString(got) +
          ", not the dispatched " + RectSpecString(want));
    }
    return stitch(std::move(tile).value());
  };
  RM_RETURN_IF_ERROR(
      DispatchTiles(ctx, executor, req, todo, stride, &stats, ingest));
  stitch_loaded();
  RM_RETURN_IF_ERROR(loaded_status);
  TraceSpan merge_span("shard.merge", "shard");
  auto merged = std::move(stitcher).Finish();
  RM_RETURN_IF_ERROR(merged.status());
  // Every merged cell goes back into the cache — whatever process measured
  // it (workers publish into their own address spaces, which the parent
  // never sees). Insert-if-absent: re-publishing cells the cache already
  // holds keeps a clean cache clean.
  if (cache_view.has_value()) {
    const uint64_t published =
        cache_view->PublishLayers(merged.value(), StudyKindName(req.study));
    if (published > 0) {
      SweepTelemetry::Get().AddCounter("cache.publishes", published);
    }
  }
  SweepOutcome out;
  out.study = req.study;
  out.layers = std::move(merged).value();
  out.sharded_stats = std::move(stats);
  return out;
}

/// Nearest-neighbor upsample of one coarse-lattice layer onto the full
/// grid: every full-grid cell shows the measurement of its nearest lattice
/// point (ties round down). Snapshot presentation only — refined levels
/// overwrite it with real measurements.
RobustnessMap UpsampleNearest(const RobustnessMap& coarse,
                              const ParameterSpace& full, size_t stride) {
  const ParameterSpace& lattice = coarse.space();
  RobustnessMap out(full, coarse.plan_labels());
  for (size_t plan = 0; plan < coarse.num_plans(); ++plan) {
    for (size_t yi = 0; yi < full.y_size(); ++yi) {
      const size_t lyi =
          full.is_2d()
              ? std::min((yi + stride / 2) / stride, lattice.y_size() - 1)
              : 0;
      for (size_t xi = 0; xi < full.x_size(); ++xi) {
        const size_t lxi =
            std::min((xi + stride / 2) / stride, lattice.x_size() - 1);
        out.Set(plan, full.IndexOf(xi, yi), coarse.AtXY(plan, lxi, lyi));
      }
    }
  }
  return out;
}

/// The coarse-to-fine driver: one ordinary sweep per refinement level,
/// coarsest lattice first, all levels sharing one cell cache so a cell is
/// measured the first time some level's lattice lands on it and reused by
/// every later level. The final level sweeps the full grid, so its layers
/// are byte-identical to a direct sweep's — earlier levels only changed
/// *when* cells were measured, never what.
Result<SweepOutcome> RunProgressive(RunContext* ctx, const Executor& executor,
                                    const SweepRequest& req) {
  RM_RETURN_IF_ERROR(
      RequireOrderIndependent(*ctx, req, "progressive sweeps"));
  // Reuse across levels needs a cache; when the caller brought none, a
  // sweep-lifetime in-memory one serves.
  CellResultCache local_cache;
  CellResultCache* cache =
      req.cell_cache != nullptr ? req.cell_cache : &local_cache;

  const bool observing = Observing();
  const int64_t start_ns = observing ? MonotonicNowNs() : 0;
  bool first_snapshot_pending = true;

  std::vector<size_t> strides;
  for (size_t s = req.progressive.initial_stride; s > 1; s /= 2) {
    strides.push_back(s);
  }
  strides.push_back(1);

  Result<SweepOutcome> out =
      Status::Internal("progressive sweep ran no levels");
  for (size_t stride : strides) {
    SweepRequest level = req;
    level.progressive = ProgressiveOptions{};
    level.cell_cache = cache;
    level.space = SubsampleSpace(req.space, stride);
    if (req.backend == BackendKind::kShardedProcess && stride > 1) {
      // Coarse-level checkpoints live one subdirectory per level, so each
      // level's resume scan sees only its own lattice's tiles; the final
      // level writes into the caller's tile_dir exactly as a direct
      // sharded sweep would.
      level.sharded.tile_dir =
          req.sharded.tile_dir + "/level_" + std::to_string(stride);
    }
    out = req.backend == BackendKind::kShardedProcess
              ? RunShardedStudy(ctx, executor, level, stride)
              : SweepEngine::Run(ctx, executor, level);
    RM_RETURN_IF_ERROR(out.status());
    SweepTelemetry::Get().AddCounter("sweep.progressive_levels", 1);
    if (req.progressive.on_snapshot) {
      if (stride == 1) {
        req.progressive.on_snapshot(1, out.value().layers);
      } else {
        std::vector<RobustnessMap> filled;
        filled.reserve(out.value().layers.size());
        for (const RobustnessMap& layer : out.value().layers) {
          filled.push_back(UpsampleNearest(layer, req.space, stride));
        }
        req.progressive.on_snapshot(stride, filled);
      }
    }
    if (observing && first_snapshot_pending) {
      first_snapshot_pending = false;
      SweepTelemetry::Get().RecordLatency(
          "sweep.seconds_to_first_snapshot",
          static_cast<double>(MonotonicNowNs() - start_ns) * 1e-9);
    }
  }
  return out;
}

}  // namespace

Result<StudyKind> StudyKindFromString(const std::string& name) {
  if (name == "plain") return StudyKind::kPlainMap;
  if (name == "warmcold") return StudyKind::kWarmColdDelta;
  return Status::InvalidArgument("unknown study '" + name +
                                 "' (want plain or warmcold)");
}

const char* StudyKindName(StudyKind kind) {
  switch (kind) {
    case StudyKind::kPlainMap:
      return "plain";
    case StudyKind::kWarmColdDelta:
      return "warmcold";
  }
  return "?";
}

size_t StudyLayerCount(StudyKind kind) {
  return kind == StudyKind::kWarmColdDelta ? 3 : 1;
}

std::vector<std::string> StudyLayerNames(StudyKind kind) {
  switch (kind) {
    case StudyKind::kPlainMap:
      return {};  // one unnamed layer
    case StudyKind::kWarmColdDelta:
      return {"cold", "warm", "delta"};
  }
  return {};
}

Result<RobustnessMap> SweepEngine::RunCellsIndexed(
    const ParameterSpace& space, const std::vector<std::string>& plan_labels,
    const IndexedPointRunner& runner, const SweepOptions& opts) {
  RM_RETURN_IF_ERROR(ValidateSweepInputs(space, plan_labels));
  TraceSpan sweep_span("sweep.run_cells");
  RobustnessMap map(space, plan_labels);
  ProgressTracker tracker(opts.verbose, plan_labels.size(),
                          space.num_points());
  for (size_t plan = 0; plan < plan_labels.size(); ++plan) {
    for (size_t point = 0; point < space.num_points(); ++point) {
      auto m = runner(plan, point);
      RM_RETURN_IF_ERROR(m.status());
      map.Set(plan, point, std::move(m).value());
      tracker.CellDone(plan);
    }
  }
  return map;
}

Result<RobustnessMap> SweepEngine::RunCellsParallelIndexed(
    const ParameterSpace& space, const std::vector<std::string>& plan_labels,
    const RunContextFactory& factory, const IndexedContextPointRunner& runner,
    const SweepOptions& opts) {
  RM_RETURN_IF_ERROR(ValidateSweepInputs(space, plan_labels));
  const unsigned num_threads = ResolveParallelism(opts.num_threads);
  const size_t points = space.num_points();
  const size_t cells = plan_labels.size() * points;
  RobustnessMap map(space, plan_labels);
  ProgressTracker tracker(opts.verbose, plan_labels.size(), points);

  // Work units are *cost-weighted cell blocks*: contiguous runs of the
  // serial (plan-major) cell order, cut so each block carries roughly equal
  // analytic cost. Cheap low-selectivity cells batch by the dozen (fewer
  // atomic claims), while the expensive corner degrades to single-cell
  // blocks (no worker is ever stuck behind a mega-block at the tail).
  // Map writes stay keyed by (plan, point), so the result is bit-identical
  // to a serial sweep whatever the block shapes.
  std::vector<double> point_cost(points, 1.0);
  if (auto model = CellCostModel::Analytic(space); model.ok()) {
    for (size_t pt = 0; pt < points; ++pt) {
      const auto [xi, yi] = space.CoordsOf(pt);
      point_cost[pt] = model.value().CellCost(xi, yi);
    }
  }
  double total_cost = 0;
  for (double c : point_cost) total_cost += c;
  total_cost *= static_cast<double>(plan_labels.size());
  // ~16 blocks per worker bounds both the claim rate and the tail: the last
  // block to finish holds at most 1/16th of one worker's fair share.
  const double per_block =
      total_cost / static_cast<double>(std::max<size_t>(
                       size_t{num_threads} * 16, 1));
  std::vector<size_t> block_begin;
  block_begin.push_back(0);
  double acc = 0;
  for (size_t cell = 0; cell < cells; ++cell) {
    acc += point_cost[cell % points];
    if (acc >= per_block && cell + 1 < cells) {
      block_begin.push_back(cell + 1);
      acc = 0;
    }
  }
  block_begin.push_back(cells);
  const size_t num_blocks = block_begin.size() - 1;

  if (opts.verbose) {
    std::fprintf(stderr,
                 "  sweep: %zu cells (%zu plans) in %zu cost-weighted "
                 "blocks on %u thread(s)\n",
                 cells, plan_labels.size(), num_blocks, num_threads);
  }

  // Blocks are claimed from a shared queue. On failure, workers skip cells
  // above the lowest failing cell seen so far; every cell below it is in
  // some block that runs to completion, so the error we return is exactly
  // the one a serial sweep would have hit first.
  std::atomic<size_t> next_block{0};
  std::atomic<size_t> first_failed_cell{cells};
  // The Status itself lives under a capability (atomics carry the cell
  // index; the Status payload cannot be atomic), so a worker publishing a
  // lower failing cell and a worker reading the final error are ordered.
  struct ErrorState {
    Mutex mu;
    Status first_error GUARDED_BY(mu) = Status::OK();
  } err;

  auto record_error = [&](size_t cell, const Status& s) {
    MutexLock lock(&err.mu);
    size_t prev = first_failed_cell.load(std::memory_order_relaxed);
    if (cell < prev) {
      first_failed_cell.store(cell, std::memory_order_relaxed);
      err.first_error = s;
    }
  };

  auto work = [&] {
    TraceSpan worker_span("sweep.worker");
    std::unique_ptr<OwnedRunContext> machine = factory.Acquire();
    for (;;) {
      const size_t block = next_block.fetch_add(1, std::memory_order_relaxed);
      if (block >= num_blocks) break;
      SweepTelemetry::Get().AddCounter("sweep.blocks_claimed", 1);
      for (size_t cell = block_begin[block]; cell < block_begin[block + 1];
           ++cell) {
        if (cell > first_failed_cell.load(std::memory_order_relaxed)) {
          continue;
        }
        const size_t plan = cell / points;
        const size_t point = cell % points;
        auto m = runner(machine->ctx(), plan, point);
        if (!m.ok()) {
          record_error(cell, m.status());
          continue;
        }
        map.Set(plan, point, std::move(m).value());
        tracker.CellDone(plan);
      }
    }
    factory.Release(std::move(machine));
  };

  if (num_threads <= 1) {
    work();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) workers.emplace_back(work);
    for (std::thread& t : workers) t.join();
  }

  if (first_failed_cell.load(std::memory_order_relaxed) < cells) {
    MutexLock lock(&err.mu);
    return err.first_error;
  }
  return map;
}

Result<SweepOutcome> SweepEngine::Run(RunContext* ctx,
                                      const Executor& executor,
                                      const SweepRequest& req) {
  if (req.progressive.enabled()) {
    return RunProgressive(ctx, executor, req);
  }
  if (req.backend == BackendKind::kShardedProcess) {
    return RunShardedStudy(ctx, executor, req);
  }
  SweepOptions opts = req.sweep;
  if (req.backend == BackendKind::kSerial) opts.num_threads = 1;
  SweepOutcome out;
  out.study = req.study;
  switch (req.study) {
    case StudyKind::kPlainMap: {
      auto map = StudySweep(ctx, executor, req.plans, req.space, opts,
                            StudyKindName(req.study), req.cell_cache);
      RM_RETURN_IF_ERROR(map.status());
      out.layers.push_back(std::move(map).value());
      return out;
    }
    case StudyKind::kWarmColdDelta: {
      auto layers = WarmColdLayers(ctx, executor, req.plans, req.space,
                                   req.warm_policy, opts, req.cell_cache);
      RM_RETURN_IF_ERROR(layers.status());
      out.layers = std::move(layers).value();
      return out;
    }
  }
  return Status::InvalidArgument("unknown study kind");
}

}  // namespace robustmap
