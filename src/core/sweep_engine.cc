#include "core/sweep_engine.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/mutex.h"
#include "common/trace.h"
#include "core/cell_cache.h"
#include "core/map_io.h"
#include "core/sharded_sweep.h"
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

/// Sidecar-only per-cell accounting shared by every in-process cell loop:
/// the cell latency histogram plus the simulated-I/O counters of the
/// measurement. Reads the Measurement, never writes it — no map byte may
/// depend on anything recorded here.
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

/// Set by a cache-consulting runner when the cell it just returned came
/// from the cell-result cache rather than a measurement; consumed (and
/// reset) by the cell loop that invoked it. A reused cell must leave every
/// measurement-side observability untouched — `sweep.cells_measured`, the
/// cell-latency histogram, the io.* counters, the pool-view tallies — or a
/// warm rerun could not prove "zero cells measured" from telemetry.
/// thread_local because parallel workers run interleaved.
thread_local bool tl_cell_from_cache = false;

/// RAII cell stopwatch shared by every cell loop: reads the wall clock at
/// construction only when some sink is observing (an uninstrumented sweep
/// never touches it), and `Observe` folds the finished cell into the
/// telemetry. One helper instead of a timing boilerplate copy per loop;
/// like everything observability, it reads the Measurement and never
/// writes it.
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

/// Per-view buffer-pool tallies for one sweep worker. `ColdStart` zeroes
/// the pool statistics before each measurement, so reading them right
/// after a cell yields that cell's counts; the worker accumulates across
/// its cells and publishes once at exit under its view's name.
class PoolViewObserver {
 public:
  PoolViewObserver(const BufferPool* pool, unsigned view_index)
      : pool_(pool), view_index_(view_index) {}

  ~PoolViewObserver() {
    SweepTelemetry& t = SweepTelemetry::Get();
    if (!t.enabled() || pool_ == nullptr) return;
    char view[32];
    std::snprintf(view, sizeof(view), "pool.view_%03u", view_index_);
    t.AddCounter(std::string(view) + ".hits", hits_);
    t.AddCounter(std::string(view) + ".misses", misses_);
  }

  void CellDone() {
    if (pool_ == nullptr) return;
    hits_ += pool_->hits();
    misses_ += pool_->misses();
  }

 private:
  const BufferPool* pool_;
  const unsigned view_index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// The verbose-mode progress printer: one stderr line per completed plan
/// and per 10% step — readable for both quick smokes and hour-long studies.
SweepProgressFn MakeDefaultPrinter() {
  auto last_decile = std::make_shared<int>(-1);
  auto last_plans = std::make_shared<size_t>(0);
  return [last_decile, last_plans](const SweepProgress& p) {
    const int decile = static_cast<int>(p.percent() / 10.0);
    const bool plan_step = p.plans_done != *last_plans;
    if (decile == *last_decile && !plan_step && p.cells_done != p.cells_total) {
      return;
    }
    *last_decile = decile;
    *last_plans = p.plans_done;
    std::fprintf(stderr, "  sweep: %5.1f%% (%zu/%zu cells, %zu/%zu plans)\n",
                 p.percent(), p.cells_done, p.cells_total, p.plans_done,
                 p.num_plans);
  };
}

/// Serializes progress callbacks and maintains the cumulative counts for
/// both the serial and the parallel cell loop. All updates happen under one
/// mutex, so the callback observes cells_done = 1, 2, ..., total in order.
class ProgressTracker {
 public:
  ProgressTracker(const SweepOptions& opts, size_t num_plans, size_t points)
      : points_(points), per_plan_done_(num_plans, 0) {
    progress_.num_plans = num_plans;
    progress_.cells_total = num_plans * points;
    if (opts.progress) {
      fn_ = opts.progress;
    } else if (opts.verbose) {
      fn_ = MakeDefaultPrinter();
    }
  }

  void CellDone(size_t plan) {
    if (!fn_) return;
    MutexLock lock(&mu_);
    ++progress_.cells_done;
    if (++per_plan_done_[plan] == points_) ++progress_.plans_done;
    fn_(progress_);
  }

 private:
  // points_ and fn_ are immutable after construction, so workers may read
  // them without the capability; the cumulative counts are the shared
  // mutable state and live under mu_.
  const size_t points_;
  SweepProgressFn fn_;
  Mutex mu_;
  SweepProgress progress_ GUARDED_BY(mu_);
  std::vector<size_t> per_plan_done_ GUARDED_BY(mu_);
};

/// The paper's standard study sweep under one in-process backend choice:
/// axes are predicate selectivities, plans are `PlanKind`s executed under
/// `ctx`'s warmup policy. The serial path measures on `ctx` itself; a
/// shared pool needs the factory to attach worker views, and the
/// round-robin schedule reorders cells, so both always take the parallel
/// path (which degrades to in-caller-thread execution at one worker).
///
/// Everything a cell does not depend on is paid once per sweep, not once
/// per cell: plans are validated and their labels materialized through
/// `Executor::Prepare`, and every grid point's query — selectivity math,
/// predicate binding — is bound up front, so the inner loop is a table
/// lookup plus the measurement itself. A caller running several sweeps
/// against the same prototype (the warm-cold study) may pass
/// `shared_factory` so the parallel loop recycles its simulated machines
/// across sweeps; the factory must have been built from `ctx` and is only
/// used when the sweep does not need a differently-configured (shared-pool)
/// one.
///
/// With a `cache`, each cell consults it first — a hit returns the stored
/// measurement without touching the executor, a miss measures and
/// publishes back — keyed under `study_name` and the sweep's own
/// `ctx->warmup`. Only the calling thread touches the cache: every hit is
/// looked up before the cell loop starts, and the new measurements are
/// published after it ends (a failing sweep publishes none). Workers then
/// never take a cache lock or write a cache line, so a parallel sweep's
/// cost does not hinge on how its threads meet there. Order-dependent
/// configurations bypass the cache: their cell values depend on execution
/// history, which a content fingerprint cannot capture.
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
  if (cache != nullptr &&
      (ctx->warmup.is_order_dependent() || opts.shared_pool != nullptr ||
       opts.deterministic_shared_schedule)) {
    cache = nullptr;
  }
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
  // A hit marks the cell reused (the loops keep it out of every
  // measurement-side sink) and counts under the cache.* namespace.
  const auto lookup = [&](size_t plan, size_t point,
                          Measurement* out) -> bool {
    if (cache == nullptr) return false;
    const size_t cell = plan * points + point;
    if (!is_hit[cell]) {
      SweepTelemetry::Get().AddCounter("cache.misses", 1);
      return false;
    }
    *out = std::move(hits[cell]);
    SweepTelemetry::Get().AddCounter("cache.hits", 1);
    SweepTelemetry::Get().AddCounter("sweep.cells_reused", 1);
    tl_cell_from_cache = true;
    return true;
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
  if (ResolveParallelism(opts.num_threads) <= 1 &&
      opts.shared_pool == nullptr && !opts.deterministic_shared_schedule) {
    PoolViewObserver pool_view(ctx->pool, 0);
    return publish(SweepEngine::RunCellsIndexed(
        space, labels,
        [&](size_t plan, size_t point) -> Result<Measurement> {
          Measurement hit;
          if (lookup(plan, point, &hit)) return hit;
          auto m = executor.Run(ctx, prepared[plan], queries[point]);
          if (m.ok()) pool_view.CellDone();
          return m;
        },
        opts));
  }
  RunContextFactory local_factory(*ctx);
  RunContextFactory* factory =
      (shared_factory != nullptr && opts.shared_pool == nullptr)
          ? shared_factory
          : &local_factory;
  if (opts.shared_pool != nullptr) {
    local_factory.ShareBufferPool(opts.shared_pool);
  }
  // The prototype's warmup may have changed since the factory was built
  // (the warm-cold study flips it between halves); machines must start
  // under the policy of *this* sweep.
  factory->set_warmup(ctx->warmup);
  return publish(SweepEngine::RunCellsParallelIndexed(
      space, labels, *factory,
      [&](RunContext* worker_ctx, size_t plan,
          size_t point) -> Result<Measurement> {
        Measurement hit;
        if (lookup(plan, point, &hit)) return hit;
        return executor.Run(worker_ctx, prepared[plan], queries[point]);
      },
      opts));
}

/// The warm-cold study: the same plans measured twice — once cold, once
/// under `warm_policy` — plus their per-cell delta. The cold sweep always
/// uses private per-worker pools (cold cells must be independent); the
/// warm sweep honors `opts.shared_pool`. The warm half is forced serial
/// when cache state is execution-order-dependent — a `kPriorRun` policy,
/// or any policy over a shared pool (each cell's ColdStart mutates the one
/// shared cache) — so the warm map is reproducible run-to-run for every
/// policy. `ctx->warmup` is restored on return.
Result<std::vector<RobustnessMap>> WarmColdLayers(
    RunContext* ctx, const Executor& executor,
    const std::vector<PlanKind>& plans, const ParameterSpace& space,
    const WarmupPolicy& warm_policy, const SweepOptions& opts,
    CellResultCache* cache) {
  const WarmupPolicy saved = ctx->warmup;

  // One machine factory for both halves: the warm half's parallel workers
  // recycle the cold half's simulated machines from the factory arena
  // instead of rebuilding them (recycled machines measure bit-identically
  // to fresh ones — see OwnedRunContext::Recycle). A shared-pool warm half
  // builds its own differently-wired factory inside StudySweep and simply
  // ignores this one.
  RunContextFactory factory(*ctx);

  // Cold half: warmup off, private per-worker pools — the classic map,
  // bit-identical at any thread count.
  ctx->warmup = WarmupPolicy::Cold();
  SweepOptions cold_opts = opts;
  cold_opts.shared_pool = nullptr;
  // Both halves fingerprint under the study's name; the halves stay
  // distinct because each sweeps under its own warmup spec (and when the
  // warm policy *is* cold, the halves are genuinely the same cells — the
  // warm half then rides entirely on the cold half's published entries).
  auto cold = StudySweep(ctx, executor, plans, space, cold_opts,
                         StudyKindName(StudyKind::kWarmColdDelta), cache,
                         &factory);
  if (!cold.ok()) {
    ctx->warmup = saved;
    return cold.status();
  }

  // Warm half under the requested policy. Two situations make warmth a
  // product of execution order, and both run serially so that order — and
  // with it the warm map — is the same on every invocation: prior-run
  // cells inherit their predecessor's cache, and a shared pool is mutated
  // by every cell's ColdStart (parallel workers would clear and re-warm
  // the one cache out from under each other's in-flight measurements).
  // Page-set policies on private per-worker pools are order-independent
  // and stay parallel.
  ctx->warmup = warm_policy;
  SweepOptions warm_opts = opts;
  if (warm_policy.is_order_dependent() || warm_opts.shared_pool != nullptr) {
    warm_opts.num_threads = 1;
  }
  if (warm_policy.is_order_dependent()) {
    // Prior-run cells inherit pool state, so pin the sweep's starting
    // state: the first cell runs cold, every later cell inherits from its
    // predecessor — the same history on every invocation.
    ctx->pool->Clear();
    if (warm_opts.shared_pool != nullptr) warm_opts.shared_pool->Clear();
  }
  auto warm = StudySweep(ctx, executor, plans, space, warm_opts,
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

Result<std::string> ReadErrFile(const std::string& tile_path) {
  std::ifstream f(TileErrFileName(tile_path));
  if (!f.is_open()) return Status::NotFound("no error file");
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// A checkpoint is reusable only if it parses, its checksum holds, and it
/// describes exactly the tile the current plan expects — same rectangle,
/// same parent grid, same plans, same study layers. Anything else (a tile
/// from an older configuration, a plain tile in a warm-cold directory, a
/// damaged file) must be recomputed. A tile the measured cost-model scan
/// already read and validated is taken from `preloaded` instead of reading
/// (and checksumming) the file a second time.
Result<MapTile> LoadValidTile(std::map<std::string, MapTile>* preloaded,
                              const std::string& path,
                              const TileSpec& expected,
                              const ParameterSpace& space,
                              const std::vector<std::string>& labels,
                              StudyKind study) {
  auto tile = [&]() -> Result<MapTile> {
    if (auto it = preloaded->find(path); it != preloaded->end()) {
      Result<MapTile> found(std::move(it->second));
      preloaded->erase(it);
      return found;
    }
    return ReadMapTileFile(path);
  }();
  RM_RETURN_IF_ERROR(tile.status());
  const MapTile& t = tile.value();
  if (!(t.spec == expected) || !(t.parent_space == space) ||
      t.map.plan_labels() != labels) {
    return Status::InvalidArgument(
        path + " describes a different tile, grid, or plan set");
  }
  if (t.num_layers() != StudyLayerCount(study) ||
      t.layer_names != StudyLayerNames(study)) {
    return Status::InvalidArgument(
        path + " carries a different study's layers");
  }
  return tile;
}

/// The `.rmt` files in `dir`, sorted by name. readdir order is
/// filesystem-dependent; every decision made from a directory scan
/// (synthetic shard ids, coverage adoption below) must come from the
/// sorted list so a given directory state always produces the same plan.
std::vector<std::string> SortedTileFiles(const std::string& dir_path) {
  std::vector<std::string> names;
  if (DIR* dir = ::opendir(dir_path.c_str()); dir != nullptr) {
    while (const dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name.size() > 4 && name.rfind(".rmt") == name.size() - 4) {
        names.push_back(name);
      }
    }
    ::closedir(dir);
    std::sort(names.begin(), names.end());
  }
  return names;
}

/// True when `inner`'s (non-empty) rectangle lies entirely inside
/// `outer`'s. Shard ids play no part: a cell's value is a deterministic
/// function of (space, plans, study), so *any* valid tile covering the
/// right cells carries the right bytes whatever id computed it.
bool RectContains(const TileSpec& outer, const TileSpec& inner) {
  return inner.num_points() > 0 && inner.x_begin >= outer.x_begin &&
         inner.x_end <= outer.x_end && inner.y_begin >= outer.y_begin &&
         inner.y_end <= outer.y_end;
}

/// Appends `outer` minus `inner` (which must nest inside `outer`) as up to
/// four disjoint rectangles — the guillotine cut: full-height left and
/// right strips, then the bottom and top slabs of the middle column. The
/// pieces' shard ids are left for the caller to assign.
void SubtractRect(const TileSpec& outer, const TileSpec& inner,
                  std::vector<TileSpec>* out) {
  auto push = [out](size_t x0, size_t x1, size_t y0, size_t y1) {
    if (x0 >= x1 || y0 >= y1) return;
    TileSpec piece;
    piece.x_begin = x0;
    piece.x_end = x1;
    piece.y_begin = y0;
    piece.y_end = y1;
    out->push_back(piece);
  };
  push(outer.x_begin, inner.x_begin, outer.y_begin, outer.y_end);
  push(inner.x_end, outer.x_end, outer.y_begin, outer.y_end);
  push(inner.x_begin, inner.x_end, outer.y_begin, inner.y_begin);
  push(inner.x_begin, inner.x_end, inner.y_end, outer.y_end);
}

/// Cuts `t` in two at its cost midpoint along the longer axis: the cut
/// lands at the first slice boundary where the accumulated cost reaches
/// half the tile's, clamped so both halves are non-empty. `t` must span
/// more than one point. Purely a function of (tile, model) — the
/// determinism of straggler splitting rests on this.
std::pair<TileSpec, TileSpec> SplitTileAtCostMidpoint(
    const TileSpec& t, const CellCostModel& model) {
  const bool cut_x = t.x_size() >= t.y_size() ? t.x_size() > 1 : false;
  const size_t begin = cut_x ? t.x_begin : t.y_begin;
  const size_t end = cut_x ? t.x_end : t.y_end;
  const double total = model.TileCost(t);
  size_t cut = end - 1;
  double acc = 0;
  for (size_t i = begin; i < end; ++i) {
    TileSpec slice = t;
    if (cut_x) {
      slice.x_begin = i;
      slice.x_end = i + 1;
    } else {
      slice.y_begin = i;
      slice.y_end = i + 1;
    }
    acc += model.TileCost(slice);
    if (acc * 2 >= total) {
      cut = i + 1;
      break;
    }
  }
  cut = std::max(begin + 1, std::min(cut, end - 1));
  TileSpec a = t;
  TileSpec b = t;
  if (cut_x) {
    a.x_end = cut;
    b.x_begin = cut;
  } else {
    a.y_end = cut;
    b.y_begin = cut;
  }
  return {a, b};
}

/// The sharded coordinator's planning-time view of the cell cache: the
/// fingerprint of every (stored layer, plan, point) of the study. Stored
/// layers are what tiles persist directly from measurements — the plain
/// map's one sweep, or the warm-cold study's cold and warm halves; the
/// delta layer is derived at merge time and never cached.
class ShardCacheView {
 public:
  ShardCacheView(CellResultCache* cache, const RunContext& ctx,
                 int64_t domain, const SweepRequest& req,
                 const std::vector<std::string>& labels)
      : cache_(cache), space_(req.space), num_plans_(labels.size()) {
    const uint64_t env = EnvironmentFingerprint(ctx, domain);
    const char* study = StudyKindName(req.study);
    specs_ = req.study == StudyKind::kWarmColdDelta
                 ? std::vector<std::string>{WarmupPolicy::Cold().ToSpec(),
                                            req.warm_policy.ToSpec()}
                 : std::vector<std::string>{ctx.warmup.ToSpec()};
    fps_.reserve(specs_.size() * num_plans_ * space_.num_points());
    for (const std::string& spec : specs_) {
      for (const std::string& label : labels) {
        const CellKeyer keyer(env, study, spec, label);
        for (size_t pt = 0; pt < space_.num_points(); ++pt) {
          fps_.push_back(keyer.Key(space_.x_value(pt), space_.y_value(pt)));
        }
      }
    }
  }

  size_t num_layers() const { return specs_.size(); }
  CellResultCache* cache() const { return cache_; }

  uint64_t fp(size_t layer, size_t plan, size_t pt) const {
    return fps_[(layer * num_plans_ + plan) * space_.num_points() + pt];
  }

  /// True when every stored layer of every plan is cached at `pt`.
  bool PointCached(size_t pt) const {
    for (size_t layer = 0; layer < specs_.size(); ++layer) {
      for (size_t plan = 0; plan < num_plans_; ++plan) {
        if (!cache_->Contains(fp(layer, plan, pt))) return false;
      }
    }
    return true;
  }

  /// Row-major per-point flags for `CellCostModel::WithDiscountedCells`.
  std::vector<uint8_t> CachedFlags() const {
    std::vector<uint8_t> flags(space_.num_points());
    for (size_t pt = 0; pt < flags.size(); ++pt) {
      flags[pt] = PointCached(pt) ? 1 : 0;
    }
    return flags;
  }

  static bool TileCached(const TileSpec& t, const ParameterSpace& space,
                         const std::vector<uint8_t>& flags) {
    for (size_t yi = t.y_begin; yi < t.y_end; ++yi) {
      for (size_t xi = t.x_begin; xi < t.x_end; ++xi) {
        if (!flags[space.IndexOf(xi, yi)]) return false;
      }
    }
    return t.num_points() > 0;
  }

 private:
  CellResultCache* cache_;
  const ParameterSpace& space_;
  const size_t num_plans_;
  std::vector<std::string> specs_;  ///< warmup spec per stored layer
  std::vector<uint64_t> fps_;       ///< [layer][plan][point], row-major
};

/// Builds the tile a worker would have computed for a fully-cached
/// rectangle straight from the cache: per-layer cell copies, the derived
/// delta for a warm-cold study, wall_seconds 0 (nothing was measured —
/// the same stamp merged artifacts carry). Byte-equivalence holds because
/// hits return the exact Measurement a fresh run would have produced.
Result<MapTile> MaterializeCachedTile(const ShardCacheView& view,
                                      const SweepRequest& req,
                                      const std::vector<std::string>& labels,
                                      const TileSpec& t) {
  auto sub = SliceSpace(req.space, t);
  RM_RETURN_IF_ERROR(sub.status());
  std::vector<RobustnessMap> layers;
  for (size_t layer = 0; layer < view.num_layers(); ++layer) {
    RobustnessMap map(sub.value(), labels);
    for (size_t plan = 0; plan < labels.size(); ++plan) {
      for (size_t syi = 0; syi < sub.value().y_size(); ++syi) {
        for (size_t sxi = 0; sxi < sub.value().x_size(); ++sxi) {
          const size_t parent_pt =
              req.space.IndexOf(t.x_begin + sxi, t.y_begin + syi);
          Measurement m;
          if (!view.cache()->Lookup(view.fp(layer, plan, parent_pt), &m)) {
            return Status::Internal(
                "cell vanished from the cache while planning tile " +
                std::to_string(t.shard_id));
          }
          map.Set(plan, sub.value().IndexOf(sxi, syi), std::move(m));
        }
      }
    }
    layers.push_back(std::move(map));
  }
  if (req.study == StudyKind::kWarmColdDelta) {
    auto delta = DiffMaps(layers[1], layers[0]);
    RM_RETURN_IF_ERROR(delta.status());
    layers.push_back(std::move(delta).value());
  }
  MapTile out{t, req.space, std::move(layers.front()), 0.0};
  out.layer_names = StudyLayerNames(req.study);
  out.extra_layers.assign(std::make_move_iterator(layers.begin() + 1),
                          std::make_move_iterator(layers.end()));
  return out;
}

/// The worker processes of one sharded sweep, one per lane; a lane is the
/// unit `worker_busy_seconds` reports. Every worker, forked or exec'd,
/// runs `ServeTiles`: it reads tile requests from its command pipe and
/// answers each with one byte on its result pipe, so the coordinator
/// blocks in poll() on the result pipes, and EOF on one means that
/// worker is gone.
///
/// The destructor cleans up on every exit path. It closes the command
/// pipes, so an idle worker sees EOF and exits, and a busy one exits
/// after its current tile. Then it reaps each lane's known pid — never
/// waitpid(-1), which would steal the exit status of an embedding
/// application's own children.
class WorkerLanes {
 public:
  static constexpr size_t kIdle = static_cast<size_t>(-1);
  struct Lane {
    pid_t pid = -1;          ///< -1: no live process
    int cmd_fd = -1;         ///< command pipe, write end
    int result_fd = -1;      ///< result pipe, read end
    size_t tile = kIdle;     ///< todo index in flight
    int64_t started_ns = 0;  ///< dispatch time of `tile`
  };

  explicit WorkerLanes(size_t n) : lanes_(n) {}
  WorkerLanes(const WorkerLanes&) = delete;
  WorkerLanes& operator=(const WorkerLanes&) = delete;
  ~WorkerLanes() {
    for (size_t i = 0; i < lanes_.size(); ++i) CloseCommand(i);
    for (size_t i = 0; i < lanes_.size(); ++i) (void)Reap(i);
  }

  Lane& operator[](size_t i) { return lanes_[i]; }
  size_t size() const { return lanes_.size(); }

  /// Closes a lane's command pipe: its worker exits once idle.
  void CloseCommand(size_t i) {
    if (lanes_[i].cmd_fd >= 0) ::close(lanes_[i].cmd_fd);
    lanes_[i].cmd_fd = -1;
  }

  /// Waits for a lane's process to exit and closes its result pipe. The
  /// lane is empty afterwards even when waitpid fails.
  Status Reap(size_t i) {
    Lane& lane = lanes_[i];
    pid_t r = 0;
    if (lane.pid > 0) {
      do {
        r = ::waitpid(lane.pid, nullptr, 0);
      } while (r < 0 && errno == EINTR);
    }
    const int err = errno;
    if (lane.result_fd >= 0) ::close(lane.result_fd);
    lane.pid = -1;
    lane.result_fd = -1;
    if (r < 0) return Status::Internal("waitpid failed: " + ErrnoString(err));
    return Status::OK();
  }

  /// For a freshly forked worker: closes every coordinator-side pipe end
  /// it inherited. A worker still holding another worker's command write
  /// end (or its own) would keep that pipe from ever reaching EOF.
  void CloseCoordinatorEnds() {
    for (Lane& lane : lanes_) {
      if (lane.cmd_fd >= 0) ::close(lane.cmd_fd);
      if (lane.result_fd >= 0) ::close(lane.result_fd);
    }
  }

 private:
  std::vector<Lane> lanes_;
};

/// The sharded-process backend: partitions the grid with `ShardPlanner`
/// under the request's cost model, skips tiles already valid on disk
/// (unless resume is off), computes the rest through a pull-based work
/// queue — up to num_workers worker lanes, each freed lane immediately
/// pulling the heaviest pending tile — and merges the
/// tile files layer by layer into maps bit-identical to an in-process
/// sweep of the same study (every cell is an order-independent
/// measurement, so its value cannot depend on which process ran it).
Result<SweepOutcome> RunShardedStudy(RunContext* ctx,
                                     const Executor& executor,
                                     const SweepRequest& req) {
  const ShardedSweepOptions& opts = req.sharded;
  const ParameterSpace& space = req.space;
  if (opts.tile_dir.empty()) {
    return Status::InvalidArgument("sharded sweep needs a tile_dir");
  }
  if (ctx->warmup.is_order_dependent() ||
      (req.study == StudyKind::kWarmColdDelta &&
       req.warm_policy.is_order_dependent())) {
    return Status::InvalidArgument(
        "sharded sweeps require an order-independent warmup policy; "
        "kPriorRun cells inherit cache state across the tile boundaries "
        "sharding erases");
  }
  if (req.sweep.shared_pool != nullptr ||
      req.sweep.deterministic_shared_schedule) {
    return Status::InvalidArgument(
        "sharded sweeps cannot share one buffer pool across processes; "
        "shared-pool (and deterministic-schedule) studies are in-process "
        "serial features");
  }
  const unsigned num_workers = ResolveParallelism(opts.num_workers);
  const size_t num_tiles =
      opts.num_tiles == 0 ? num_workers : opts.num_tiles;
  TraceSpan coordinator_span("shard.coordinator", "shard");
  std::unique_ptr<TraceSpan> phase_span =
      std::make_unique<TraceSpan>("shard.plan", "shard");

  std::vector<std::string> labels;
  labels.reserve(req.plans.size());
  for (PlanKind k : req.plans) labels.push_back(PlanKindLabel(k));

  // The cache view, computed once at planning time: it discounts cached
  // cells in the cost model below, skips dispatching fully-cached tiles,
  // and keys the post-merge publish of every measured cell.
  std::optional<ShardCacheView> cache_view;
  std::vector<uint8_t> cached_flags;
  if (req.cell_cache != nullptr) {
    cache_view.emplace(req.cell_cache, *ctx, executor.db().domain, req,
                       labels);
    cached_flags = cache_view->CachedFlags();
  }
  // The scheduling model. Measured mode scans the checkpoint directory
  // *before* anything is recomputed, so the partition reflects what the
  // previous run's tiles actually cost; with no usable timings it degrades
  // to the analytic prior, never to an error.
  std::vector<std::pair<std::string, MapTile>> prescanned;
  auto model = [&]() -> Result<CellCostModel> {
    switch (opts.cost_model) {
      case CostModelKind::kUniform:
        return CellCostModel::Uniform(space);
      case CostModelKind::kAnalytic:
        return CellCostModel::Analytic(space);
      case CostModelKind::kMeasured:
        // When resuming, keep what the scan read: the checkpoint pass
        // below can then validate those tiles from memory instead of
        // reading and checksumming every file twice.
        return MeasuredCostModelFromDir(opts.tile_dir, space,
                                        opts.resume ? &prescanned : nullptr);
    }
    return Status::InvalidArgument("unknown cost model kind");
  }();
  RM_RETURN_IF_ERROR(model.status());
  if (cache_view.has_value()) {
    // Cached cells are hits, not measurements: costed at a vanishing
    // epsilon, the weighted partition cuts its tiles around the cells that
    // still need measuring (uniform mode partitions by area regardless,
    // as it always did).
    model = model.value().WithDiscountedCells(cached_flags);
  }
  std::map<std::string, MapTile> preloaded;
  for (auto& [path, tile] : prescanned) {
    preloaded.emplace(path, std::move(tile));
  }
  prescanned.clear();
  auto tiles = opts.cost_model == CostModelKind::kUniform
                   ? ShardPlanner::Partition(space, num_tiles)
                   : ShardPlanner::PartitionWeighted(space, num_tiles,
                                                     model.value());
  RM_RETURN_IF_ERROR(tiles.status());
  RM_RETURN_IF_ERROR(EnsureDirectory(opts.tile_dir));

  // Synthetic shard ids — straggler pieces and coverage remainders below —
  // must collide neither with a planned id nor with any tile file already
  // in the directory, so both are folded into the counter before any id is
  // handed out.
  const std::vector<std::string> disk_tiles = SortedTileFiles(opts.tile_dir);
  size_t next_shard_id = 0;
  for (const TileSpec& t : tiles.value()) {
    next_shard_id = std::max(next_shard_id, t.shard_id + 1);
  }
  for (const std::string& name : disk_tiles) {
    size_t id = 0;
    if (std::sscanf(name.c_str(), "tile_%zu.rmt", &id) == 1) {
      next_shard_id = std::max(next_shard_id, id + 1);
    }
  }

  // The coverage-adoption candidate pool: every valid on-disk tile of this
  // exact study (grid, plans, layers — shard id deliberately ignored, any
  // valid tile for this study carries the right bytes for its rectangle).
  // Read lazily: the pool is only needed when a planned tile's own file is
  // missing or invalid, i.e. when a previous run was killed or damaged.
  std::vector<std::pair<std::string, MapTile>> candidates;
  bool candidates_loaded = false;
  const auto load_candidates = [&] {
    if (candidates_loaded) return;
    candidates_loaded = true;
    for (const std::string& name : disk_tiles) {
      auto tile = ReadMapTileFile(opts.tile_dir + "/" + name);
      if (!tile.ok()) continue;  // damaged or foreign file: not a candidate
      const MapTile& t = tile.value();
      if (!(t.parent_space == space) || t.map.plan_labels() != labels ||
          t.num_layers() != StudyLayerCount(req.study) ||
          t.layer_names != StudyLayerNames(req.study)) {
        continue;
      }
      candidates.emplace_back(name, std::move(tile).value());
    }
  };

  // Scan the checkpoint directory: valid tiles are carried over in memory,
  // the rest queue for workers. A planned tile whose own file is gone may
  // still be partially covered by tiles a killed run left behind — most
  // importantly the pieces of a straggler split — so those are adopted and
  // only the uncovered remainder rectangles queue (as fresh synthetic
  // tiles).
  phase_span = std::make_unique<TraceSpan>("shard.scan", "shard");
  std::vector<MapTile> loaded;
  std::vector<TileSpec> todo;
  std::vector<bool> candidate_used;
  for (const TileSpec& t : tiles.value()) {
    const std::string path = opts.tile_dir + "/" + TileFileName(t.shard_id);
    auto tile = opts.resume
                    ? LoadValidTile(&preloaded, path, t, space, labels,
                                    req.study)
                    : Result<MapTile>(Status::NotFound("resume disabled"));
    if (tile.ok()) {
      loaded.push_back(std::move(tile).value());
      SweepTelemetry::Get().AddCounter("shard.tiles_resumed", 1);
      if (opts.verbose) {
        std::fprintf(stderr, "  shard: tile %zu valid on disk, reused\n",
                     t.shard_id);
      }
      continue;
    }
    std::remove(TileErrFileName(path).c_str());
    // A tile whose every cell is already cached never reaches a worker:
    // its layers are materialized from the cache right here. Nothing is
    // written to disk — the point of skipping is to touch nothing.
    if (cache_view.has_value() &&
        ShardCacheView::TileCached(t, space, cached_flags)) {
      auto mem = MaterializeCachedTile(*cache_view, req, labels, t);
      RM_RETURN_IF_ERROR(mem.status());
      loaded.push_back(std::move(mem).value());
      SweepTelemetry::Get().AddCounter("shard.tiles_from_cache", 1);
      // The per-cell hit counters the lookup path would have bumped had
      // the tile been dispatched — a warm rerun's telemetry shows
      // cache.hits == cells either way. Stored layers only: a warm-cold
      // delta is derived, not looked up.
      const size_t tile_cells =
          cache_view->num_layers() * labels.size() * t.x_size() * t.y_size();
      SweepTelemetry::Get().AddCounter("cache.hits", tile_cells);
      SweepTelemetry::Get().AddCounter("sweep.cells_reused", tile_cells);
      if (opts.verbose) {
        std::fprintf(stderr,
                     "  shard: tile %zu fully cached, not dispatched\n",
                     t.shard_id);
      }
      continue;
    }
    std::vector<TileSpec> remainders{t};
    bool adopted_any = false;
    if (opts.resume) {
      load_candidates();
      candidate_used.resize(candidates.size(), false);
      for (size_t ci = 0; ci < candidates.size(); ++ci) {
        if (candidate_used[ci]) continue;
        const TileSpec& cand = candidates[ci].second.spec;
        // Adopt only a candidate nesting inside one current remainder
        // piece; anything straddling a cut is simply recomputed — the
        // exact-cover check in MergeTileLayers stays the safety net.
        const auto host =
            std::find_if(remainders.begin(), remainders.end(),
                         [&](const TileSpec& r) {
                           return RectContains(r, cand);
                         });
        if (host == remainders.end()) continue;
        const TileSpec hole = *host;
        remainders.erase(host);
        SubtractRect(hole, cand, &remainders);
        candidate_used[ci] = true;
        adopted_any = true;
        loaded.push_back(std::move(candidates[ci].second));
        SweepTelemetry::Get().AddCounter("shard.tiles_adopted", 1);
        if (opts.verbose) {
          std::fprintf(stderr,
                       "  shard: tile %zu partially covered by %s, "
                       "adopted\n",
                       t.shard_id, candidates[ci].first.c_str());
        }
      }
    }
    if (!adopted_any) {
      todo.push_back(t);
      continue;
    }
    for (TileSpec r : remainders) {
      r.shard_id = next_shard_id++;
      const std::string rpath =
          opts.tile_dir + "/" + TileFileName(r.shard_id);
      std::remove(TileErrFileName(rpath).c_str());
      todo.push_back(r);
    }
  }
  SweepTelemetry::Get().AddCounter("shard.tiles_queued", todo.size());

  // Pull-based dispatch: the pending queue is ordered heaviest-first under
  // the cost model (LPT — the classic makespan heuristic), and every time
  // a worker frees up it pulls the head of the queue. The expensive
  // corner tiles start immediately; the cheap tail fills in around them
  // instead of everyone waiting on a monster tile scheduled last.
  SortTilesHeaviestFirst(&todo, model.value());

  ShardedSweepStats local;
  local.tiles_total = tiles.value().size();
  local.tiles_reused = loaded.size();

  // Straggler splitting, decided purely from the cost model before any
  // dispatch (never from mid-run wall-clock observations — reap timing
  // would make the tile set, the stats, and the verbose output depend on
  // scheduling luck): with idle workers guaranteed — fewer pending tiles
  // than workers, the resume-two-damaged-tiles-on-a-big-box shape — any
  // pending tile still holding more than 1.25× a worker's fair share of
  // the pending cost is cut at its cost midpoint, repeatedly, until the
  // heaviest pending tile fits or is a single cell. Tiles are keyed by
  // cell ranges, so the merged bytes cannot change; only the checkpoint
  // granularity does.
  if (opts.split_stragglers && num_workers > 1 && !todo.empty() &&
      todo.size() < num_workers) {
    double pending_total = 0;
    for (const TileSpec& t : todo) pending_total += model.value().TileCost(t);
    const double threshold =
        1.25 * pending_total / static_cast<double>(num_workers);
    while (todo.front().num_points() > 1 &&
           model.value().TileCost(todo.front()) > threshold) {
      const TileSpec head = todo.front();
      todo.erase(todo.begin());
      auto [a, b] = SplitTileAtCostMidpoint(head, model.value());
      a.shard_id = next_shard_id++;
      b.shard_id = next_shard_id++;
      for (const TileSpec& child : {a, b}) {
        const std::string cpath =
            opts.tile_dir + "/" + TileFileName(child.shard_id);
        std::remove(TileErrFileName(cpath).c_str());
        const double child_cost = model.value().TileCost(child);
        const auto pos = std::find_if(
            todo.begin(), todo.end(), [&](const TileSpec& u) {
              return model.value().TileCost(u) < child_cost;
            });
        todo.insert(pos, child);
      }
      ++local.tiles_split;
      SweepTelemetry::Get().AddCounter("shard.tiles_split", 1);
      if (opts.verbose) {
        std::fprintf(stderr,
                     "  shard: straggler tile %zu split into %zu + %zu\n",
                     head.shard_id, a.shard_id, b.shard_id);
      }
    }
  }

  local.tiles_computed = todo.size();
  local.workers_spawned =
      static_cast<unsigned>(std::min<size_t>(num_workers, todo.size()));

  if (opts.verbose && !todo.empty()) {
    std::fprintf(stderr,
                 "  shard: %s cost model, %s study, %zu pending tiles "
                 "(heaviest %.3g, lightest %.3g relative cost)\n",
                 CostModelKindName(opts.cost_model),
                 StudyKindName(req.study), todo.size(),
                 model.value().TileCost(todo.front()),
                 model.value().TileCost(todo.back()));
  }

  // At most num_workers lanes, each holding one tile at a time. stdio is
  // flushed first so forked children do not replay the parent's buffered
  // output. Per-lane busy time, from dispatch to result, is what the
  // balance metrics report.
  phase_span = std::make_unique<TraceSpan>("shard.dispatch", "shard");
  std::fflush(stdout);
  std::fflush(stderr);
  const bool exec_mode = !opts.worker_command.empty();
  // Exec-mode workers can only see the cache through its file, so
  // everything this coordinator holds must hit the disk before the first
  // worker starts; fork-mode workers inherit the in-memory cache for
  // free. A failed flush degrades reuse, never the sweep.
  if (!todo.empty() && exec_mode && req.cell_cache != nullptr &&
      req.cell_cache->attached()) {
    if (Status s = req.cell_cache->WriteCellCacheFile(); !s.ok()) {
      std::fprintf(stderr, "  shard: cell cache flush: %s\n",
                   s.ToString().c_str());
    }
  }
  const auto tile_path = [&](size_t idx) {
    return opts.tile_dir + "/" + TileFileName(todo[idx].shard_id);
  };

  // The argv of an exec-mode worker: the command prefix plus this sweep's
  // session flags. Tiles themselves arrive as request lines, so the
  // coordinator's exact (possibly cost-weighted) cuts are the contract.
  // The study and its warmup policy (the warm layer's for a warm-cold
  // study, the context's own for a plain study measured warm) complete
  // it: a worker computing a different study under the right tile name
  // would poison the merge.
  std::vector<std::string> worker_args = opts.worker_command;
  if (exec_mode) {
    const WarmupPolicy& policy = req.study == StudyKind::kWarmColdDelta
                                     ? req.warm_policy
                                     : ctx->warmup;
    worker_args.push_back("--tile-dir=" + opts.tile_dir);
    worker_args.push_back("--study=" + std::string(StudyKindName(req.study)));
    if (!policy.is_cold()) worker_args.push_back("--warmup=" + policy.ToSpec());
    // Progressive coarse levels sweep a sublattice; the worker must
    // subsample its reconstructed grid the same way before slicing.
    if (opts.lattice_stride > 1) {
      worker_args.push_back("--stride=" + std::to_string(opts.lattice_stride));
    }
    // A persistent cache rides along read-only (flushed above); workers
    // publish only in memory and the coordinator re-publishes the merged
    // cells itself.
    if (req.cell_cache != nullptr && req.cell_cache->attached()) {
      const std::string& cache_file = req.cell_cache->path();
      worker_args.push_back("--cache-dir=" +
                            cache_file.substr(0, cache_file.rfind('/')));
    }
    // Observability rides along only when the coordinator itself is
    // collecting: the worker traces against the coordinator's epoch into
    // per-tile sidecars merged as each tile completes.
    if (Tracer::Get().enabled()) {
      worker_args.push_back("--trace-epoch=" +
                            std::to_string(Tracer::Get().epoch_ns()));
    }
    if (SweepTelemetry::Get().enabled()) {
      worker_args.push_back("--telemetry");
    }
  }
  std::vector<char*> worker_argv;
  for (std::string& a : worker_args) worker_argv.push_back(a.data());
  worker_argv.push_back(nullptr);

  WorkerLanes lanes(local.workers_spawned);
  local.worker_busy_seconds.assign(lanes.size(), 0.0);

  // Starts a worker in an empty lane, wired to two fresh pipes: a forked
  // child that serves tiles itself, or the worker command exec'd with the
  // pipes as its stdin and stdout. Either way a coordinator that dies
  // closes the command pipe too, so an orphaned worker exits after its
  // current tile.
  size_t next = 0;
  const auto spawn_worker = [&](size_t lane) -> Status {
    int cmd[2] = {-1, -1};
    int result[2] = {-1, -1};
    const bool piped =
        ::pipe2(cmd, O_CLOEXEC) == 0 && ::pipe2(result, O_CLOEXEC) == 0;
    const pid_t pid = piped ? ::fork() : -1;
    if (pid < 0) {
      const int err = errno;
      for (int fd : {cmd[0], cmd[1], result[0], result[1]}) {
        if (fd >= 0) ::close(fd);
      }
      return Status::Internal(std::string(piped ? "fork" : "pipe") +
                              " failed: " + ErrnoString(err));
    }
    if (pid == 0) {
      if (!exec_mode) {
        lanes.CloseCoordinatorEnds();
        ::close(cmd[1]);
        ::close(result[0]);
        ServeTiles(cmd[0], result[1], ctx, executor, req);
        ::_exit(0);
      }
      // dup2 clears O_CLOEXEC on the copies: exactly fds 0 and 1 of the
      // two pipes survive the exec.
      ::dup2(cmd[0], STDIN_FILENO);
      ::dup2(result[1], STDOUT_FILENO);
      ::execvp(worker_argv[0], worker_argv.data());
      // The tile dispatched to this lane next fails with the reason.
      const int err = errno;
      WriteTileErrFile(tile_path(next),
                       Status::Internal("cannot exec " + worker_args[0] +
                                        ": " + ErrnoString(err)));
      ::_exit(127);
    }
    ::close(cmd[0]);
    ::close(result[1]);
    lanes[lane].pid = pid;
    lanes[lane].cmd_fd = cmd[1];
    lanes[lane].result_fd = result[0];
    return Status::OK();
  };

  // Hands an idle lane the heaviest pending tile as one request line. A
  // worker that died meanwhile surfaces as EOF on its result pipe, failing
  // this tile there.
  const auto dispatch = [&](size_t lane) {
    const size_t idx = next++;
    const std::string path = tile_path(idx);
    // A stale sidecar from an aborted run must never merge as if this
    // dispatch produced it.
    std::remove(TileTraceFileName(path).c_str());
    std::remove(TileTelemetryFileName(path).c_str());
    lanes[lane].tile = idx;
    lanes[lane].started_ns = MonotonicNowNs();
    const std::string request = TileRequestLine(todo[idx]);
    (void)WriteMessage(lanes[lane].cmd_fd, request.data(), request.size());
    SweepTelemetry::Get().AddCounter("shard.tiles_dispatched", 1);
  };

  // Accounts a lane's tile as finished: busy time, its span, and either
  // the worker's sidecars or a failure.
  std::vector<size_t> failed;
  size_t computed_done = 0;
  const auto finish = [&](size_t lane, bool ok) {
    const size_t idx = lanes[lane].tile;
    const int64_t started_ns = lanes[lane].started_ns;
    lanes[lane].tile = WorkerLanes::kIdle;
    const int64_t now_ns = MonotonicNowNs();
    const double tile_wall_seconds =
        static_cast<double>(now_ns - started_ns) * 1e-9;
    local.worker_busy_seconds[lane] += tile_wall_seconds;
    const size_t shard_id = todo[idx].shard_id;
    if (Tracer::Get().enabled()) {
      // The dispatch-to-result span for this tile, on the coordinator's
      // timeline; the worker's own spans sit inside it once the sidecar
      // merges.
      Tracer::Get().AddComplete("shard.tile " + std::to_string(shard_id),
                                "shard", started_ns, now_ns - started_ns);
    }
    SweepTelemetry::Get().RecordLatency("shard.tile_wall_seconds",
                                        tile_wall_seconds);
    if (!ok) {
      SweepTelemetry::Get().AddCounter("shard.tiles_failed", 1);
      failed.push_back(idx);
      return;
    }
    ++computed_done;
    SweepTelemetry::Get().AddCounter("shard.tiles_computed", 1);
    // Fold the worker's sidecars in and drop them; a missing or unreadable
    // sidecar degrades the trace, never the sweep.
    const auto merge = [&](auto& sink, const std::string& file,
                           const char* what) {
      if (!sink.enabled()) return;
      if (Status ms = sink.MergeFromFile(file); ms.ok()) {
        std::remove(file.c_str());
      } else {
        std::fprintf(stderr, "  shard: tile %zu %s sidecar: %s\n",
                     shard_id, what, ms.ToString().c_str());
      }
    };
    merge(Tracer::Get(), TileTraceFileName(tile_path(idx)), "trace");
    merge(SweepTelemetry::Get(), TileTelemetryFileName(tile_path(idx)),
          "telemetry");
    if (opts.verbose) {
      std::fprintf(stderr, "  shard: tile %zu computed (%zu/%zu done)\n",
                   shard_id, local.tiles_reused + computed_done,
                   local.tiles_total);
    }
  };

  for (size_t lane = 0; lane < lanes.size(); ++lane) {
    RM_RETURN_IF_ERROR(spawn_worker(lane));
    dispatch(lane);
  }
  // Block until some lane reports. An answer byte finishes the lane's
  // tile; EOF means the lane's worker is gone — told to stop, or dead
  // while holding a tile, which then fails. A lane whose worker is gone
  // gets a new one while tiles remain pending.
  std::vector<pollfd> fds;
  std::vector<size_t> fd_lane;
  for (;;) {
    fds.clear();
    fd_lane.clear();
    for (size_t lane = 0; lane < lanes.size(); ++lane) {
      if (lanes[lane].pid < 0) continue;
      fds.push_back(pollfd{lanes[lane].result_fd, POLLIN, 0});
      fd_lane.push_back(lane);
    }
    if (fds.empty()) break;
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("poll failed: " + ErrnoString(errno));
    }
    for (size_t f = 0; f < fds.size(); ++f) {
      if (fds[f].revents == 0) continue;
      const size_t lane = fd_lane[f];
      char answer = 0;
      if (ReadMessage(lanes[lane].result_fd, &answer, 1) == 1) {
        finish(lane, answer == '0');
        if (next < todo.size()) {
          dispatch(lane);
        } else {
          lanes.CloseCommand(lane);
        }
        continue;
      }
      lanes.CloseCommand(lane);
      RM_RETURN_IF_ERROR(lanes.Reap(lane));
      if (lanes[lane].tile != WorkerLanes::kIdle) finish(lane, false);
      if (next < todo.size()) {
        RM_RETURN_IF_ERROR(spawn_worker(lane));
        ++local.workers_spawned;
        dispatch(lane);
      }
    }
  }

  if (!failed.empty()) {
    // Report the failure of the lowest shard id — stable whatever dispatch
    // order the cost model produced — with the worker's own Status when it
    // managed to leave one. Completed tiles stay on disk, so the rerun
    // that follows a fix resumes instead of restarting.
    size_t worst = failed.front();
    for (size_t idx : failed) {
      if (todo[idx].shard_id < todo[worst].shard_id) worst = idx;
    }
    const TileSpec& t = todo[worst];
    const std::string path = opts.tile_dir + "/" + TileFileName(t.shard_id);
    auto msg = ReadErrFile(path);
    return Status::Internal(
        "sweep worker for tile " + std::to_string(t.shard_id) + " failed" +
        (msg.ok() ? ": " + msg.value()
                  : " without leaving an error file (killed?)"));
  }

  // Merge: freshly computed tiles are read back from disk — the same
  // validated path a resumed coordinator takes — then stitched with the
  // reused ones, layer by layer.
  phase_span = std::make_unique<TraceSpan>("shard.merge", "shard");
  for (const TileSpec& t : todo) {
    const std::string path = opts.tile_dir + "/" + TileFileName(t.shard_id);
    auto tile = ReadMapTileFile(path);
    RM_RETURN_IF_ERROR(tile.status());
    loaded.push_back(std::move(tile).value());
  }
  SweepTelemetry::Get().AddCounter("shard.tiles_merged", loaded.size());
  auto merged = MergeTileLayers(space, labels, loaded);
  RM_RETURN_IF_ERROR(merged.status());
  // Every merged cell goes back into the cache — whatever process measured
  // it (workers publish into their own address spaces, which the parent
  // never sees). Insert-if-absent: re-publishing cells the cache already
  // holds keeps a clean cache clean.
  if (cache_view.has_value()) {
    uint64_t published = 0;
    for (size_t layer = 0; layer < cache_view->num_layers(); ++layer) {
      const RobustnessMap& merged_layer = merged.value()[layer];
      for (size_t plan = 0; plan < labels.size(); ++plan) {
        for (size_t pt = 0; pt < space.num_points(); ++pt) {
          if (req.cell_cache->Publish(cache_view->fp(layer, plan, pt),
                                      StudyKindName(req.study),
                                      merged_layer.At(plan, pt))) {
            ++published;
          }
        }
      }
    }
    if (published > 0) {
      SweepTelemetry::Get().AddCounter("cache.publishes", published);
    }
  }
  phase_span.reset();
  if (merged.value().size() != StudyLayerCount(req.study)) {
    return Status::Internal("merged " + std::to_string(merged.value().size()) +
                            " layers for a " +
                            std::to_string(StudyLayerCount(req.study)) +
                            "-layer study");
  }
  SweepOutcome out;
  out.study = req.study;
  out.layers = std::move(merged).value();
  out.sharded_stats = std::move(local);
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
  if (ctx->warmup.is_order_dependent() ||
      (req.study == StudyKind::kWarmColdDelta &&
       req.warm_policy.is_order_dependent())) {
    return Status::InvalidArgument(
        "progressive sweeps require an order-independent warmup policy; "
        "coarse-level reuse replays cells out of sweep order");
  }
  if (req.sweep.shared_pool != nullptr ||
      req.sweep.deterministic_shared_schedule) {
    return Status::InvalidArgument(
        "progressive sweeps cannot reuse cells under a shared pool or a "
        "deterministic shared schedule, whose cell values depend on "
        "execution order");
  }
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
    level.sharded.lattice_stride = stride;
    if (req.backend == BackendKind::kShardedProcess && stride > 1) {
      // Coarse-level checkpoints live one subdirectory per level, so each
      // level's resume scan sees only its own lattice's tiles; the final
      // level writes into the caller's tile_dir exactly as a direct
      // sharded sweep would.
      level.sharded.tile_dir =
          req.sharded.tile_dir + "/level_" + std::to_string(stride);
    }
    out = SweepEngine::Run(ctx, executor, level);
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
      return {};  // unnamed single layer: plain tiles stay on v2 bytes
    case StudyKind::kWarmColdDelta:
      return {"cold", "warm", "delta"};
  }
  return {};
}

Result<BackendKind> BackendKindFromString(const std::string& name) {
  if (name == "serial") return BackendKind::kSerial;
  if (name == "threaded") return BackendKind::kThreaded;
  if (name == "sharded") return BackendKind::kShardedProcess;
  return Status::InvalidArgument("unknown backend '" + name +
                                 "' (want serial, threaded, or sharded)");
}

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSerial:
      return "serial";
    case BackendKind::kThreaded:
      return "threaded";
    case BackendKind::kShardedProcess:
      return "sharded";
  }
  return "?";
}

Result<RobustnessMap> SweepEngine::RunCells(
    const ParameterSpace& space, const std::vector<std::string>& plan_labels,
    const PointRunner& runner, const SweepOptions& opts) {
  return RunCellsIndexed(
      space, plan_labels,
      [&](size_t plan, size_t point) {
        return runner(plan, space.x_value(point), space.y_value(point));
      },
      opts);
}

Result<RobustnessMap> SweepEngine::RunCellsIndexed(
    const ParameterSpace& space, const std::vector<std::string>& plan_labels,
    const IndexedPointRunner& runner, const SweepOptions& opts) {
  RM_RETURN_IF_ERROR(ValidateSweepInputs(space, plan_labels));
  TraceSpan sweep_span("sweep.run_cells");
  const bool observing = Observing();
  RobustnessMap map(space, plan_labels);
  ProgressTracker tracker(opts, plan_labels.size(), space.num_points());
  for (size_t plan = 0; plan < plan_labels.size(); ++plan) {
    for (size_t point = 0; point < space.num_points(); ++point) {
      CellTimer timer(observing);
      auto m = runner(plan, point);
      RM_RETURN_IF_ERROR(m.status());
      if (!std::exchange(tl_cell_from_cache, false)) {
        timer.Observe(m.value());
      }
      map.Set(plan, point, std::move(m).value());
      tracker.CellDone(plan);
    }
  }
  return map;
}

Result<RobustnessMap> SweepEngine::RunCellsParallel(
    const ParameterSpace& space, const std::vector<std::string>& plan_labels,
    const RunContextFactory& factory, const ContextPointRunner& runner,
    const SweepOptions& opts) {
  return RunCellsParallelIndexed(
      space, plan_labels, factory,
      [&](RunContext* ctx, size_t plan, size_t point) {
        return runner(ctx, plan, space.x_value(point), space.y_value(point));
      },
      opts);
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
  ProgressTracker tracker(opts, plan_labels.size(), points);

  // The deterministic concurrent-contention schedule: serial execution in
  // point-major round-robin across plans, as if one query stream per plan
  // took turns on the machine. Shared-pool residency then evolves the same
  // way on every run — unlike the true-parallel schedule below, whose
  // interleaving (intentionally) depends on thread timing.
  if (opts.deterministic_shared_schedule) {
    if (opts.verbose) {
      std::fprintf(stderr,
                   "  sweep: %zu cells (%zu plans), fixed round-robin "
                   "schedule\n",
                   cells, plan_labels.size());
    }
    TraceSpan schedule_span("sweep.round_robin");
    const bool observing = Observing();
    std::unique_ptr<OwnedRunContext> machine = factory.Acquire();
    Status loop_status = Status::OK();
    {
      // The observer publishes from the machine's pool at scope exit, so
      // it must close before the machine is parked back in the arena.
      PoolViewObserver pool_view(machine->ctx()->pool, 0);
      for (size_t point = 0; point < points && loop_status.ok(); ++point) {
        for (size_t plan = 0; plan < plan_labels.size(); ++plan) {
          CellTimer timer(observing);
          auto m = runner(machine->ctx(), plan, point);
          if (!m.ok()) {
            loop_status = m.status();
            break;
          }
          if (!std::exchange(tl_cell_from_cache, false)) {
            timer.Observe(m.value());
            if (observing) pool_view.CellDone();
          }
          map.Set(plan, point, std::move(m).value());
          tracker.CellDone(plan);
        }
      }
    }
    factory.Release(std::move(machine));
    RM_RETURN_IF_ERROR(loop_status);
    return map;
  }

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

  auto work = [&](unsigned worker_index) {
    TraceSpan worker_span("sweep.worker");
    const bool observing = Observing();
    std::unique_ptr<OwnedRunContext> machine = factory.Acquire();
    {
      // Closed before the machine is parked back in the arena: the
      // observer publishes from the machine's pool at scope exit.
      PoolViewObserver pool_view(machine->ctx()->pool, worker_index);
      for (;;) {
        const size_t block =
            next_block.fetch_add(1, std::memory_order_relaxed);
        if (block >= num_blocks) break;
        SweepTelemetry::Get().AddCounter("sweep.blocks_claimed", 1);
        for (size_t cell = block_begin[block]; cell < block_begin[block + 1];
             ++cell) {
          if (cell > first_failed_cell.load(std::memory_order_relaxed)) {
            continue;
          }
          const size_t plan = cell / points;
          const size_t point = cell % points;
          CellTimer timer(observing);
          auto m = runner(machine->ctx(), plan, point);
          if (!m.ok()) {
            record_error(cell, m.status());
            continue;
          }
          if (!std::exchange(tl_cell_from_cache, false)) {
            timer.Observe(m.value());
            if (observing) pool_view.CellDone();
          }
          map.Set(plan, point, std::move(m).value());
          tracker.CellDone(plan);
        }
      }
    }
    factory.Release(std::move(machine));
  };

  if (num_threads <= 1) {
    work(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) {
      workers.emplace_back(work, t);
    }
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
