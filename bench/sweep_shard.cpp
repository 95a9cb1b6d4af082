// Coordinator for sharded sweeps: partitions the study grid into tiles,
// starts one serving `sweep_worker` per lane (fork+exec, or a forked
// in-process worker with --fork), feeds each the missing tiles one
// request line at a time, and merges the checkpointed tile files into one
// map per study layer — bit-identical to a single-process sweep of the
// same grid.
// Rerunning against the same --out-dir resumes: tiles already valid on
// disk are skipped, so a killed paper-scale sweep restarts where it left
// off instead of from zero.
//
// Usage:
//   sweep_shard [--row-bits=16] [--min-log2=-8] [--steps-per-octave=1]
//               [--plans=all|smoke] [--workers=N] [--tiles=T]
//               [--out-dir=shard_out]
//               [--study=plain|warmcold] [--warmup=SPEC]
//               [--worker=PATH]   # sweep_worker binary (default: next to me)
//               [--fork]          # forked serving workers, no exec
//               [--serial]        # single-process reference sweep
//               [--no-resume] [--verbose]
//               [--cache-dir=DIR] [--progressive=K]
//               [--trace=FILE] [--telemetry=FILE]
//
// --trace writes a Chrome-trace-event JSON (load in Perfetto or
// chrome://tracing) of the whole run — coordinator phases, per-tile
// dispatch spans, and the workers' own spans merged onto one time axis.
// --telemetry writes counter/histogram JSON (pretty-print with `map_cat
// --telemetry`). REPRO_TRACE / REPRO_TELEMETRY supply the paths when the
// flags are absent. Observability is sidecar-only: the merged maps are
// byte-identical with and without it, and CI enforces that with `cmp`.
//
// Writes DIR/tile_NNNN.rmt checkpoints plus the merged artifacts:
// DIR/merged.{rmt,csv} for the plain study, DIR/merged_<layer>.{rmt,csv}
// (cold/warm/delta) for --study=warmcold — each a single-layer full-grid
// tile, so `cmp` against a --serial reference run checks bit-identity per
// layer. The REPRO_SHARDS / REPRO_STUDY env knobs supply --workers /
// --study when the flags are absent. --warmup (WarmupPolicy::FromSpec
// grammar, e.g. resident:0.5) is the warm layer's policy for warmcold and
// the measurement policy for plain. Tiles are cut to equal cost under the
// analytic prior and dispatched heaviest first; when fewer tiles are
// pending than workers, the heavy ones are split (the "split=" count).
//
// --cache-dir attaches the content-addressed cell-result cache
// (DIR/cells.rmc, see core/cell_cache.h): already-measured cells are
// reused instead of re-measured — across runs, out-dirs, tile layouts,
// and refinement strides alike — and the merged results are published
// back and flushed after the run. Exec workers are handed the same
// --cache-dir to consult read-only; the coordinator is the only flusher.
// --progressive=K sweeps coarse-to-fine: the stride-K lattice first
// (written as DIR/snapshot_stride_K*.rmt the moment it merges, with
// coarse cells nearest-neighbor-filled to the full grid), then stride
// K/2 reusing every already-measured cell, and so on to the full grid —
// whose merged artifacts are byte-identical to a direct sweep's. The
// REPRO_CACHE / REPRO_PROGRESSIVE env knobs supply the values when the
// flags are absent. Neither applies to --serial, which stays the
// uncached reference every other mode is byte-diffed against.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/cell_cache.h"
#include "core/sharded_sweep.h"
#include "core/sweep_telemetry.h"
#include "shard_cli.h"
#include "viz/csv_export.h"

using namespace robustmap;
using namespace robustmap::bench;

namespace {

std::string DefaultWorkerPath(const char* argv0) {
  std::string self = argv0;
  size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "sweep_worker";
  return self.substr(0, slash + 1) + "sweep_worker";
}

/// Per-layer merged artifacts: each layer is persisted as a single-layer
/// tile covering the whole grid, so the same reader (and the same
/// byte-for-byte comparison) serves tiles, plain maps, and every layer of
/// a multi-layer study alike. The plain study keeps its classic
/// merged.{rmt,csv} names.
Status WriteMergedArtifacts(const std::string& dir, StudyKind study,
                            const std::vector<RobustnessMap>& layers) {
  RM_RETURN_IF_ERROR(EnsureDirectory(dir));
  const std::vector<std::string> names = StudyLayerNames(study);
  for (size_t li = 0; li < layers.size(); ++li) {
    const std::string base =
        dir + "/merged" + (names.empty() ? "" : "_" + names[li]);
    RM_RETURN_IF_ERROR(WriteMapRmt(base + ".rmt", layers[li]));
    RM_RETURN_IF_ERROR(WriteMapCsvFile(base + ".csv", layers[li]));
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  ShardGrid grid;
  int workers = 0;
  int tiles = 0;
  int progressive = EnvInt("REPRO_PROGRESSIVE", 0, 0, 1 << 20);
  bool use_fork = false;
  bool serial = false;
  bool resume = true;
  bool verbose = EnvFlag("REPRO_VERBOSE");
  std::string out_dir = "shard_out";
  std::string worker_path = DefaultWorkerPath(argv[0]);
  std::string study_name = StudyKindName(EnvStudy(StudyKind::kPlainMap));
  std::string warmup_spec = "cold";
  std::string cache_dir = EnvString("REPRO_CACHE");
  std::string trace_path = EnvString("REPRO_TRACE");
  std::string telemetry_path = EnvString("REPRO_TELEMETRY");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (ParseGridFlag(arg, &grid) || ParseIntFlag(arg, "workers", &workers) ||
        ParseIntFlag(arg, "tiles", &tiles) ||
        ParseIntFlag(arg, "progressive", &progressive) ||
        ParseFlag(arg, "out-dir", &out_dir) ||
        ParseFlag(arg, "cache-dir", &cache_dir) ||
        ParseFlag(arg, "study", &study_name) ||
        ParseFlag(arg, "warmup", &warmup_spec) ||
        ParseFlag(arg, "worker", &worker_path) ||
        ParseFlag(arg, "trace", &trace_path) ||
        ParseFlag(arg, "telemetry", &telemetry_path)) {
      continue;
    }
    if (arg == "--fork") {
      use_fork = true;
    } else if (arg == "--serial") {
      serial = true;
    } else if (arg == "--no-resume") {
      resume = false;
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr, "sweep_shard: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (workers == 0) workers = EnvInt("REPRO_SHARDS", 0, 0, 256);
  auto study = StudyKindFromString(study_name);
  if (!study.ok()) {
    std::fprintf(stderr, "sweep_shard: %s\n",
                 study.status().message().c_str());
    return 2;
  }
  auto warmup = WarmupPolicy::FromSpec(warmup_spec);
  if (!warmup.ok()) {
    std::fprintf(stderr, "sweep_shard: %s\n",
                 warmup.status().message().c_str());
    return 2;
  }
  if (serial && (!cache_dir.empty() || progressive > 1)) {
    std::fprintf(stderr,
                 "sweep_shard: --serial is the uncached reference sweep; "
                 "--cache-dir / --progressive apply to the sharded run\n");
    return 2;
  }
  // A warm-cold study with a cold warm layer is two identical sweeps and
  // an all-zero delta — a spelled-out default beats a silent no-op study.
  if (study.value() == StudyKind::kWarmColdDelta && warmup.value().is_cold()) {
    warmup = WarmupPolicy::FractionResident(0.5);
    std::fprintf(stderr,
                 "sweep_shard: --study=warmcold without --warmup; using "
                 "%s\n",
                 warmup.value().label().c_str());
  }

  std::vector<PlanKind> plans = GridPlans(grid);
  if (plans.empty()) {
    std::fprintf(stderr, "sweep_shard: unknown plan set %s\n",
                 grid.plan_set.c_str());
    return 2;
  }
  ParameterSpace space = MakeGridSpace(grid);
  std::printf("sweep_shard: %zux%zu grid, %zu plans, 2^%d rows, %s study\n",
              space.x_size(), space.y_size(), plans.size(), grid.row_bits,
              StudyKindName(study.value()));

  // The full-scale database is only needed when *this* process computes
  // cells (--serial, or forked workers sharing its memory). Exec-mode
  // workers build their own; paying minutes of paper-scale table+index
  // construction in an idle coordinator would be pure waste. A persistent
  // cache forces the build even in exec mode: cache keys fingerprint the
  // real environment, and keys minted from the stub context below would
  // collide across grids that only differ in what the stub omits.
  std::unique_ptr<StudyEnvironment> env;
  if (serial || use_fork || !cache_dir.empty()) {
    env = MakeGridEnvironment(grid);
  }

  // Observability is opt-in and sidecar-only: nothing below may alter a
  // map byte (CI byte-diffs a traced run against an untraced one).
  if (!trace_path.empty()) Tracer::Get().Enable();
  if (!telemetry_path.empty()) SweepTelemetry::Get().Enable();
  const auto write_observability = [&]() {
    if (!trace_path.empty()) {
      Status s = Tracer::Get().WriteFile(trace_path);
      if (s.ok()) {
        std::printf("trace -> %s (%zu events)\n", trace_path.c_str(),
                    Tracer::Get().event_count());
      } else {
        std::fprintf(stderr, "sweep_shard: %s\n", s.ToString().c_str());
      }
    }
    if (!telemetry_path.empty()) {
      Status s = SweepTelemetry::Get().WriteFile(telemetry_path);
      if (s.ok()) {
        std::printf("telemetry -> %s\n", telemetry_path.c_str());
      } else {
        std::fprintf(stderr, "sweep_shard: %s\n", s.ToString().c_str());
      }
    }
  };

  WallTimer timer;
  if (serial) {
    // The reference run the CI byte-diffs sharded merges against: the
    // same study through the engine's in-process path on one thread — the
    // acceptance bar for the sharded backend is bit-identity to exactly
    // this.
    SweepRequest ref;
    ref.plans = plans;
    ref.space = space;
    ref.study = study.value();
    ref.warm_policy = warmup.value();
    ref.sweep.num_threads = 1;
    ref.sweep.verbose = verbose;
    if (study.value() == StudyKind::kPlainMap) {
      env->ctx()->warmup = warmup.value();
    }
    auto out = SweepEngine::Run(env->ctx(), env->executor(), ref);
    if (!out.ok()) {
      std::fprintf(stderr, "sweep_shard: %s\n",
                   out.status().ToString().c_str());
      return 1;
    }
    const std::vector<RobustnessMap>& layers = out.value().layers;
    Status s = WriteMergedArtifacts(out_dir, study.value(), layers);
    if (!s.ok()) {
      std::fprintf(stderr, "sweep_shard: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("serial sweep: cells=%zu layers=%zu wall=%.2fs -> "
                "%s/merged*.rmt\n",
                plans.size() * space.num_points(), layers.size(),
                timer.Seconds(), out_dir.c_str());
    write_observability();
    return 0;
  }

  SweepRequest req;
  req.plans = plans;
  req.space = space;
  req.study = study.value();
  req.backend = BackendKind::kShardedProcess;
  req.warm_policy = warmup.value();
  req.sharded.tile_dir = out_dir;
  req.sharded.num_workers = static_cast<unsigned>(workers < 0 ? 0 : workers);
  req.sharded.num_tiles = tiles <= 0 ? 0 : static_cast<size_t>(tiles);
  req.sharded.resume = resume;
  req.sharded.verbose = verbose;

  // The cache outlives the request: the engine borrows it, main flushes
  // it after the merged artifacts are safely on disk.
  CellResultCache cache;
  if (!cache_dir.empty()) {
    cache.Open(cache_dir);
    req.cell_cache = &cache;
    std::printf("cell cache: %s (%zu entries)\n", cache.path().c_str(),
                cache.size());
  }
  if (progressive > 1) {
    req.progressive.initial_stride = static_cast<size_t>(progressive);
    if (!use_fork && cache_dir.empty()) {
      // Without a cache file, exec workers cannot see the coarser levels'
      // results, so partially-cached tiles are re-measured whole. The
      // maps stay byte-identical either way; only exactly-once goes.
      std::fprintf(stderr,
                   "sweep_shard: note: --progressive without --cache-dir "
                   "makes exec workers re-measure cells the coarse levels "
                   "already covered; add --cache-dir (or --fork) for "
                   "exactly-once measurement\n");
    }
    // layer_names by value: this block's scope ends long before the
    // engine fires the callback.
    const std::vector<std::string> layer_names = StudyLayerNames(study.value());
    req.progressive.on_snapshot = [&, layer_names](
                                      size_t stride,
                                      const std::vector<RobustnessMap>&
                                          layers) {
      for (size_t li = 0; li < layers.size(); ++li) {
        const std::string path =
            out_dir + "/snapshot_stride_" + std::to_string(stride) +
            (layer_names.empty() ? "" : "_" + layer_names[li]) + ".rmt";
        if (Status ws = WriteMapRmt(path, layers[li]); !ws.ok()) {
          WarnArtifact(ws, path);  // a lost snapshot never fails the sweep
        }
      }
      std::printf("progressive: stride=%zu snapshot after %.2fs -> "
                  "%s/snapshot_stride_%zu*.rmt\n",
                  stride, timer.Seconds(), out_dir.c_str(), stride);
      std::fflush(stdout);
    };
  }

  if (!use_fork) {
    // The command prefix of a serving worker. The engine appends the
    // session flags (--tile-dir, --study, --warmup, ...) and sends each
    // tile's id and rectangle as a request, so the resolved partition and
    // study are always the coordinator's own.
    req.sharded.worker_command = {worker_path};
    for (std::string& flag : GridArgs(grid)) {
      req.sharded.worker_command.push_back(std::move(flag));
    }
  }

  // Exec mode touches no cells in this process: a minimal simulated
  // machine satisfies the coordinator's RunContext plumbing without
  // building the study database.
  VirtualClock stub_clock;
  SimDevice stub_device(DiskParameters{}, &stub_clock);
  LruBufferPool stub_pool(&stub_device, 16);
  RunContext stub_ctx;
  stub_ctx.clock = &stub_clock;
  stub_ctx.device = &stub_device;
  stub_ctx.pool = &stub_pool;
  Executor stub_executor{StudyDb{}};
  RunContext* ctx = env ? env->ctx() : &stub_ctx;
  const Executor& executor = env ? env->executor() : stub_executor;
  // A plain study measured warm: the policy rides on the context (and the
  // engine forwards it to exec workers as --warmup).
  if (study.value() == StudyKind::kPlainMap) ctx->warmup = warmup.value();

  auto outcome = SweepEngine::Run(ctx, executor, req);
  if (!outcome.ok()) {
    std::fprintf(stderr, "sweep_shard: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  const ShardedSweepStats& stats = outcome.value().sharded_stats;
  Status s = WriteMergedArtifacts(out_dir, study.value(),
                                  outcome.value().layers);
  if (!s.ok()) {
    std::fprintf(stderr, "sweep_shard: %s\n", s.ToString().c_str());
    return 1;
  }
  if (req.cell_cache != nullptr) {
    // Flushed after the merged artifacts: a failed flush costs the next
    // run some reuse, never this run's maps.
    if (Status cs = cache.WriteCellCacheFile(); cs.ok()) {
      std::printf("cell cache: %zu entries -> %s\n", cache.size(),
                  cache.path().c_str());
    } else {
      std::fprintf(stderr, "sweep_shard: cell cache flush: %s\n",
                   cs.ToString().c_str());
    }
  }
  std::printf(
      "sharded sweep: tiles=%zu reused=%zu computed=%zu split=%zu workers=%u "
      "mode=%s study=%s balance=%.2f wall=%.2fs -> "
      "%s/merged*.rmt\n",
      stats.tiles_total, stats.tiles_reused, stats.tiles_computed,
      stats.tiles_split, stats.workers_spawned, use_fork ? "fork" : "exec",
      StudyKindName(study.value()), stats.busy_balance_ratio(),
      timer.Seconds(), out_dir.c_str());
  write_observability();
  return 0;
}
