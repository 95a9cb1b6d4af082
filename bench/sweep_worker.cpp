// One serving worker of a sharded sweep: rebuilds the study environment
// from its flags once, then computes grid tiles on request until its input
// ends, each written as a checkpointed binary tile file (single-layer for
// the plain study, one named layer per study output otherwise, stamped
// with the wall time its sweep took). Normally
// exec'd by `sweep_shard` once per lane (the engine appends --tile-dir,
// --study and the other session flags to its grid flags), but equally
// runnable by hand or from a cluster scheduler — a tile file is
// self-describing, so tiles computed anywhere merge as long as the grid
// flags match.
//
// Usage:
//   sweep_worker --tile-dir=DIR [--stride=K]
//                [--study=plain|warmcold] [--warmup=SPEC]
//                [--row-bits=16] [--min-log2=-8] [--steps-per-octave=1]
//                [--plans=all|smoke] [--cache-dir=DIR]
//                [--trace-epoch=NS] [--telemetry]
//
// The protocol is `ServeTiles` (core/sharded_sweep.h): each stdin line
// "<shard_id> <x0:x1:y0:y1>" asks for one tile of the grid, written to
// DIR/tile_NNNN.rmt, and is answered by one byte on stdout — '0' when the
// tile file was written, '1' when its Status is in DIR/tile_NNNN.rmt.err.
// EOF on stdin ends the worker. Everything else it prints goes to stderr:
//
//   echo "7 0:4:0:8" | sweep_worker --plans=smoke --tile-dir=shard_out
//
// --warmup (see WarmupPolicy::FromSpec for the grammar) is the warm
// layer's policy for --study=warmcold and the measurement policy for a
// plain study; it must be order-independent — prior-run warmth cannot
// cross the tile boundaries sharding erases. --stride=K subsamples the
// grid to its stride-K lattice, the coarse levels of a progressive sweep,
// whose rectangles index the subsampled space. --cache-dir points at a
// cell-result cache directory (see core/cell_cache.h); the worker consults
// it read-only — already-measured cells are copied into the tile instead
// of re-measured — and never flushes, so concurrent workers share one
// cache file without racing on it (the coordinator publishes the merged
// results back). --trace-epoch traces each tile against the coordinator's
// time axis (a raw CLOCK_MONOTONIC reading, valid across processes on one
// boot) and --telemetry collects counters; both land in per-tile sidecars
// the coordinator merges. They are explicit flags only — a worker never
// reads REPRO_TRACE.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"
#include "core/cell_cache.h"
#include "core/parameter_space.h"
#include "core/sharded_sweep.h"
#include "core/sweep_telemetry.h"
#include "shard_cli.h"

using namespace robustmap;
using namespace robustmap::bench;

namespace {

int Fail(const Status& s) {
  std::fprintf(stderr, "sweep_worker: %s\n", s.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // The answer channel is the stdout the coordinator handed over; move it
  // off fd 1 before anything can print, so a stray printf never corrupts
  // the framing.
  const int answer_fd = ::dup(STDOUT_FILENO);
  ::dup2(STDERR_FILENO, STDOUT_FILENO);

  ShardGrid grid;
  int stride = 1;
  bool telemetry = false;
  std::string tile_dir;
  std::string cache_dir;
  std::string study_name = "plain";
  std::string warmup_spec = "cold";
  std::string trace_epoch;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (ParseGridFlag(arg, &grid) || ParseIntFlag(arg, "stride", &stride) ||
        ParseFlag(arg, "tile-dir", &tile_dir) ||
        ParseFlag(arg, "cache-dir", &cache_dir) ||
        ParseFlag(arg, "study", &study_name) ||
        ParseFlag(arg, "warmup", &warmup_spec) ||
        ParseFlag(arg, "trace-epoch", &trace_epoch)) {
      continue;
    }
    if (arg == "--telemetry") {
      telemetry = true;
      continue;
    }
    std::fprintf(stderr, "sweep_worker: unknown flag %s\n", arg.c_str());
    return 2;
  }
  if (tile_dir.empty()) {
    std::fprintf(stderr,
                 "usage: sweep_worker --tile-dir=DIR [--stride=K] "
                 "[--study=plain|warmcold] [--warmup=SPEC] "
                 "[--row-bits=..] [--min-log2=..] "
                 "[--steps-per-octave=..] [--plans=all|smoke] "
                 "[--cache-dir=DIR] [--trace-epoch=NS] "
                 "[--telemetry]  (tile requests on stdin)\n");
    return 2;
  }
  auto study = StudyKindFromString(study_name);
  if (!study.ok()) return Fail(study.status());
  auto warmup = WarmupPolicy::FromSpec(warmup_spec);
  if (!warmup.ok()) return Fail(warmup.status());
  if (warmup.value().is_order_dependent()) {
    return Fail(Status::InvalidArgument(
        "--warmup=" + warmup_spec +
        " is order-dependent; a tile worker cannot inherit cache state "
        "across tile boundaries"));
  }
  std::vector<PlanKind> plans = GridPlans(grid);
  if (plans.empty()) {
    return Fail(Status::InvalidArgument("unknown plan set " + grid.plan_set));
  }
  if (stride < 1) {
    return Fail(Status::InvalidArgument("--stride=" + std::to_string(stride) +
                                        " must be a positive lattice stride"));
  }
  if (!trace_epoch.empty()) {
    char* end = nullptr;
    const long long epoch = std::strtoll(trace_epoch.c_str(), &end, 10);
    if (end == trace_epoch.c_str() || *end != '\0') {
      return Fail(Status::InvalidArgument(
          "--trace-epoch=" + trace_epoch +
          " is not an integer nanosecond reading"));
    }
    Tracer::Get().SetEpochNs(epoch);
    Tracer::Get().Enable();
  }
  if (telemetry) SweepTelemetry::Get().Enable();
  if (Status s = EnsureDirectory(tile_dir); !s.ok()) return Fail(s);

  SweepRequest req;
  req.plans = std::move(plans);
  req.space = MakeGridSpace(grid);
  if (stride > 1) {
    req.space = SubsampleSpace(req.space, static_cast<size_t>(stride));
  }
  req.study = study.value();
  req.warm_policy = warmup.value();
  req.sharded.tile_dir = tile_dir;
  std::unique_ptr<StudyEnvironment> env = MakeGridEnvironment(grid);
  // A plain study measures under the context's policy; a warm-cold study
  // keeps the context cold (its cold layer) and warms only the warm layer.
  if (req.study == StudyKind::kPlainMap) env->ctx()->warmup = warmup.value();
  // Read-only cache consultation: hits skip the measurement, misses stay
  // in this process's memory. Only the coordinator flushes — one writer,
  // however many workers race through the same directory.
  CellResultCache cache;
  if (!cache_dir.empty()) {
    cache.Open(cache_dir);
    req.cell_cache = &cache;
  }
  ServeTiles(STDIN_FILENO, answer_fd, env->ctx(), env->executor(), req);
  return 0;
}
