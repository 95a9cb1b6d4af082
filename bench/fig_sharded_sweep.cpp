// Sharded sweeps on a fine grid — the scaling step past one machine's
// cores that ROADMAP calls for. The paper's maps get interesting exactly
// when they get expensive (steps-per-octave > 1, 13+ plans); this driver
// runs such a grid sharded 1, 2, and 8 ways through the multi-process
// coordinator and self-checks the whole contract:
//
//   * every merged sharded map is bit-identical to the serial single-process
//     sweep of the same grid, whatever the worker count;
//   * a resumed sweep recomputes nothing when all tiles are valid;
//   * after deleting one tile and corrupting another, resume recomputes
//     exactly those two and still merges the identical map;
//   * every computed tile carries the wall time its sweep took;
//   * the sharded warm/cold/delta study merges the serial study's layers.
//
// Exits non-zero on any failed check — ready for CI.

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/sharded_sweep.h"

using namespace robustmap;
using namespace robustmap::bench;

namespace {

int g_failures = 0;

void Check(bool ok, const char* name, double value, const char* detail) {
  std::printf("  [%s] %-52s %10.4g   %s\n", ok ? "PASS" : "FAIL", name, value,
              detail);
  if (!ok) ++g_failures;
}

/// Removes every tile file a previous run of this figure left in `dir`,
/// so a fresh (resume = false) run starts from an empty directory: a
/// later resume must find only this run's tiles, not an older run's
/// straggler pieces to adopt.
void ClearTileDir(const std::string& dir) {
  for (const std::string& name : SortedTileFiles(dir)) {
    std::remove((dir + "/" + name).c_str());
  }
}

/// This figure's plain-map study on the sharded backend under `opts`,
/// printing per-tile progress lines when `verbose`.
SweepRequest ShardedRequest(const std::vector<PlanKind>& plans,
                            const ParameterSpace& space,
                            const ShardedSweepOptions& opts,
                            bool verbose) {
  SweepRequest req;
  req.plans = plans;
  req.space = space;
  req.backend = BackendKind::kShardedProcess;
  req.sharded = opts;
  req.sweep.verbose = verbose;
  return req;
}

}  // namespace

int main() {
  BenchScale scale = ResolveScale(/*default_row_bits=*/16,
                                  /*default_min_log2=*/-8);
  PrintHeader("Sharded sweeps: multi-process tiles on a fine grid",
              "fine grids x many plans outgrow one process; tiled sharding "
              "with lossless merge keeps maps exact",
              scale);

  StudyOptions sopts;
  sopts.row_bits = scale.row_bits;
  sopts.value_bits = scale.value_bits;
  auto env = StudyEnvironment::Create(sopts).ValueOrDie();

  // Two steps per octave: the "finer grid" refinement of §3.1, four times
  // the cells of the classic per-octave grid.
  ParameterSpace space = ParameterSpace::TwoD(
      Axis::SelectivityFine("selectivity(a)", scale.grid_min_log2, 0, 2),
      Axis::SelectivityFine("selectivity(b)", scale.grid_min_log2, 0, 2));
  const std::vector<PlanKind> plans = {
      PlanKind::kTableScan,   PlanKind::kIndexAImproved,
      PlanKind::kMergeJoinAB, PlanKind::kHashJoinAB,
      PlanKind::kMdamAB,      PlanKind::kCoverABBitmapFetch};
  std::printf("grid: %zux%zu points, %zu plans, %zu cells\n", space.x_size(),
              space.y_size(), plans.size(),
              plans.size() * space.num_points());

  WallTimer serial_timer;
  SweepRequest serial_req = StudyRequest(scale, plans, space);
  serial_req.backend = BackendKind::kSerial;
  auto serial = std::move(SweepEngine::Run(env->ctx(), env->executor(),
                                           serial_req)
                              .ValueOrDie()
                              .layers.front());
  double serial_wall = serial_timer.Seconds();
  std::printf("serial single-process sweep: %.2fs\n\n", serial_wall);

  std::string last_dir;
  size_t last_tiles = 0;
  for (unsigned workers : {1u, 2u, 8u}) {
    ShardedSweepOptions opts;
    opts.tile_dir = OutDir() + "/fig_sharded_w" + std::to_string(workers);
    opts.num_workers = workers;
    opts.resume = false;  // a fresh timing run, not a resume
    ClearTileDir(opts.tile_dir);
    WallTimer timer;
    SweepOutcome merged =
        SweepEngine::Run(env->ctx(), env->executor(),
                         ShardedRequest(plans, space, opts, scale.verbose))
            .ValueOrDie();
    double wall = timer.Seconds();
    const ShardedSweepStats& stats = merged.sharded_stats;
    std::printf("%u worker process(es): %zu tiles, %.2fs (%.2fx, "
                "balance %.2f)\n",
                workers, stats.tiles_total, wall,
                wall > 0 ? serial_wall / wall : 0.0,
                stats.busy_balance_ratio());
    Check(MapsBitIdentical(serial, merged.map()),
          ("merged map == serial map, " + std::to_string(workers) +
           " worker(s)")
              .c_str(),
          static_cast<double>(workers), "every cell equal (lossless merge)");
    last_dir = opts.tile_dir;
    last_tiles = stats.tiles_total;
  }

  // Checkpoint/resume: a second pass over the 8-way directory must reuse
  // every tile; after deleting one and flipping a byte in another it must
  // recompute exactly those two.
  {
    ShardedSweepOptions opts;
    opts.tile_dir = last_dir;
    opts.num_workers =
        scale.num_shards != 0 ? scale.num_shards : 8;  // REPRO_SHARDS
    opts.num_tiles = last_tiles;
    const ShardedSweepStats reused =
        SweepEngine::Run(env->ctx(), env->executor(),
                         ShardedRequest(plans, space, opts, scale.verbose))
            .ValueOrDie()
            .sharded_stats;
    Check(reused.tiles_reused == reused.tiles_total &&
              reused.tiles_computed == 0,
          "resume with all tiles valid recomputes nothing",
          static_cast<double>(reused.tiles_reused), "tiles reused");

    std::remove((last_dir + "/" + TileFileName(0)).c_str());
    {
      std::fstream f(last_dir + "/" + TileFileName(1),
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(64);
      f.put('\x5a');
    }
    SweepOutcome resumed =
        SweepEngine::Run(env->ctx(), env->executor(),
                         ShardedRequest(plans, space, opts, scale.verbose))
            .ValueOrDie();
    const ShardedSweepStats& stats = resumed.sharded_stats;
    // Two pending tiles on an 8-worker box is exactly the straggler shape:
    // the splitter cuts the recomputation finer (one extra tile per
    // split), but only the two damaged tiles' cells are recomputed.
    Check(stats.tiles_computed == 2 + stats.tiles_split,
          "resume recomputes only the missing + corrupt tiles",
          static_cast<double>(stats.tiles_computed),
          "tiles recomputed (1 deleted + 1 corrupted, straggler-split)");
    Check(MapsBitIdentical(serial, resumed.map()),
          "resumed map still == serial",
          1, "checkpoint damage is fully healed");
  }

  // Tile files are self-describing artifacts: every one a worker wrote
  // carries the wall time its sweep took (v2 metadata, which map_cat
  // prints). Scanned by directory, not by planned id: the heal above
  // replaced two planned tiles with straggler pieces under fresh ids and
  // left one corrupt (unreadable) file behind.
  {
    size_t read_tiles = 0;
    size_t timed_tiles = 0;
    for (const std::string& name : SortedTileFiles(last_dir)) {
      auto tile = ReadMapTileFile(last_dir + "/" + name);
      if (!tile.ok()) continue;
      ++read_tiles;
      if (tile.value().wall_seconds > 0) ++timed_tiles;
    }
    Check(read_tiles > 0 && timed_tiles == read_tiles,
          "every computed tile carries its wall time",
          static_cast<double>(timed_tiles), "timed tiles (v2 metadata)");
  }

  // Study × backend composition: the sharded warm/cold/delta study — the
  // §3.2 buffer-contents study past one process for the first time. All
  // three merged layers must be bit-identical to the serial in-process
  // warm-cold study, and a resumed run must reuse every multi-layer tile.
  {
    SweepRequest req;
    req.plans = plans;
    req.space = space;
    req.study = StudyKind::kWarmColdDelta;
    req.backend = BackendKind::kThreaded;
    req.warm_policy = WarmupPolicy::FractionResident(0.5);
    req.sweep.num_threads = 1;
    req.sweep.verbose = scale.verbose;
    SweepOutcome reference =
        SweepEngine::Run(env->ctx(), env->executor(), req).ValueOrDie();

    req.backend = BackendKind::kShardedProcess;
    req.sweep = SweepOptions{};
    req.sharded.tile_dir = OutDir() + "/fig_sharded_warmcold";
    req.sharded.num_workers = scale.num_shards != 0 ? scale.num_shards : 4;
    req.sharded.num_tiles = 8;
    req.sharded.resume = false;
    req.sweep.verbose = scale.verbose;
    ClearTileDir(req.sharded.tile_dir);
    auto sharded = SweepEngine::Run(env->ctx(), env->executor(), req)
                       .ValueOrDie();
    Check(MapsBitIdentical(reference.cold(), sharded.cold()) &&
              MapsBitIdentical(reference.warm(), sharded.warm()) &&
              MapsBitIdentical(reference.delta(), sharded.delta()),
          "sharded warm/cold/delta == serial warm-cold study", 3,
          "all three merged layers bit-identical");

    req.sharded.resume = true;
    auto resumed = SweepEngine::Run(env->ctx(), env->executor(), req)
                       .ValueOrDie();
    Check(resumed.sharded_stats.tiles_reused ==
                  resumed.sharded_stats.tiles_total &&
              resumed.sharded_stats.tiles_computed == 0 &&
              MapsBitIdentical(reference.delta(), resumed.delta()),
          "warm/cold resume reuses every multi-layer tile",
          static_cast<double>(resumed.sharded_stats.tiles_reused),
          "three-layer tiles revalidated from disk");

    ExportWarmColdMaps("fig_sharded_warmcold", reference);
  }

  ExportMap("fig_sharded_sweep", serial);

  std::printf("\n%d self-check failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
