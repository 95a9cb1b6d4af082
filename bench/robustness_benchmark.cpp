// The benchmark the paper promises as its end goal (§4): "define a
// benchmark that focuses on robustness of query execution … identify
// weaknesses in the algorithms and their implementation, track progress
// against these weaknesses, and permit daily regression testing."
//
// This binary runs the full two-predicate study and scores the executor on
// a fixed checklist of robustness criteria derived from the paper. Each
// criterion prints PASS/FAIL with its measured value, and the process exits
// non-zero if any criterion regresses — ready for a nightly CI job.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/cell_cache.h"
#include "core/landmarks.h"
#include "core/sharded_sweep.h"
#include "core/sweep_telemetry.h"
#include "core/metrics.h"
#include "core/optimality.h"
#include "core/plan_diagram.h"
#include "core/relative.h"
#include "core/sweep.h"
#include "viz/ascii_heatmap.h"

using namespace robustmap;
using namespace robustmap::bench;

namespace {

int g_failures = 0;

void Check(bool ok, const char* name, double value, const char* detail) {
  std::printf("  [%s] %-52s %10.4g   %s\n", ok ? "PASS" : "FAIL", name, value,
              detail);
  if (!ok) ++g_failures;
}

/// One timed sharded leg for the JSON artifact: wall clock, the per-worker
/// busy-time balance ratio (slowest/mean — the makespan quality of the
/// scheduler), and the lossless-merge flag.
struct ShardLeg {
  double wall_seconds = 0;
  double balance_ratio = 1;
  double busy_total_seconds = 0;  ///< summed worker busy time
  size_t tiles = 0;
  bool bit_identical = false;
};

/// The cell-cache legs for the JSON artifact: how much the warm rerun
/// reused (all of it, if the cache works), and how early a progressive
/// sweep's first coarse snapshot landed relative to its full wall time.
struct CacheLeg {
  uint64_t cells_reused = 0;
  double hit_rate = 0;
  double warm_wall_seconds = 0;
  double first_snapshot_seconds = 0;
  double progressive_wall_seconds = 0;
};

/// Upper bound of the histogram bucket where the cumulative count crosses
/// quantile `q` — a deterministic percentile estimate on the fixed 1-2-5
/// ladder (two runs recording the same counts report the same value). The
/// top quantile returns the exact observed maximum.
double HistogramQuantile(const LatencyHistogram& h, double q) {
  if (h.count == 0) return 0;
  const std::vector<double>& bounds = LatencyHistogram::Bounds();
  const double target = q * static_cast<double>(h.count);
  uint64_t acc = 0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    acc += h.buckets[i];
    if (static_cast<double>(acc) >= target) {
      return i < bounds.size() ? bounds[i] : h.max_seconds;
    }
  }
  return h.max_seconds;
}

/// The top-N telemetry counters by value (name ascending on ties, so equal
/// runs order equally) — the "what did this run actually do" digest for
/// the JSON artifact and the stdout block.
std::vector<std::pair<std::string, uint64_t>> TopCounters(size_t n) {
  std::vector<std::pair<std::string, uint64_t>> top;
  for (const auto& [name, value] : SweepTelemetry::Get().Counters()) {
    top.emplace_back(name, value);
  }
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (top.size() > n) top.resize(n);
  return top;
}

/// The perf-trajectory artifact consumed by CI: wall-clock cost of the full
/// 2-D study sweep — serial, thread-parallel, and process-sharded (uniform
/// tiles vs. the cost-weighted scheduler, same worker and tile count) — on
/// this machine, plus the per-phase wall breakdown and the run's loudest
/// telemetry counters.
void WriteBenchJson(
    const BenchScale& scale, size_t plans, size_t cells, unsigned threads,
    double serial_wall, double parallel_wall, bool bit_identical,
    unsigned shards, const ShardLeg& uniform, const ShardLeg& weighted,
    const CacheLeg& cached,
    const std::vector<std::pair<std::string, double>>& phase_walls) {
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  // A speedup measured with more threads than the box has (or on a
  // single-core box) says nothing about the sweep engine; flag it so the
  // perf-trajectory consumer never trends a meaningless ratio.
  const bool speedup_meaningful =
      hardware_threads >= 2 && threads <= hardware_threads;
  if (!speedup_meaningful) {
    std::fprintf(stderr,
                 "robustness_benchmark: %u sweep threads on %u hardware "
                 "thread(s) — wall-clock speedups are not meaningful on "
                 "this box\n",
                 threads, hardware_threads);
  }
  std::FILE* f = std::fopen("BENCH_robustness.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_robustness.json\n");
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"robustness_sweep_2d\",\n"
               "  \"row_bits\": %d,\n"
               "  \"plans\": %zu,\n"
               "  \"cells\": %zu,\n"
               "  \"threads\": %u,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"speedup_meaningful\": %s,\n"
               "  \"serial_wall_seconds\": %.6f,\n"
               "  \"parallel_wall_seconds\": %.6f,\n"
               "  \"speedup\": %.3f,\n"
               "  \"serial_cells_per_second\": %.3f,\n"
               "  \"parallel_cells_per_second\": %.3f,\n"
               "  \"bit_identical\": %s,\n"
               "  \"shard_workers\": %u,\n"
               "  \"shard_tiles\": %zu,\n"
               "  \"sharded_cost_model\": \"%s\",\n"
               "  \"sharded_wall_seconds\": %.6f,\n"
               "  \"sharded_speedup\": %.3f,\n"
               "  \"sharded_balance_ratio\": %.3f,\n"
               "  \"sharded_bit_identical\": %s,\n"
               "  \"sharded_uniform_wall_seconds\": %.6f,\n"
               "  \"sharded_uniform_balance_ratio\": %.3f,\n"
               "  \"sharded_uniform_bit_identical\": %s,\n",
               scale.row_bits, plans, cells, threads, hardware_threads,
               speedup_meaningful ? "true" : "false", serial_wall,
               parallel_wall,
               parallel_wall > 0 ? serial_wall / parallel_wall : 0.0,
               serial_wall > 0 ? static_cast<double>(cells) / serial_wall
                               : 0.0,
               parallel_wall > 0 ? static_cast<double>(cells) / parallel_wall
                                 : 0.0,
               bit_identical ? "true" : "false", shards, weighted.tiles,
               CostModelKindName(scale.cost_model), weighted.wall_seconds,
               weighted.wall_seconds > 0 ? serial_wall / weighted.wall_seconds
                                         : 0.0,
               weighted.balance_ratio,
               weighted.bit_identical ? "true" : "false",
               uniform.wall_seconds, uniform.balance_ratio,
               uniform.bit_identical ? "true" : "false");
  std::fprintf(f,
               "  \"cells_reused\": %llu,\n"
               "  \"cache_hit_rate\": %.4f,\n"
               "  \"cache_warm_wall_seconds\": %.6f,\n"
               "  \"time_to_first_snapshot_seconds\": %.6f,\n"
               "  \"progressive_wall_seconds\": %.6f,\n",
               static_cast<unsigned long long>(cached.cells_reused),
               cached.hit_rate, cached.warm_wall_seconds,
               cached.first_snapshot_seconds,
               cached.progressive_wall_seconds);
  std::fprintf(f, "  \"phase_walls_seconds\": {");
  for (size_t i = 0; i < phase_walls.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %.6f", i == 0 ? "" : ",",
                 phase_walls[i].first.c_str(), phase_walls[i].second);
  }
  std::fprintf(f, "\n  },\n");
  // Per-cell wall-time spread across every sweep leg of this run, from the
  // sweep.cell_seconds telemetry histogram (p50/p95 are bucket upper
  // bounds on the fixed 1-2-5 ladder; max is exact).
  const auto histograms = SweepTelemetry::Get().Histograms();
  if (const auto it = histograms.find("sweep.cell_seconds");
      it != histograms.end() && it->second.count > 0) {
    const LatencyHistogram& h = it->second;
    std::fprintf(f,
                 "  \"cell_seconds\": {\n"
                 "    \"count\": %llu,\n"
                 "    \"p50\": %.6g,\n"
                 "    \"p95\": %.6g,\n"
                 "    \"max\": %.6g\n"
                 "  },\n",
                 static_cast<unsigned long long>(h.count),
                 HistogramQuantile(h, 0.50), HistogramQuantile(h, 0.95),
                 h.max_seconds);
  }
  const auto top = TopCounters(8);
  std::fprintf(f, "  \"top_counters\": {");
  for (size_t i = 0; i < top.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %llu", i == 0 ? "" : ",",
                 top[i].first.c_str(),
                 static_cast<unsigned long long>(top[i].second));
  }
  std::fprintf(f,
               "%s  },\n"
               "  \"criterion_failures\": %d\n"
               "}\n",
               top.empty() ? "" : "\n", g_failures);
  std::fclose(f);
  std::printf("\n[artifacts] BENCH_robustness.json written (threads %.2fx on "
              "%u, processes %.2fx on %u, balance %.2f vs %.2f uniform)\n",
              parallel_wall > 0 ? serial_wall / parallel_wall : 0.0, threads,
              weighted.wall_seconds > 0
                  ? serial_wall / weighted.wall_seconds
                  : 0.0,
              shards, weighted.balance_ratio, uniform.balance_ratio);
  if (!top.empty()) {
    std::printf("[telemetry] loudest counters:\n");
    for (const auto& [name, value] : top) {
      std::printf("  %-32s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
}

}  // namespace

int main() {
  BenchScale scale = ResolveScale(/*default_row_bits=*/18);
  PrintHeader("Robustness benchmark (the paper's §4 end goal)",
              "a fixed scorecard of executor-robustness criteria for "
              "regression testing",
              scale);
  // Telemetry is always on here — the scorecard artifact carries the
  // top-counter digest — and REPRO_TRACE additionally records a full span
  // trace. Sidecar-only either way: the bit-identity criteria below run
  // with both sinks live, so they double as the no-perturbation check.
  SweepTelemetry::Get().Enable();
  const std::string trace_path = EnvString("REPRO_TRACE");
  const std::string telemetry_path = EnvString("REPRO_TELEMETRY");
  if (!trace_path.empty()) Tracer::Get().Enable();
  std::vector<std::pair<std::string, double>> phase_walls;
  auto env = MakeEnvironment(scale);

  // 1-D criteria over the single-predicate study.
  WallTimer curves_timer;
  ParameterSpace line = ParameterSpace::OneD(
      Axis::Selectivity("selectivity(a)", scale.grid_min_log2, 0));
  auto curves = RunStudyMap(env.get(),
                            {PlanKind::kTableScan, PlanKind::kIndexANaive,
                             PlanKind::kIndexAImproved},
                            line, scale);
  phase_walls.emplace_back("curves_1d", curves_timer.Seconds());

  std::printf("\n1-D criteria (Figure 1 family):\n");
  for (size_t pl = 0; pl < curves.num_plans(); ++pl) {
    auto lm = AnalyzeCurve(line.x().values, curves.SecondsOfPlan(pl));
    Check(lm.monotonicity_violations.empty(),
          ("monotone cost: " + curves.plan_label(pl)).c_str(),
          static_cast<double>(lm.monotonicity_violations.size()),
          "violations (must be 0, §3.1)");
    Check(lm.discontinuities.empty(),
          ("no cost cliffs: " + curves.plan_label(pl)).c_str(),
          static_cast<double>(lm.discontinuities.size()),
          "jumps >8x per octave (must be 0, §4)");
  }
  double improved_ratio =
      curves.SecondsOfPlan(2).back() / curves.SecondsOfPlan(0).back();
  Check(improved_ratio < 4.0, "improved IS at 100% vs. table scan",
        improved_ratio, "x (paper: ~2.5x; >4x = regression)");

  // 2-D criteria over the full 13-plan study.
  ParameterSpace grid = ParameterSpace::TwoD(
      Axis::Selectivity("selectivity(a)", scale.grid_min_log2, 0),
      Axis::Selectivity("selectivity(b)", scale.grid_min_log2, 0));
  // The 13-plan 2-D sweep is the benchmark's dominant cost — thousands of
  // independent cells. Run it serially, then on a thread pool, timing both:
  // the parallel map must reproduce the serial map bit for bit, and the
  // wall-clock ratio is the headline number of BENCH_robustness.json.
  SweepRequest serial_req = StudyRequest(scale, AllStudyPlans(), grid);
  serial_req.backend = BackendKind::kSerial;
  WallTimer serial_timer;
  auto serial_map = std::move(SweepEngine::Run(env->ctx(), env->executor(),
                                               serial_req)
                                  .ValueOrDie()
                                  .layers.front());
  double serial_wall = serial_timer.Seconds();
  phase_walls.emplace_back("serial_2d", serial_wall);

  // An explicit REPRO_THREADS is honored as-is; only the default (0 =
  // auto) is widened to at least 8 so the speedup leg exercises a real
  // thread pool even on small machines.
  SweepRequest parallel_req = StudyRequest(scale, AllStudyPlans(), grid);
  if (parallel_req.sweep.num_threads == 0) {
    parallel_req.sweep.num_threads =
        std::max(8u, std::thread::hardware_concurrency());
  }
  SweepOptions parallel_opts = parallel_req.sweep;
  WallTimer parallel_timer;
  auto map = std::move(SweepEngine::Run(env->ctx(), env->executor(),
                                        parallel_req)
                           .ValueOrDie()
                           .layers.front());
  double parallel_wall = parallel_timer.Seconds();
  phase_walls.emplace_back("parallel_2d", parallel_wall);

  bool bit_identical = MapsBitIdentical(serial_map, map);
  std::printf("\n2-D sweep wall clock: serial %.2fs, %u threads %.2fs "
              "(%.2fx)\n",
              serial_wall, parallel_opts.num_threads, parallel_wall,
              parallel_wall > 0 ? serial_wall / parallel_wall : 0.0);

  // Third leg: the same grid sharded across worker *processes* through the
  // checkpointing coordinator (tiles + fork + merge), timed against the
  // serial sweep — twice at the same worker and tile count: once with the
  // legacy uniform tiles, once under the cost model (REPRO_COST_MODEL,
  // default analytic). The study grid is exactly the skewed case the cost
  // layer exists for: cell cost rises steeply toward sel=1, so uniform
  // tiles leave the worker holding the top band far behind its peers.
  // resume=false so the timings measure computation, never a warm
  // checkpoint directory left by an earlier run.
  const unsigned shard_workers =
      scale.num_shards != 0 ? scale.num_shards : 8;
  // In-memory cell-result cache for the reuse legs below. The weighted
  // sharded leg runs with it attached: its post-merge publishes fill the
  // cache as a side effect of work the leg does anyway, so the warm
  // rerun's reuse is measured without paying for an extra cold sweep.
  CellResultCache cell_cache;
  auto run_shard_leg = [&](CostModelKind model, const std::string& dir,
                           CellResultCache* cache) -> ShardLeg {
    SweepRequest req = StudyRequest(scale, AllStudyPlans(), grid);
    req.backend = BackendKind::kShardedProcess;
    req.sharded.tile_dir = OutDir() + "/" + dir;
    req.sharded.num_workers = shard_workers;
    req.sharded.resume = false;
    req.sharded.cost_model = model;
    req.cell_cache = cache;
    WallTimer timer;
    auto out = SweepEngine::Run(env->ctx(), env->executor(), req)
                   .ValueOrDie();
    const ShardedSweepStats& stats = out.sharded_stats;
    ShardLeg leg;
    leg.wall_seconds = timer.Seconds();
    leg.balance_ratio = stats.busy_balance_ratio();
    for (double busy : stats.worker_busy_seconds) {
      leg.busy_total_seconds += busy;
    }
    leg.tiles = stats.tiles_total;
    leg.bit_identical = MapsBitIdentical(serial_map, out.map());
    std::printf("sharded across %u workers (%s tiles): %.2fs (%.2fx, "
                "balance %.2f)\n",
                shard_workers, CostModelKindName(model), leg.wall_seconds,
                leg.wall_seconds > 0 ? serial_wall / leg.wall_seconds : 0.0,
                leg.balance_ratio);
    return leg;
  };
  const ShardLeg uniform_leg = run_shard_leg(
      CostModelKind::kUniform, "robustness_shards_uniform", nullptr);
  phase_walls.emplace_back("sharded_uniform", uniform_leg.wall_seconds);
  const ShardLeg weighted_leg =
      run_shard_leg(scale.cost_model, "robustness_shards", &cell_cache);
  phase_walls.emplace_back("sharded_weighted", weighted_leg.wall_seconds);
  bool sharded_bit_identical =
      uniform_leg.bit_identical && weighted_leg.bit_identical;

  // Fourth leg, the "never measure a cell twice" half of the scorecard: a
  // threaded rerun of the full study against the cache the weighted leg
  // just filled. Every cell must come back as a hit — zero measurements —
  // and the resulting map must still equal the serial one bit for bit.
  CacheLeg cache_leg;
  const auto counter = [](const std::map<std::string, uint64_t>& c,
                          const char* name) -> uint64_t {
    const auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
  };
  const auto before = SweepTelemetry::Get().Counters();
  SweepRequest warm_req = StudyRequest(scale, AllStudyPlans(), grid);
  warm_req.cell_cache = &cell_cache;
  WallTimer warm_timer;
  auto warm_map = std::move(
      SweepEngine::Run(env->ctx(), env->executor(), warm_req)
          .ValueOrDie()
          .layers.front());
  cache_leg.warm_wall_seconds = warm_timer.Seconds();
  phase_walls.emplace_back("cache_warm", cache_leg.warm_wall_seconds);
  const auto after = SweepTelemetry::Get().Counters();
  cache_leg.cells_reused = counter(after, "sweep.cells_reused") -
                           counter(before, "sweep.cells_reused");
  const uint64_t hits =
      counter(after, "cache.hits") - counter(before, "cache.hits");
  const uint64_t misses =
      counter(after, "cache.misses") - counter(before, "cache.misses");
  cache_leg.hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  const bool warm_bit_identical = MapsBitIdentical(serial_map, warm_map);
  std::printf("cache-warm rerun: %.2fs, %llu of %zu cells reused "
              "(hit rate %.3f)\n",
              cache_leg.warm_wall_seconds,
              static_cast<unsigned long long>(cache_leg.cells_reused),
              map.num_plans() * grid.num_points(), cache_leg.hit_rate);

  // Fifth leg: the same study swept coarse-to-fine on a fresh cache (the
  // engine brings its own when the request carries none), timing how early
  // the first stride-8 snapshot lands relative to the full-resolution
  // finish — the progressive mode's reason to exist.
  SweepRequest prog_req = StudyRequest(scale, AllStudyPlans(), grid);
  prog_req.progressive.initial_stride = 8;
  WallTimer prog_timer;
  prog_req.progressive.on_snapshot =
      [&](size_t stride, const std::vector<RobustnessMap>&) {
        if (cache_leg.first_snapshot_seconds == 0) {
          cache_leg.first_snapshot_seconds = prog_timer.Seconds();
        }
        if (scale.verbose) {
          std::fprintf(stderr, "  progressive: stride-%zu snapshot at "
                       "%.2fs\n",
                       stride, prog_timer.Seconds());
        }
      };
  auto prog_map = std::move(
      SweepEngine::Run(env->ctx(), env->executor(), prog_req)
          .ValueOrDie()
          .layers.front());
  cache_leg.progressive_wall_seconds = prog_timer.Seconds();
  phase_walls.emplace_back("progressive", cache_leg.progressive_wall_seconds);
  const bool progressive_bit_identical =
      MapsBitIdentical(serial_map, prog_map);
  std::printf("progressive sweep: first snapshot %.2fs, full map %.2fs\n",
              cache_leg.first_snapshot_seconds,
              cache_leg.progressive_wall_seconds);

  WallTimer analysis_timer;
  RelativeMap rel = ComputeRelative(map);

  std::printf("\n2-D criteria (Figures 4-10 family):\n");
  SymmetryScore mj = ComputeSymmetry(
      grid, map.SecondsOfPlan(map.PlanIndexOf("A.mj(a,b)").ValueOrDie()));
  Check(mj.is_symmetric(), "merge join symmetry", mj.max_abs_log2_ratio,
        "max |log2 ratio| (must be <0.33, Figure 5)");

  size_t mdam = map.PlanIndexOf("C.mdam(a,b)").ValueOrDie();
  double mdam_worst = WorstQuotient(rel, mdam);
  Check(mdam_worst < 50, "MDAM covering plan worst-case factor", mdam_worst,
        "x vs. best of 13 (Figure 9: reasonable everywhere)");

  size_t cover_b = map.PlanIndexOf("B.cover(a,b).bitmap").ValueOrDie();
  size_t single_a = map.PlanIndexOf("A.idx_a.improved").ValueOrDie();
  Check(WorstQuotient(rel, cover_b) < WorstQuotient(rel, single_a),
        "covering beats single-index worst case",
        WorstQuotient(rel, cover_b) / WorstQuotient(rel, single_a),
        "ratio of worst factors (must be <1, Figure 8)");

  OptimalityMap opt = ComputeOptimality(map, ToleranceSpec{0.0, 1.20});
  size_t multi = 0;
  for (int c : opt.counts) {
    if (c >= 2) ++multi;
  }
  double multi_frac = static_cast<double>(multi) / opt.counts.size();
  Check(multi_frac > 0.5, "points with multiple near-optimal plans",
        multi_frac * 100, "% at 20% tolerance (Figure 10)");

  PlanDiagram diagram = ComputePlanDiagram(map, ToleranceSpec{0.0, 1.01});
  double frag = 0;
  for (const RegionStats& r : diagram.winner_regions) {
    frag = std::max(frag, r.fragmentation);
  }
  Check(frag < 0.5, "optimality regions not shattered", frag,
        "max fragmentation (irregular regions = idiosyncrasies, §3.4)");

  std::printf("\nSweep-engine criteria:\n");
  Check(bit_identical, "parallel sweep bit-identical to serial",
        bit_identical ? 1 : 0, "every cell equal (determinism contract)");
  Check(sharded_bit_identical, "sharded sweep bit-identical to serial",
        sharded_bit_identical ? 1 : 0,
        "merged tiles equal serial map, uniform and cost-weighted");
  Check(warm_bit_identical, "cache-warm sweep bit-identical to serial",
        warm_bit_identical ? 1 : 0,
        "a map built from cache hits equals a measured one");
  const size_t study_cells = map.num_plans() * grid.num_points();
  Check(cache_leg.cells_reused == study_cells,
        "cache-warm sweep measures nothing",
        static_cast<double>(cache_leg.cells_reused),
        "cells reused (must equal the cell count)");
  Check(progressive_bit_identical,
        "progressive sweep bit-identical to serial",
        progressive_bit_identical ? 1 : 0,
        "coarse-to-fine refinement converges to the direct map");
  Check(cache_leg.first_snapshot_seconds > 0,
        "progressive sweep delivered a coarse snapshot",
        cache_leg.first_snapshot_seconds,
        "seconds to first snapshot (wall-clock, reported not trended)");
  // The cost layer's reason to exist: at equal worker and tile counts on
  // the skewed study grid, cost-weighted tiles + heaviest-first dispatch
  // must not leave workers more imbalanced than uniform tiles did. This
  // is the scorecard's only wall-clock-dependent criterion, so it guards
  // itself against noise twice over: a slack term for scheduling jitter,
  // and at sub-second busy totals (where fork and dispatch overhead
  // dominate any real signal) the ratios are reported but not gated.
  const bool balance_measurable = uniform_leg.busy_total_seconds >= 1.0 &&
                                  weighted_leg.busy_total_seconds >= 1.0;
  Check(!balance_measurable ||
            weighted_leg.balance_ratio <=
                uniform_leg.balance_ratio * 1.10 + 0.10,
        "cost-weighted scheduling balances workers",
        weighted_leg.balance_ratio,
        (std::string("slowest/mean busy vs ") +
         std::to_string(uniform_leg.balance_ratio).substr(0, 4) +
         " for uniform tiles" +
         (balance_measurable ? "" : " (too fast to gate, reported only)"))
            .c_str());

  phase_walls.emplace_back("analysis", analysis_timer.Seconds());
  WriteBenchJson(scale, map.num_plans(),
                 map.num_plans() * grid.num_points(),
                 parallel_opts.num_threads, serial_wall, parallel_wall,
                 bit_identical, shard_workers, uniform_leg, weighted_leg,
                 cache_leg, phase_walls);
  if (!trace_path.empty()) {
    if (Status s = Tracer::Get().WriteFile(trace_path); !s.ok()) {
      std::fprintf(stderr, "robustness_benchmark: %s\n",
                   s.ToString().c_str());
    }
  }
  if (!telemetry_path.empty()) {
    if (Status s = SweepTelemetry::Get().WriteFile(telemetry_path);
        !s.ok()) {
      std::fprintf(stderr, "robustness_benchmark: %s\n",
                   s.ToString().c_str());
    }
  }

  std::printf("\n%s: %d criterion failure(s)\n",
              g_failures == 0 ? "ROBUSTNESS BENCHMARK PASSED"
                              : "ROBUSTNESS BENCHMARK FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
