// Ablation: row-fetch policy — what exactly makes the "improved" index scan
// improved, and how much the buffer pool hides the difference.
//
// Compares per-rid naive fetches, sorted (skip-sequential) fetches, and
// System B's bitmap-ordered fetches on the same index scan, then repeats the
// naive policy with a 16x larger buffer pool to separate algorithmic
// robustness from cache luck.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/format.h"
#include "core/sweep.h"
#include "exec/fetch.h"
#include "exec/index_scan.h"
#include "viz/ascii_heatmap.h"

using namespace robustmap;
using namespace robustmap::bench;

namespace {

Result<Measurement> RunFetchPlan(RunContext* ctx, const StudyEnvironment* env,
                                 double sel, FetchPolicy policy) {
  QuerySpec q = env->MakeQuery(sel, -1);
  IndexScanOptions so;
  so.k0_lo = q.pred_a.lo;
  so.k0_hi = q.pred_a.hi;
  auto scan = std::make_unique<IndexScanOp>(env->db().idx_a, so);
  FetchOp fetch(std::move(scan), env->db().table, policy, {});

  ctx->ColdStart();
  VirtualStopwatch watch(ctx->clock);
  auto rows = DrainCount(ctx, &fetch);
  RM_RETURN_IF_ERROR(rows.status());
  Measurement m;
  m.seconds = watch.elapsed_seconds();
  m.output_rows = rows.value();
  return m;
}

}  // namespace

int main() {
  BenchScale scale = ResolveScale(/*default_row_bits=*/18);
  PrintHeader("Ablation: fetch policy (naive / sorted / bitmap) and buffer "
              "pool size",
              "sorted and bitmap fetches turn random I/O into a "
              "skip-sequential sweep; a larger pool only delays the naive "
              "policy's collapse",
              scale);
  auto env = MakeEnvironment(scale);

  ParameterSpace space = ParameterSpace::OneD(
      Axis::Selectivity("selectivity(a)", scale.grid_min_log2, 0));
  RunContextFactory factory(*env->ctx());
  auto map =
      SweepEngine::RunCellsParallelIndexed(
          space, {"fetch.naive", "fetch.sorted", "fetch.bitmap"}, factory,
          [&](RunContext* ctx, size_t plan, size_t point) {
            FetchPolicy p = plan == 0   ? FetchPolicy::kNaive
                            : plan == 1 ? FetchPolicy::kSorted
                                        : FetchPolicy::kBitmap;
            return RunFetchPlan(ctx, env.get(), space.x_value(point), p);
          },
          SweepOpts(scale))
          .ValueOrDie();
  PrintCurveTable(map);

  std::vector<ChartSeries> series;
  for (size_t pl = 0; pl < map.num_plans(); ++pl) {
    series.push_back({map.plan_label(pl), map.SecondsOfPlan(pl)});
  }
  ChartOptions copts;
  copts.title = "\nfetch cost vs. selectivity (log-log)";
  copts.x_label = "selectivity of predicate on a";
  std::printf("%s", RenderChart(space.x().values, series, copts).c_str());

  // Buffer pool sensitivity: same naive policy, 16x pool.
  StudyOptions big = env->options();
  big.pool_pages = std::max<uint64_t>(
      4096, (uint64_t{1} << big.row_bits) / 64 / 64 * 16);
  auto env_big = StudyEnvironment::Create(big).ValueOrDie();
  std::printf("\nnaive fetch with %s-page pool vs. %s-page pool:\n",
              FormatCount(env_big->ctx()->pool->capacity_pages()).c_str(),
              FormatCount(env->ctx()->pool->capacity_pages()).c_str());
  TextTable t({"selectivity", "naive (small pool)", "naive (16x pool)",
               "sorted (small pool)"});
  for (int lg = scale.grid_min_log2; lg <= 0; lg += 4) {
    double s = std::exp2(lg);
    auto small_naive =
        RunFetchPlan(env->ctx(), env.get(), s, FetchPolicy::kNaive);
    auto large_naive =
        RunFetchPlan(env_big->ctx(), env_big.get(), s, FetchPolicy::kNaive);
    auto small_sorted =
        RunFetchPlan(env->ctx(), env.get(), s, FetchPolicy::kSorted);
    t.AddRow({FormatSelectivity(s),
              FormatSeconds(small_naive.ValueOrDie().seconds),
              FormatSeconds(large_naive.ValueOrDie().seconds),
              FormatSeconds(small_sorted.ValueOrDie().seconds)});
  }
  std::printf("%s", t.ToString().c_str());

  ExportMap("ablation_fetch_policy", map);
  return 0;
}
