// Ablation (paper §4, future work): sort spill behavior.
//
// "We expect that some implementations of sorting spill their entire input
// to disk if the input size exceeds the memory size by merely a single
// record. Those sort implementations lacking graceful degradation will show
// discontinuous execution costs." This bench builds both implementations and
// shows exactly that discontinuity — and its absence under graceful
// degradation — as a 1-D robustness map over input size.

#include <cstdio>

#include "bench_util.h"
#include "common/format.h"
#include "common/rng.h"
#include "core/landmarks.h"
#include "core/sweep.h"
#include "engine/executor.h"
#include "exec/sort.h"
#include "viz/ascii_heatmap.h"

using namespace robustmap;
using namespace robustmap::bench;

namespace {

// Pipelined row source standing in for an arbitrary sub-plan: emits `n`
// rows with pseudo-random sort keys at index-entry CPU cost, so the
// measured curve isolates the *sort's* behavior.
class RowGeneratorOp : public Operator {
 public:
  explicit RowGeneratorOp(uint64_t n) : n_(n) {}

  Status Open(RunContext* ctx) override {
    (void)ctx;
    next_ = 0;
    return Status::OK();
  }
  bool Next(RunContext* ctx, Row* out) override {
    if (next_ >= n_) return false;
    ctx->ChargeCpuOps(1, ctx->cpu.index_entry_seconds);
    out->rid = next_;
    out->valid_cols = 0;
    out->SetCol(0, static_cast<int64_t>(Mix64(next_)));
    ++next_;
    return true;
  }
  void Close(RunContext* ctx) override { (void)ctx; }
  std::string DebugName() const override {
    return "RowGenerator(" + std::to_string(n_) + ")";
  }

 private:
  uint64_t n_;
  uint64_t next_ = 0;
};

// Cold-runs a generated input of `rows` rows into a sort on col 0.
Result<Measurement> RunSortRows(RunContext* ctx, uint64_t rows,
                                SpillKind kind) {
  auto source = std::make_unique<RowGeneratorOp>(rows);
  SortKeySpec key;
  key.kind = SortKeySpec::Kind::kColumn;
  key.column = 0;
  SortOp sort(std::move(source), key, kind);
  return MeasureCold(ctx, &sort);
}

}  // namespace

int main() {
  BenchScale scale = ResolveScale(/*default_row_bits=*/18, /*min_log2=*/-10);
  PrintHeader("Ablation: sort spill discontinuity (paper §4)",
              "a naive sort spills its whole input one record past memory -> "
              "discontinuous cost; a graceful external sort degrades "
              "smoothly",
              scale);
  auto env = MakeEnvironment(scale);
  // Put the memory boundary at half the table so it falls where both CPU
  // and I/O are substantial (the cliff is then the full input's I/O, not a
  // single seek).
  env->ctx()->sort_memory_bytes = (uint64_t{1} << scale.row_bits) * 8;
  uint64_t mem = env->ctx()->sort_memory_bytes;
  std::printf("sort work memory: %s (inputs are 16-byte rows; boundary at "
              "%s rows)\n\n",
              FormatBytes(mem).c_str(), FormatCount(mem / 16).c_str());

  uint64_t table_rows = env->table().num_rows();
  ParameterSpace space = ParameterSpace::OneD(Axis::SelectivityFine(
      "input fraction of table", scale.grid_min_log2, 0, 2));
  RunContextFactory factory(*env->ctx());
  auto map = SweepEngine::RunCellsParallelIndexed(
                 space, {"sort.graceful", "sort.naive"}, factory,
                 [&](RunContext* ctx, size_t plan, size_t point) {
                   uint64_t rows = static_cast<uint64_t>(
                       space.x_value(point) *
                       static_cast<double>(table_rows));
                   return RunSortRows(ctx, rows,
                                      plan == 0 ? SpillKind::kGraceful
                                                : SpillKind::kNaive);
                 },
                 SweepOpts(scale))
                 .ValueOrDie();

  PrintCurveTable(map);

  std::vector<ChartSeries> series = {
      {"sort.graceful", map.SecondsOfPlan(0)},
      {"sort.naive", map.SecondsOfPlan(1)},
  };
  ChartOptions copts;
  copts.title = "\nsort cost vs. input size (log-log)";
  copts.x_label = "input size as fraction of table";
  std::printf("%s", RenderChart(space.x().values, series, copts).c_str());

  LandmarkOptions lopts;
  lopts.discontinuity_ratio = 2.3;  // natural half-octave growth is ~1.4x
  auto graceful = AnalyzeCurve(space.x().values, map.SecondsOfPlan(0), lopts);
  auto naive = AnalyzeCurve(space.x().values, map.SecondsOfPlan(1), lopts);
  std::printf("\ndiscontinuities (cost jump > %.1fx between adjacent "
              "half-octave points):\n",
              lopts.discontinuity_ratio);
  std::printf("  graceful: %zu (expected 0)\n",
              graceful.discontinuities.size());
  std::printf("  naive:    %zu (expected >= 1)\n",
              naive.discontinuities.size());
  for (const auto& d : naive.discontinuities) {
    std::printf("    jump of %.2fx between input fractions %s and %s\n",
                d.ratio, FormatSelectivity(d.x_from).c_str(),
                FormatSelectivity(d.x_to).c_str());
  }

  // The paper's literal claim: "spill their entire input to disk if the
  // input size exceeds the memory size by merely a single record."
  uint64_t boundary = mem / 16;
  double g_at = RunSortRows(env->ctx(), boundary, SpillKind::kGraceful)
                    .ValueOrDie()
                    .seconds;
  double g_over = RunSortRows(env->ctx(), boundary + 1, SpillKind::kGraceful)
                      .ValueOrDie()
                      .seconds;
  double n_at = RunSortRows(env->ctx(), boundary, SpillKind::kNaive)
                    .ValueOrDie()
                    .seconds;
  double n_over = RunSortRows(env->ctx(), boundary + 1, SpillKind::kNaive)
                      .ValueOrDie()
                      .seconds;
  std::printf("\ncost of ONE extra input record at the memory boundary "
              "(%s rows):\n",
              FormatCount(boundary).c_str());
  std::printf("  graceful: %s -> %s (+%.0f%%)\n", FormatSeconds(g_at).c_str(),
              FormatSeconds(g_over).c_str(), (g_over / g_at - 1) * 100);
  std::printf("  naive:    %s -> %s (+%.0f%%)  <- the whole input's I/O "
              "lands at once\n",
              FormatSeconds(n_at).c_str(), FormatSeconds(n_over).c_str(),
              (n_over / n_at - 1) * 100);

  ExportMap("ablation_sort_spill", map);
  return 0;
}
