#include <gtest/gtest.h>
#include <unistd.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cell_cache.h"
#include "core/parameter_space.h"
#include "core/sweep_engine.h"
#include "core/sweep_telemetry.h"
#include "testing/map_expect.h"
#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ExpectMapsBitIdentical;
using ::robustmap::testing::ProcEnv;

std::vector<PlanKind> StudySubset() {
  return {PlanKind::kTableScan, PlanKind::kIndexAImproved,
          PlanKind::kMergeJoinAB};
}

ParameterSpace SmallGrid() {
  return ParameterSpace::TwoD(Axis::Selectivity("a", -4, 0),
                              Axis::Selectivity("b", -4, 0));
}

SweepRequest BaseRequest(StudyKind study, BackendKind backend) {
  SweepRequest req;
  req.plans = StudySubset();
  req.space = SmallGrid();
  req.study = study;
  req.backend = backend;
  req.warm_policy = WarmupPolicy::FractionResident(0.5);
  return req;
}

uint64_t Counter(const std::map<std::string, uint64_t>& counters,
                 const std::string& name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

/// Runs `req` with telemetry freshly enabled and returns the counters it
/// recorded. Telemetry is process-global, so reset-run-snapshot must be
/// one unit.
std::map<std::string, uint64_t> RunCounting(RunContext* ctx,
                                            const Executor& executor,
                                            const SweepRequest& req,
                                            SweepOutcome* outcome) {
  SweepTelemetry::Get().Reset();
  SweepTelemetry::Get().Enable();
  auto out = SweepEngine::Run(ctx, executor, req);
  SweepTelemetry::Get().Disable();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  auto counters = SweepTelemetry::Get().Counters();
  SweepTelemetry::Get().Reset();
  if (out.ok() && outcome != nullptr) *outcome = std::move(out).value();
  return counters;
}

TEST(ProgressiveSweepTest, FinalLayersBitIdenticalAndSnapshotsFullGrid) {
  ProcEnv env;
  Executor executor(env.db());
  auto direct = SweepEngine::Run(env.ctx(), executor,
                                 BaseRequest(StudyKind::kPlainMap,
                                             BackendKind::kSerial))
                    .ValueOrDie();

  SweepRequest prog = BaseRequest(StudyKind::kPlainMap, BackendKind::kSerial);
  prog.progressive.initial_stride = 4;
  std::vector<size_t> strides_seen;
  prog.progressive.on_snapshot = [&](size_t stride,
                                     const std::vector<RobustnessMap>& layers) {
    strides_seen.push_back(stride);
    ASSERT_EQ(layers.size(), 1u);
    // Every snapshot — however coarse the lattice behind it — is
    // upsampled to the full grid, so a viewer can render any of them.
    EXPECT_EQ(layers[0].space(), prog.space);
    // The coarse lattice's own cells show their exact measured values;
    // nearest-neighbor fill only invents the in-between cells.
    for (size_t xi = 0; xi < prog.space.x_size(); xi += stride) {
      for (size_t yi = 0; yi < prog.space.y_size(); yi += stride) {
        EXPECT_EQ(layers[0].AtXY(0, xi, yi).seconds,
                  direct.map().AtXY(0, xi, yi).seconds);
      }
    }
  };
  auto refined = SweepEngine::Run(env.ctx(), executor, prog).ValueOrDie();
  EXPECT_EQ(strides_seen, (std::vector<size_t>{4, 2, 1}));
  ExpectMapsBitIdentical(direct.map(), refined.map());
}

TEST(ProgressiveSweepTest, WarmColdStudyLayersBitIdentical) {
  ProcEnv env;
  Executor executor(env.db());
  auto direct = SweepEngine::Run(env.ctx(), executor,
                                 BaseRequest(StudyKind::kWarmColdDelta,
                                             BackendKind::kSerial))
                    .ValueOrDie();

  SweepRequest prog =
      BaseRequest(StudyKind::kWarmColdDelta, BackendKind::kThreaded);
  prog.sweep.num_threads = 4;
  prog.progressive.initial_stride = 2;
  auto refined = SweepEngine::Run(env.ctx(), executor, prog).ValueOrDie();
  ASSERT_EQ(refined.layers.size(), 3u);
  for (size_t li = 0; li < 3; ++li) {
    SCOPED_TRACE(li);
    ExpectMapsBitIdentical(direct.layers[li], refined.layers[li]);
  }
}

TEST(ProgressiveSweepTest, MeasuresEachCellExactlyOnce) {
  // The tentpole claim: across all refinement levels, every (plan, point)
  // is measured exactly once — coarse-level results are cache hits at
  // every finer level, not re-measurements.
  ProcEnv env;
  Executor executor(env.db());
  SweepRequest prog =
      BaseRequest(StudyKind::kPlainMap, BackendKind::kThreaded);
  prog.sweep.num_threads = 4;
  prog.progressive.initial_stride = 4;

  SweepOutcome outcome;
  const auto counters = RunCounting(env.ctx(), executor, prog, &outcome);
  const uint64_t cells = prog.plans.size() * prog.space.num_points();
  EXPECT_EQ(Counter(counters, "sweep.cells_measured"), cells);
  EXPECT_EQ(Counter(counters, "sweep.progressive_levels"), 3u);
  // Reuse really happened: the stride-4 and stride-2 lattices are
  // sublattices of every finer level, so their cells hit at least once.
  const ParameterSpace coarse = SubsampleSpace(prog.space, 4);
  const ParameterSpace mid = SubsampleSpace(prog.space, 2);
  EXPECT_EQ(Counter(counters, "sweep.cells_reused"),
            prog.plans.size() * (coarse.num_points() + mid.num_points()));
  EXPECT_EQ(Counter(counters, "cache.hits"),
            Counter(counters, "sweep.cells_reused"));
  EXPECT_EQ(Counter(counters, "cache.hits") +
                Counter(counters, "cache.misses"),
            prog.plans.size() *
                (coarse.num_points() + mid.num_points() +
                 prog.space.num_points()));
}

TEST(ProgressiveSweepTest, WarmCacheRerunMeasuresNothing) {
  ProcEnv env;
  Executor executor(env.db());
  CellResultCache cache;  // in-memory is enough: reuse needs no disk

  SweepRequest req = BaseRequest(StudyKind::kPlainMap, BackendKind::kThreaded);
  req.sweep.num_threads = 4;
  req.cell_cache = &cache;
  SweepOutcome cold_run;
  const auto cold = RunCounting(env.ctx(), executor, req, &cold_run);
  const uint64_t cells = req.plans.size() * req.space.num_points();
  EXPECT_EQ(Counter(cold, "sweep.cells_measured"), cells);
  EXPECT_EQ(Counter(cold, "cache.misses"), cells);
  EXPECT_EQ(cache.size(), cells);

  SweepOutcome warm_run;
  const auto warm = RunCounting(env.ctx(), executor, req, &warm_run);
  EXPECT_EQ(Counter(warm, "sweep.cells_measured"), 0u);
  EXPECT_EQ(Counter(warm, "cache.hits"), cells);
  EXPECT_EQ(Counter(warm, "cache.misses"), 0u);
  ExpectMapsBitIdentical(cold_run.map(), warm_run.map());
}

TEST(ProgressiveSweepTest, RefinedGridHitsTheCoincidentHalfLattice) {
  // The refinement workflow the value-keyed fingerprint exists for: sweep
  // the one-point-per-octave grid, then re-sweep at two points per octave
  // with the same cache. `exp2(min + i/2)` at even i is bit-identical to
  // the coarse grid's `exp2(min + i/2/1)`, so the fine sweep re-measures
  // only the new half-lattice.
  ProcEnv env;
  Executor executor(env.db());
  CellResultCache cache;

  SweepRequest coarse =
      BaseRequest(StudyKind::kPlainMap, BackendKind::kSerial);
  coarse.cell_cache = &cache;
  SweepOutcome coarse_run;
  const auto first = RunCounting(env.ctx(), executor, coarse, &coarse_run);
  const uint64_t coarse_cells =
      coarse.plans.size() * coarse.space.num_points();
  EXPECT_EQ(Counter(first, "sweep.cells_measured"), coarse_cells);

  SweepRequest fine = coarse;
  fine.space = ParameterSpace::TwoD(Axis::SelectivityFine("a", -4, 0, 2),
                                    Axis::SelectivityFine("b", -4, 0, 2));
  ASSERT_EQ(fine.space.x_size(), 2 * coarse.space.x_size() - 1);
  SweepOutcome fine_run;
  const auto second = RunCounting(env.ctx(), executor, fine, &fine_run);
  const uint64_t fine_cells = fine.plans.size() * fine.space.num_points();
  EXPECT_EQ(Counter(second, "sweep.cells_reused"), coarse_cells);
  EXPECT_EQ(Counter(second, "sweep.cells_measured"),
            fine_cells - coarse_cells);

  // Reused cells carry the exact bytes a fresh measurement would have:
  // the cached fine map matches an uncached reference sweep.
  SweepRequest reference = fine;
  reference.cell_cache = nullptr;
  auto uncached =
      SweepEngine::Run(env.ctx(), executor, reference).ValueOrDie();
  ExpectMapsBitIdentical(uncached.map(), fine_run.map());
}

TEST(ProgressiveSweepTest, RejectsOrderDependentConfigurations) {
  ProcEnv env;
  Executor executor(env.db());

  SweepRequest prior = BaseRequest(StudyKind::kPlainMap, BackendKind::kSerial);
  prior.progressive.initial_stride = 2;
  env.ctx()->warmup = WarmupPolicy::PriorRun();
  EXPECT_TRUE(SweepEngine::Run(env.ctx(), executor, prior)
                  .status()
                  .IsInvalidArgument());
  env.ctx()->warmup = WarmupPolicy::Cold();

  SweepRequest warm =
      BaseRequest(StudyKind::kWarmColdDelta, BackendKind::kSerial);
  warm.progressive.initial_stride = 2;
  warm.warm_policy = WarmupPolicy::PriorRun();
  EXPECT_TRUE(SweepEngine::Run(env.ctx(), executor, warm)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace robustmap
