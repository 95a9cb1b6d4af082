// Warm-cache robustness maps — the §3.2 run-time condition the classic
// figures leave out.
//
// Every other figure in this repo measures cold: empty buffer pool, head
// position forgotten. Graefe, Kuno & Wiener name "buffer contents" as a
// run-time condition worth mapping, and real servers rarely run cold. This
// study pairs each cold map with a warm one — the leading half of the table
// resident, as if a scan of it had just finished — and renders the per-cell
// delta (warm minus cold) on a diverging blue/white/red scale.
//
// Two plan sets are mapped over the standard 2-D selectivity space:
//   selection — table scan vs. improved single-index plan
//   fetch     — System B's bitmap plans, which fetch every result row
//
// Self-checks (exit non-zero on failure): cold maps stay bit-identical
// across 1/4/8 sweep threads with warmup disabled; the warm map for the
// fixed warmup policy is reproducible run-to-run; a serial shared-pool
// prior-run sweep is deterministic.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/format.h"
#include "core/sweep_engine.h"
#include "viz/ascii_heatmap.h"
#include "viz/legend.h"
#include "workload/dataset.h"

using namespace robustmap;
using namespace robustmap::bench;

namespace {

int g_failures = 0;

void Check(bool ok, const char* name, double value, const char* detail) {
  std::printf("  [%s] %-52s %10.4g   %s\n", ok ? "PASS" : "FAIL", name, value,
              detail);
  if (!ok) ++g_failures;
}

struct PlanSet {
  const char* name;
  std::vector<PlanKind> plans;
};

double MinDelta(const RobustnessMap& delta) {
  double lo = std::numeric_limits<double>::infinity();
  for (size_t pl = 0; pl < delta.num_plans(); ++pl) {
    for (double v : delta.SecondsOfPlan(pl)) lo = std::min(lo, v);
  }
  return lo;
}

}  // namespace

int main() {
  BenchScale scale = ResolveScale(/*default_row_bits=*/18);
  PrintHeader("Warm-cache study: cold vs. warm robustness maps (§3.2)",
              "buffer contents are a run-time condition; cold-only maps "
              "miss an entire scenario axis",
              scale);

  // A machine whose pool can hold the whole table, so residency — not
  // capacity — is the condition under study.
  StudyOptions sopts;
  sopts.row_bits = scale.row_bits;
  sopts.value_bits = scale.value_bits;
  const uint64_t table_pages =
      (uint64_t{1} << scale.row_bits) / ProceduralTableOptions{}.rows_per_page;
  sopts.pool_pages = table_pages;
  auto env = StudyEnvironment::Create(sopts).ValueOrDie();

  // Warm state: the leading half of the table resident, as left behind by
  // a just-finished scan of it. Explicit pages make the policy independent
  // of extent layout and deterministic at any thread count.
  std::vector<uint64_t> warm_pages(table_pages / 2);
  std::iota(warm_pages.begin(), warm_pages.end(), env->table().base_page());
  WarmupPolicy warm_policy = WarmupPolicy::ExplicitPages(warm_pages);
  std::printf("warm policy: %s (half the table)\n",
              warm_policy.label().c_str());

  ParameterSpace space = ParameterSpace::TwoD(
      Axis::Selectivity("selectivity(a)", scale.grid_min_log2, 0),
      Axis::Selectivity("selectivity(b)", scale.grid_min_log2, 0));

  // Both sets touch the table: the selection plans scan or fetch it, and
  // System B's bitmap plans fetch every result row (MVCC). Covering-index
  // joins would show an all-white delta map — they never read the table, a
  // flavor of robustness of their own, but not this figure's subject.
  const std::vector<PlanSet> sets = {
      {"selection", {PlanKind::kTableScan, PlanKind::kIndexAImproved}},
      {"fetch", {PlanKind::kCoverABBitmapFetch, PlanKind::kBitmapAndFetch}},
  };

  // The engine request every sweep below varies: the warm-cold study on
  // the threaded backend over the study space.
  auto warmcold_request = [&](const std::vector<PlanKind>& plans) {
    SweepRequest req = StudyRequest(scale, plans, space);
    req.study = StudyKind::kWarmColdDelta;
    req.warm_policy = warm_policy;
    return req;
  };

  ColorScale diverging = ColorScale::DivergingSeconds();
  std::vector<SweepOutcome> results;
  for (const PlanSet& set : sets) {
    std::printf("\n--- plan set: %s ---\n", set.name);
    SweepOutcome maps = SweepEngine::Run(env->ctx(), env->executor(),
                                         warmcold_request(set.plans))
                            .ValueOrDie();

    for (size_t pl = 0; pl < maps.delta().num_plans(); ++pl) {
      HeatmapOptions hopts;
      hopts.title = "\n";
      hopts.title += set.name;
      hopts.title += " / ";
      hopts.title += maps.delta().plan_label(pl);
      hopts.title += ": warm minus cold";
      std::printf("%s",
                  RenderHeatmap(space, maps.delta().SecondsOfPlan(pl),
                                diverging, hopts)
                      .c_str());
    }
    std::printf("%s", RenderLegend(diverging).c_str());

    auto cold0 = maps.cold().SecondsOfPlan(0);
    auto warm0 = maps.warm().SecondsOfPlan(0);
    std::printf("\n%s %s: cold %s .. %s, warm %s .. %s, best delta %s\n",
                set.name, maps.cold().plan_label(0).c_str(),
                FormatSeconds(*std::min_element(cold0.begin(), cold0.end()))
                    .c_str(),
                FormatSeconds(*std::max_element(cold0.begin(), cold0.end()))
                    .c_str(),
                FormatSeconds(*std::min_element(warm0.begin(), warm0.end()))
                    .c_str(),
                FormatSeconds(*std::max_element(warm0.begin(), warm0.end()))
                    .c_str(),
                FormatSeconds(MinDelta(maps.delta())).c_str());

    ExportWarmColdMaps(std::string("fig_warm_cache_") + set.name, maps);
    results.push_back(std::move(maps));
  }

  std::printf("\nSelf-checks:\n");

  // Cold maps must stay bit-identical across backends and thread counts
  // with warmup disabled — the engine's backend axis must not perturb the
  // classic guarantee.
  {
    const std::vector<PlanKind>& plans = sets[0].plans;
    env->ctx()->warmup = WarmupPolicy::Cold();
    SweepRequest serial = StudyRequest(scale, plans, space);
    serial.backend = BackendKind::kSerial;
    auto reference = SweepEngine::Run(env->ctx(), env->executor(), serial)
                         .ValueOrDie();
    bool identical = MapsBitIdentical(reference.map(), results[0].cold());
    for (unsigned threads : {4u, 8u}) {
      SweepRequest req = StudyRequest(scale, plans, space);
      req.sweep.num_threads = threads;
      auto out = SweepEngine::Run(env->ctx(), env->executor(), req)
                     .ValueOrDie();
      identical = identical && MapsBitIdentical(reference.map(), out.map());
    }
    Check(identical, "cold map bit-identical across serial/4/8 threads", 1,
          "warmup disabled");
  }

  // The warm map under a fixed explicit-page policy must reproduce exactly.
  {
    auto again = SweepEngine::Run(env->ctx(), env->executor(),
                                  warmcold_request(sets[0].plans))
                     .ValueOrDie();
    Check(MapsBitIdentical(again.warm(), results[0].warm()),
          "warm map reproducible run-to-run", 1, "explicit page-set policy");
  }

  // The warm cache must actually help somewhere in each plan set.
  for (size_t i = 0; i < sets.size(); ++i) {
    double lo = MinDelta(results[i].delta());
    Check(lo < 0, (std::string(sets[i].name) + ": warm faster somewhere")
                      .c_str(),
          lo, "min over all cells of warm - cold seconds");
  }

  // Shared pool + prior-run warmth, serial fallback: one cache carried
  // across the whole sweep must be deterministic run-to-run.
  {
    ParameterSpace line = ParameterSpace::OneD(
        Axis::Selectivity("selectivity(a)", scale.grid_min_log2, 0));
    auto run_shared = [&]() {
      SharedBufferPool shared(sopts.pool_pages);
      SweepRequest req;
      req.plans = {PlanKind::kIndexAImproved};
      req.space = line;
      req.backend = BackendKind::kSerial;
      req.sweep.shared_pool = &shared;
      env->ctx()->warmup = WarmupPolicy::PriorRun();
      auto out = SweepEngine::Run(env->ctx(), env->executor(), req)
                     .ValueOrDie();
      env->ctx()->warmup = WarmupPolicy::Cold();
      return std::move(out.layers.front());
    };
    auto first = run_shared();
    auto second = run_shared();
    uint64_t hits = 0;
    for (size_t pt = 0; pt < line.num_points(); ++pt) {
      hits += first.At(0, pt).io.buffer_hits;
    }
    Check(MapsBitIdentical(first, second),
          "shared-pool prior-run sweep deterministic (serial)",
          static_cast<double>(hits), "cross-query buffer hits over the line");
  }

  std::printf("\n%d self-check failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
