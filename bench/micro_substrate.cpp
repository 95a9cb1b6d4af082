// Substrate micro-benchmarks (google-benchmark): regression tracking for
// the data structures the simulator's wall-clock performance rests on,
// plus the executor hot paths a sweep spends its cells in — B-tree
// descent, the three fetch policies, hash-join build/probe, the
// cold-start-vs-recycle cost of a simulated machine — and the cell-cache
// layer of the engine loop: keying, concurrent lookup, and flushing.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/permutation.h"
#include "common/rng.h"
#include "core/cell_cache.h"
#include "engine/executor.h"
#include "exec/hash_join.h"
#include "index/btree.h"
#include "index/procedural_index.h"
#include "io/buffer_pool.h"
#include "io/run_context.h"
#include "storage/procedural_table.h"
#include "workload/dataset.h"
#include "workload/distributions.h"

namespace robustmap {
namespace {

void BM_Mix64(benchmark::State& state) {
  uint64_t x = 12345;
  for (auto _ : state) {
    x = Mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

void BM_FeistelPermute(benchmark::State& state) {
  FeistelPermutation perm(24, 7);
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(perm.Permute(x++ & 0xffffff));
  }
}
BENCHMARK(BM_FeistelPermute);

void BM_FeistelInverse(benchmark::State& state) {
  FeistelPermutation perm(24, 7);
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(perm.Inverse(x++ & 0xffffff));
  }
}
BENCHMARK(BM_FeistelInverse);

void BM_BTreeBulkLoad(benchmark::State& state) {
  int64_t n = state.range(0);
  std::vector<IndexEntry> entries;
  entries.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    entries.push_back({i / 4, 0, static_cast<Rid>(i)});
  }
  for (auto _ : state) {
    VirtualClock clock;
    SimDevice device(DiskParameters{}, &clock);
    BTreeOptions opts;
    opts.key_columns = {0};
    auto tree = BTree::BulkLoad(&device, entries, opts);
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeBulkLoad)->Arg(100000);

void BM_BTreeSeek(benchmark::State& state) {
  std::vector<IndexEntry> entries;
  for (int64_t i = 0; i < 100000; ++i) {
    entries.push_back({i, 0, static_cast<Rid>(i)});
  }
  VirtualClock clock;
  SimDevice device(DiskParameters{}, &clock);
  LruBufferPool pool(&device, 4096);
  RunContext ctx;
  ctx.clock = &clock;
  ctx.device = &device;
  ctx.pool = &pool;
  BTreeOptions opts;
  opts.key_columns = {0};
  auto tree = BTree::BulkLoad(&device, entries, opts).ValueOrDie();
  Rng rng(3);
  for (auto _ : state) {
    auto c = tree->Seek(&ctx, static_cast<int64_t>(rng.NextBounded(100000)),
                        INT64_MIN);
    benchmark::DoNotOptimize(c->Valid());
  }
}
BENCHMARK(BM_BTreeSeek);

void BM_ProceduralIndexEntryAt(benchmark::State& state) {
  VirtualClock clock;
  SimDevice device(DiskParameters{}, &clock);
  ProceduralTableOptions topts;
  topts.row_bits = 20;
  topts.value_bits = 14;
  auto table = ProceduralTable::Create(&device, topts).ValueOrDie();
  ProceduralIndexOptions iopts;
  iopts.key_columns = {0};
  auto index =
      ProceduralIndex::Create(&device, table.get(), iopts).ValueOrDie();
  uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->EntryAt(k++ & ((1u << 20) - 1)));
  }
}
BENCHMARK(BM_ProceduralIndexEntryAt);

void BM_BufferPoolAccess(benchmark::State& state) {
  VirtualClock clock;
  SimDevice device(DiskParameters{}, &clock);
  device.AllocateExtent(1 << 20);
  LruBufferPool pool(&device, 8192);
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Access(rng.NextBounded(16384)));
  }
}
BENCHMARK(BM_BufferPoolAccess);

void BM_RidMapInsertFind(benchmark::State& state) {
  int64_t n = state.range(0);
  for (auto _ : state) {
    RidMap map(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      map.Insert(static_cast<Rid>(i * 3), static_cast<uint32_t>(i));
    }
    uint32_t hits = 0;
    for (int64_t i = 0; i < n; ++i) {
      hits += map.Find(static_cast<Rid>(i)) != UINT32_MAX ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_RidMapInsertFind)->Arg(100000);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(65536, 0.99);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample);

// ---- Executor hot paths -------------------------------------------------
// One shared study environment (2^18 rows — small enough to build once in
// milliseconds, large enough that plans run their real code paths), the
// same database every cell of a sweep executes against.

StudyEnvironment& MicroEnv() {
  static std::unique_ptr<StudyEnvironment> env = [] {
    StudyOptions opts;
    opts.row_bits = 18;
    return StudyEnvironment::Create(opts).ValueOrDie();
  }();
  return *env;
}

// Measures one full cell — ColdStart, plan execution, drain — for `kind`
// at 1% selectivity on both predicates: the per-cell unit the batched
// sweep loops amortize their setup across.
void RunPlanCell(benchmark::State& state, PlanKind kind) {
  StudyEnvironment& env = MicroEnv();
  const Executor::PreparedPlan plan =
      env.executor().Prepare(kind).ValueOrDie();
  const QuerySpec query = env.MakeQuery(0.01, 0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        env.executor().Run(env.ctx(), plan, query).ValueOrDie());
  }
}

// The three fetch policies of exec/fetch.h, as the study plans exercise
// them: per-rid random fetches, rid-sorted skip-sequential sweep, and the
// bitmap-ordered variant.
void BM_FetchNaive(benchmark::State& state) {
  RunPlanCell(state, PlanKind::kIndexANaive);
}
BENCHMARK(BM_FetchNaive);

void BM_FetchSorted(benchmark::State& state) {
  RunPlanCell(state, PlanKind::kIndexAImproved);
}
BENCHMARK(BM_FetchSorted);

void BM_FetchBitmap(benchmark::State& state) {
  RunPlanCell(state, PlanKind::kCoverABBitmapFetch);
}
BENCHMARK(BM_FetchBitmap);

// Hash-join build + probe (rid intersection over both single-column
// indexes), and the covering merge join it competes with.
void BM_HashJoinBuildProbe(benchmark::State& state) {
  RunPlanCell(state, PlanKind::kHashJoinAB);
}
BENCHMARK(BM_HashJoinBuildProbe);

void BM_MergeJoinCell(benchmark::State& state) {
  RunPlanCell(state, PlanKind::kMergeJoinAB);
}
BENCHMARK(BM_MergeJoinCell);

// Cold start vs. arena recycle of a simulated machine, measured around the
// same cell. `page_node_allocs` counts fresh LRU node heap allocations per
// iteration: a recycled machine re-reads its pages into recycled nodes, so
// the counter must sit well below the cold-start figure — the deterministic
// form of the speedup, independent of the host's allocator and load.
void MachineCell(benchmark::State& state, bool recycle) {
  StudyEnvironment& env = MicroEnv();
  RunContextFactory factory(*env.ctx());
  const Executor::PreparedPlan plan =
      env.executor().Prepare(PlanKind::kIndexAImproved).ValueOrDie();
  const QuerySpec query = env.MakeQuery(0.01, 0.01);
  if (recycle) factory.Release(factory.Create());
  uint64_t node_allocs = 0;
  for (auto _ : state) {
    std::unique_ptr<OwnedRunContext> machine =
        recycle ? factory.Acquire() : factory.Create();
    const uint64_t before = machine->ctx()->pool->node_allocations();
    benchmark::DoNotOptimize(
        env.executor().Run(machine->ctx(), plan, query).ValueOrDie());
    node_allocs += machine->ctx()->pool->node_allocations() - before;
    if (recycle) factory.Release(std::move(machine));
  }
  state.counters["page_node_allocs"] = benchmark::Counter(
      static_cast<double>(node_allocs), benchmark::Counter::kAvgIterations);
}

void BM_MachineColdStart(benchmark::State& state) {
  MachineCell(state, /*recycle=*/false);
}
BENCHMARK(BM_MachineColdStart);

void BM_MachineRecycle(benchmark::State& state) {
  MachineCell(state, /*recycle=*/true);
}
BENCHMARK(BM_MachineRecycle);

// The cell-cache layer of the engine loop. Keys and measurements come from
// run-time indices and a seeded RNG, so nothing folds away.
Measurement CacheMeasurement(uint64_t i) {
  static const std::vector<PlanKind> plans = AllStudyPlans();
  Measurement m;
  m.seconds = static_cast<double>(i) * 1e-3;
  m.output_rows = i;
  m.io.random_reads = i % 97;
  m.plan_label = PlanKindLabel(plans[i % plans.size()]);
  return m;
}

void BM_CellFingerprint(benchmark::State& state) {
  Rng rng(13);
  const uint64_t env = rng.Next();
  const std::string spec = "cold";
  const std::string label = PlanKindLabel(PlanKind::kCoverABBitmapFetch);
  double x = rng.NextDouble();
  for (auto _ : state) {
    const uint64_t key = CellFingerprint(env, "plain", spec, label, x, 0.5);
    benchmark::DoNotOptimize(key);
    x += 0x1p-20;
  }
}
BENCHMARK(BM_CellFingerprint);

// 50k cached cells probed by 1 and 2 threads with a 3:1 hit:miss mix —
// roughly the explore path's hit ratio, on the lock the sweep threads
// share.
constexpr uint64_t kCacheCells = 50000;

const CellResultCache& LookupCache() {
  static const CellResultCache* cache = [] {
    auto* c = new CellResultCache();
    for (uint64_t i = 0; i < kCacheCells; ++i) {
      c->Publish(Mix64(i), "plain", CacheMeasurement(i));
    }
    return c;
  }();
  return *cache;
}

void BM_CellCacheLookup(benchmark::State& state) {
  const CellResultCache& cache = LookupCache();
  Rng rng(static_cast<uint64_t>(state.thread_index()) + 1);
  Measurement out;
  for (auto _ : state) {
    // Keys >= kCacheCells were never published: every fourth probe misses.
    const uint64_t i = rng.NextBounded(kCacheCells * 4 / 3);
    benchmark::DoNotOptimize(cache.Lookup(Mix64(i), &out));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_CellCacheLookup)->Threads(1)->Threads(2);

// A flush of a dirty ~50k-entry cache: snapshot, sort, encode, checksum,
// atomic write. Each iteration publishes one new cell so the flush is
// never the clean no-op.
void BM_CellCacheFlush(benchmark::State& state) {
  // Start from no file: entries a previous run flushed would load as
  // duplicates and turn every timed flush into the clean no-op.
  const std::string dir = bench::OutDir() + "/micro_cell_cache";
  std::remove(CellCacheFileName(dir).c_str());
  CellResultCache cache;
  cache.Open(dir);
  for (uint64_t i = 0; i < kCacheCells; ++i) {
    cache.Publish(Mix64(i), "plain", CacheMeasurement(i));
  }
  uint64_t next = kCacheCells;
  for (auto _ : state) {
    cache.Publish(Mix64(next), "plain", CacheMeasurement(next));
    ++next;
    const Status s = cache.WriteCellCacheFile();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * int64_t{kCacheCells});
}
BENCHMARK(BM_CellCacheFlush)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace robustmap

BENCHMARK_MAIN();
