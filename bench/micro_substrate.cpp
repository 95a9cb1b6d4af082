// Substrate micro-benchmarks (google-benchmark): regression tracking for
// the data structures the simulator's wall-clock performance rests on,
// plus the executor hot paths a sweep spends its cells in — B-tree
// descent, procedural cursor scans, the three fetch policies, the bitmap
// AND, hash-join build/probe, the cold-start-vs-recycle cost of a
// simulated machine — and the cell-cache layer of the engine loop:
// keying, concurrent lookup, appending, compacting and opening.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
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
  BufferPool pool(&device, 4096);
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

// A 256-entry cursor scan from a fresh seek, the shape of a low-band cell's
// index range: single-column entries are synthesized per step, composite
// ones (64 per key0 group here, so the scan spans 4-5 groups) read from
// the thread's group slot. Leaf reads go through a buffer pool.
void ProceduralCursorScan(benchmark::State& state,
                          std::vector<uint32_t> key_columns) {
  VirtualClock clock;
  SimDevice device(DiskParameters{}, &clock);
  BufferPool pool(&device, 4096);
  RunContext ctx;
  ctx.clock = &clock;
  ctx.device = &device;
  ctx.pool = &pool;
  ProceduralTableOptions topts;
  topts.row_bits = 20;
  topts.value_bits = 14;
  auto table = ProceduralTable::Create(&device, topts).ValueOrDie();
  ProceduralIndexOptions iopts;
  iopts.key_columns = std::move(key_columns);
  auto index =
      ProceduralIndex::Create(&device, table.get(), iopts).ValueOrDie();
  Rng rng(17);
  for (auto _ : state) {
    auto cursor = index->Seek(
        &ctx, static_cast<int64_t>(rng.NextBounded(uint64_t{1} << 14)),
        static_cast<int64_t>(rng.NextBounded(uint64_t{1} << 14)));
    Rid fold = 0;
    for (int i = 0; i < 256 && cursor->Valid(); ++i) {
      fold ^= cursor->entry().rid;
      cursor->Next(&ctx);
    }
    benchmark::DoNotOptimize(fold);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}

void BM_ProceduralCursorScan(benchmark::State& state) {
  ProceduralCursorScan(state, {0});
}
BENCHMARK(BM_ProceduralCursorScan);

void BM_ProceduralCursorScanComposite(benchmark::State& state) {
  ProceduralCursorScan(state, {0, 1});
}
BENCHMARK(BM_ProceduralCursorScanComposite);

void BM_BufferPoolAccess(benchmark::State& state) {
  VirtualClock clock;
  SimDevice device(DiskParameters{}, &clock);
  device.AllocateExtent(1 << 20);
  BufferPool pool(&device, 8192);
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
// at `selectivity` (1% by default) on both predicates: the per-cell unit
// the batched sweep loops amortize their setup across.
void RunPlanCell(benchmark::State& state, PlanKind kind,
                 double selectivity = 0.01) {
  StudyEnvironment& env = MicroEnv();
  const Executor::PreparedPlan plan =
      env.executor().Prepare(kind).ValueOrDie();
  const QuerySpec query = env.MakeQuery(selectivity, selectivity);
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

// The same plan in the low band (2^-10 on both predicates): a 256-entry
// index range leaves a handful of rids in a 2^18-rid bitmap, so scanning
// the bitmap, not fetching rows, is the work.
void BM_FetchBitmapLowBand(benchmark::State& state) {
  RunPlanCell(state, PlanKind::kCoverABBitmapFetch, 0x1p-10);
}
BENCHMARK(BM_FetchBitmapLowBand);

// Bitmap AND of both single-column indexes, then the bitmap-ordered fetch.
void BM_BitmapAndFetchCell(benchmark::State& state) {
  RunPlanCell(state, PlanKind::kBitmapAndFetch);
}
BENCHMARK(BM_BitmapAndFetchCell);

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

// The flush layer, at the explore workload's sizes: a ~50k-entry cache
// gaining ~7,600 entries a flush. A flush appends the new entries as one
// journal segment, or compacts when the segments would outgrow the base.
constexpr uint64_t kFlushCells = 7600;

/// A directory under bench_out/ with no cells.rmc in it.
std::string EmptyCacheDir(const std::string& name) {
  const std::string dir = bench::OutDir() + "/" + name;
  std::remove(CellCacheFileName(dir).c_str());
  return dir;
}

void PublishRange(CellResultCache* cache, uint64_t first, uint64_t n) {
  for (uint64_t i = first; i < first + n; ++i) {
    cache->Publish(Mix64(i), "plain", CacheMeasurement(i));
  }
}

bool Flushed(benchmark::State& state, CellResultCache* cache) {
  const Status s = cache->WriteCellCacheFile();
  if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  return s.ok();
}

// One flush of 7,600 new entries over a 50k-entry base: an append. Each
// iteration re-stages the base and reopens it, untimed, as a new session
// would.
void BM_CellCacheAppend(benchmark::State& state) {
  const std::string dir = EmptyCacheDir("micro_cell_cache_append");
  const std::string path = CellCacheFileName(dir);
  const std::string base = dir + "/base.rmc";
  {
    CellResultCache seed;
    seed.Open(dir);
    PublishRange(&seed, 0, kCacheCells);
    if (!Flushed(state, &seed)) return;
    std::filesystem::copy_file(
        path, base, std::filesystem::copy_options::overwrite_existing);
  }
  std::unique_ptr<CellResultCache> cache;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::copy_file(
        base, path, std::filesystem::copy_options::overwrite_existing);
    cache = std::make_unique<CellResultCache>();
    cache->Open(dir);
    PublishRange(cache.get(), kCacheCells, kFlushCells);
    state.ResumeTiming();
    if (!Flushed(state, cache.get())) break;
  }
  state.SetItemsProcessed(state.iterations() * int64_t{kFlushCells});
}
BENCHMARK(BM_CellCacheAppend)->Unit(benchmark::kMillisecond);

// A compaction of 50k entries: snapshot, sort, encode, checksum, atomic
// write. A cache with no file always compacts.
void BM_CellCacheCompact(benchmark::State& state) {
  const std::string dir = EmptyCacheDir("micro_cell_cache_compact");
  std::unique_ptr<CellResultCache> cache;
  for (auto _ : state) {
    state.PauseTiming();
    std::remove(CellCacheFileName(dir).c_str());
    cache = std::make_unique<CellResultCache>();
    cache->Open(dir);
    PublishRange(cache.get(), 0, kCacheCells);
    state.ResumeTiming();
    if (!Flushed(state, cache.get())) break;
  }
  state.SetItemsProcessed(state.iterations() * int64_t{kCacheCells});
}
BENCHMARK(BM_CellCacheCompact)->Unit(benchmark::kMillisecond);

// Opening a 50k-entry cache written through real flushes: one compacted
// base (segments:0), or the same entries as a base plus 4 appended
// segments of 5,000 (segments:4).
void BM_CellCacheOpen(benchmark::State& state) {
  constexpr uint64_t kSegmentCells = 5000;
  const uint64_t segments = static_cast<uint64_t>(state.range(0));
  const std::string dir =
      EmptyCacheDir("micro_cell_cache_open" + std::to_string(segments));
  {
    CellResultCache writer;
    writer.Open(dir);
    uint64_t published = kCacheCells - segments * kSegmentCells;
    PublishRange(&writer, 0, published);
    if (!Flushed(state, &writer)) return;
    for (uint64_t s = 0; s < segments; ++s, published += kSegmentCells) {
      PublishRange(&writer, published, kSegmentCells);
      if (!Flushed(state, &writer)) return;
    }
  }
  std::unique_ptr<CellResultCache> cache;
  for (auto _ : state) {
    state.PauseTiming();
    cache = std::make_unique<CellResultCache>();
    state.ResumeTiming();
    cache->Open(dir);
    benchmark::DoNotOptimize(cache->size());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{kCacheCells});
}
BENCHMARK(BM_CellCacheOpen)
    ->ArgName("segments")
    ->Arg(0)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace robustmap

BENCHMARK_MAIN();
