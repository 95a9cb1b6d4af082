// The map-production benchmark: one closed-loop client producing
// robustness maps at row_bits 16, in one of three workloads that each hand
// the bulk of the wall time to a different layer.
//
//   paper_grid     the paper's full 13-plan, 13x13 two-predicate map on the
//                  serial backend: exec/io/index/storage dominate. Kept
//                  out of BENCHMARK.json (its median moved more than any
//                  bound allows between two sets of runs on a shared host);
//                  the smoke test and the serial ledger check use it.
//   explore_cached a seeded pan/zoom session of progressive sweeps over
//                  17x17 rects of the cheap 12-plan low band, threaded,
//                  against a persistent cell cache: the engine loop and the
//                  cache dominate.
//   sharded_tiles  the whole cheap low band on the fork-mode sharded
//                  backend: fork, tile write, reap, tile read and merge
//                  dominate.
//
// Untraced runs (--trace 0) report the end-to-end metrics; a traced run
// (--trace 1) replays every request through the engine's cell loops with
// each layer call wrapped in a benchmark-owned span and reports the
// per-layer ledger. Every map is checked by digest against an uncached
// serial reference computed outside timing. The last stdout line is the
// result JSON.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "core/cell_cache.h"
#include "core/map_io.h"
#include "core/shard_planner.h"
#include "core/sweep_engine.h"
#include "core/wire_format.h"
#include "engine/query.h"
#include "ledger.h"
#include "workload/dataset.h"

namespace mapbench {
namespace {

using robustmap::BackendKind;
using robustmap::CellResultCache;
using robustmap::Executor;
using robustmap::Measurement;
using robustmap::ParameterSpace;
using robustmap::PlanKind;
using robustmap::Result;
using robustmap::RobustnessMap;
using robustmap::RunContext;
using robustmap::Status;
using robustmap::StudyEnvironment;
using robustmap::SweepEngine;
using robustmap::SweepOutcome;
using robustmap::SweepRequest;
using robustmap::TileSpec;

constexpr int kRowBits = 16;
constexpr unsigned kThreads = 2;   // explore_cached sweep threads
constexpr unsigned kWorkers = 2;   // sharded_tiles worker processes
constexpr size_t kTiles = 32;      // sharded_tiles tiles per request
constexpr size_t kRectSide = 17;   // explore_cached rect, grid points
constexpr size_t kRectStride = 12;  // explore_cached: origins of the tour
constexpr size_t kProgressiveStride = 4;
constexpr size_t kFlushEvery = 5;  // explore_cached: flush after every Nth
constexpr uint64_t kSeedCachePercent = 25;  // cells in the seeded cells.rmc
constexpr size_t kKeptSpans = 20000;  // spans kept for the trace file

double NowSeconds() {
  return static_cast<double>(robustmap::MonotonicNowNs()) * 1e-9;
}

/// CPU seconds of this process (all threads), plus its reaped children.
double CpuSeconds() {
  double total = 0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                 1e-6;
  }
  return total;
}

double PeakRssMb() {
  long kb = 0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    kb = std::max(kb, ru.ru_maxrss);
  }
  return static_cast<double>(kb) / 1024.0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Written by the host probe so the compiler cannot elide its kernel.
volatile uint64_t host_probe_sink = 0;

/// A fixed kernel that uses no repository code: fill, sort and fold a
/// 2^18-element array. Timed at run start and end to flag host drift.
double HostRefSeconds() {
  std::vector<double> reps;
  std::vector<uint64_t> v(1u << 18);
  uint64_t fold = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = NowSeconds();
    uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(rep);
    for (uint64_t& e : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = x;
    }
    std::sort(v.begin(), v.end());
    for (size_t i = 0; i < v.size(); i += 97) fold += v[i];
    reps.push_back(NowSeconds() - t0);
  }
  host_probe_sink = fold;
  return Median(reps);
}

/// Bit-for-bit identity of a map: FNV-1a over its canonical tile bytes,
/// which carry every field of every cell.
uint64_t MapDigest(const RobustnessMap& map) {
  TileSpec full;
  full.x_end = map.space().x_size();
  full.y_end = map.space().y_size();
  std::ostringstream os;
  if (!robustmap::WriteMapTile(os, robustmap::MapTile{full, map.space(), map})
           .ok()) {
    return 0;
  }
  const std::string bytes = os.str();
  return robustmap::wire::Fnv1a64(bytes.data(), bytes.size());
}

/// The exec layer's plan shapes, for the drain-time split. Only
/// paper_grid runs the table scan, so its share is left in the total.
const char* DrainSpanName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kTableScan:
      return "exec.drain.scan";
    case PlanKind::kIndexAImproved:
    case PlanKind::kIndexBImproved:
    case PlanKind::kIndexANaive:
    case PlanKind::kIndexBNaive:
    case PlanKind::kCoverABBitmapFetch:
    case PlanKind::kCoverBABitmapFetch:
    case PlanKind::kBitmapAndFetch:
      return "exec.drain.fetch";
    case PlanKind::kMergeJoinAB:
    case PlanKind::kMergeJoinBA:
    case PlanKind::kHashJoinAB:
    case PlanKind::kHashJoinBA:
      return "exec.drain.join";
    case PlanKind::kMdamAB:
    case PlanKind::kMdamBA:
    case PlanKind::kCoverABScan:
      return "exec.drain.covering";
  }
  return "exec.drain.fetch";
}

ParameterSpace PaperSpace() {
  return ParameterSpace::TwoD(
      robustmap::Axis::Selectivity("selectivity(a)", -12, 0),
      robustmap::Axis::Selectivity("selectivity(b)", -12, 0));
}

/// 2^-16..2^-8 at 8 steps per octave: 65 x 65 points.
ParameterSpace LowBandSpace() {
  return ParameterSpace::TwoD(
      robustmap::Axis::SelectivityFine("selectivity(a)", -16, -8, 8),
      robustmap::Axis::SelectivityFine("selectivity(b)", -16, -8, 8));
}

/// The 12 index-driven plans: the table scan's cost is flat in
/// selectivity and would swamp the cheap band.
std::vector<PlanKind> IndexPlans() {
  std::vector<PlanKind> plans;
  for (PlanKind k : robustmap::AllStudyPlans()) {
    if (k != PlanKind::kTableScan) plans.push_back(k);
  }
  return plans;
}

Result<std::unique_ptr<StudyEnvironment>> MakeEnvironment(uint64_t seed) {
  robustmap::StudyOptions o;
  o.row_bits = kRowBits;
  o.seed = seed;
  return StudyEnvironment::Create(o);
}

/// The uncached serial reference: every cell through the unprepared
/// `Executor::Run`, outside the sweep engine entirely.
Result<RobustnessMap> ReferenceMap(StudyEnvironment* env,
                                   const std::vector<PlanKind>& plans,
                                   const ParameterSpace& space) {
  std::vector<std::string> labels;
  for (PlanKind k : plans) labels.push_back(robustmap::PlanKindLabel(k));
  RobustnessMap map(space, labels);
  for (size_t plan = 0; plan < plans.size(); ++plan) {
    for (size_t pt = 0; pt < space.num_points(); ++pt) {
      auto m = env->executor().Run(
          env->ctx(), plans[plan],
          env->MakeQuery(space.x_value(pt), space.y_value(pt)));
      if (!m.ok()) return m.status();
      map.Set(plan, pt, std::move(m).value());
    }
  }
  return map;
}

RobustnessMap SliceMap(const RobustnessMap& full, const TileSpec& rect,
                       const ParameterSpace& sub) {
  RobustnessMap out(sub, full.plan_labels());
  for (size_t plan = 0; plan < full.num_plans(); ++plan) {
    for (size_t yi = 0; yi < rect.y_size(); ++yi) {
      for (size_t xi = 0; xi < rect.x_size(); ++xi) {
        out.Set(plan, sub.IndexOf(xi, yi),
                full.AtXY(plan, rect.x_begin + xi, rect.y_begin + yi));
      }
    }
  }
  return out;
}

/// The cells of the seeded cache: a seed-chosen kSeedCachePercent% of
/// (plan, point) pairs of the low band, taken from the reference map.
/// Equal seeds give byte-identical files. Returns the entry count.
Result<size_t> WriteSeedCache(StudyEnvironment* env,
                              const RobustnessMap& reference, uint64_t seed,
                              const std::string& path) {
  robustmap::CellCacheData data;
  const ParameterSpace& space = reference.space();
  const uint64_t env_fp =
      robustmap::EnvironmentFingerprint(*env->ctx(), env->domain());
  const std::string warmup = env->ctx()->warmup.ToSpec();
  for (size_t plan = 0; plan < reference.num_plans(); ++plan) {
    for (size_t pt = 0; pt < space.num_points(); ++pt) {
      const uint64_t pick =
          robustmap::Mix64(seed * 0x100000001b3ull + plan * space.num_points() +
                           pt);
      if (pick % 100 >= kSeedCachePercent) continue;
      robustmap::CellCacheEntry e;
      e.fingerprint = robustmap::CellFingerprint(
          env_fp, robustmap::StudyKindName(robustmap::StudyKind::kPlainMap),
          warmup, reference.plan_label(plan), space.x_value(pt),
          space.y_value(pt));
      e.study = robustmap::StudyKindName(robustmap::StudyKind::kPlainMap);
      e.m = reference.At(plan, pt);
      data.entries.push_back(std::move(e));
    }
  }
  RM_RETURN_IF_ERROR(robustmap::WriteCellCacheFile(path, data));
  return data.entries.size();
}

// ---------------------------------------------------------------------
// The traced replay: what StudySweep does, one layer call per span.

/// Layer counters the replay accumulates across sweep threads.
struct ReplayCounters {
  std::atomic<uint64_t> lookups{0}, hits{0}, publishes{0}, plans_built{0};
  std::atomic<uint64_t> rows_out{0}, pages_read{0}, random_reads{0};
  std::atomic<uint64_t> buffer_hits{0}, pages_written{0};
};

Result<RobustnessMap> ReplaySweep(StudyEnvironment* env,
                                  const std::vector<PlanKind>& plans,
                                  const ParameterSpace& space,
                                  CellResultCache* cache, unsigned threads,
                                  ReplayCounters* counters) {
  const Executor& executor = env->executor();
  RunContext* ctx = env->ctx();
  std::vector<std::string> labels;
  {
    Span s("engine.prepare");
    for (PlanKind k : plans) {
      auto p = executor.Prepare(k);
      if (!p.ok()) return p.status();
      labels.push_back(p.value().label());
    }
  }
  std::vector<robustmap::QuerySpec> queries;
  {
    Span s("engine.bind");
    queries.reserve(space.num_points());
    for (size_t pt = 0; pt < space.num_points(); ++pt) {
      queries.push_back(robustmap::MakeStudyQuery(
          space.x_value(pt), space.y_value(pt), env->domain()));
    }
  }
  const char* study = robustmap::StudyKindName(robustmap::StudyKind::kPlainMap);
  std::vector<uint64_t> fps;
  if (cache != nullptr) {
    Span s("cache.key");
    const uint64_t env_fp =
        robustmap::EnvironmentFingerprint(*ctx, env->domain());
    const std::string warmup = ctx->warmup.ToSpec();
    for (const std::string& label : labels) {
      for (size_t pt = 0; pt < space.num_points(); ++pt) {
        fps.push_back(robustmap::CellFingerprint(env_fp, study, warmup, label,
                                                 space.x_value(pt),
                                                 space.y_value(pt)));
      }
    }
  }
  const size_t points = space.num_points();
  auto cell = [&](RunContext* c, size_t plan,
                  size_t point) -> Result<Measurement> {
    Span cell_span("core.cell");
    if (cache != nullptr) {
      counters->lookups.fetch_add(1, std::memory_order_relaxed);
      Measurement hit;
      bool found;
      {
        Span s("cache.lookup");
        found = cache->Lookup(fps[plan * points + point], &hit);
      }
      if (found) {
        counters->hits.fetch_add(1, std::memory_order_relaxed);
        return hit;
      }
    }
    Measurement m;
    {
      Span measure("engine.measure");
      robustmap::OperatorPtr tree;
      {
        Span s("engine.build_plan");
        auto t = executor.BuildPlan(plans[plan], queries[point]);
        if (!t.ok()) return t.status();
        tree = std::move(t).value();
      }
      counters->plans_built.fetch_add(1, std::memory_order_relaxed);
      {
        Span s("io.cold_start");
        c->ColdStart();
      }
      const robustmap::IoStats before = c->device->stats();
      robustmap::VirtualStopwatch watch(c->clock);
      Result<uint64_t> rows = [&] {
        Span s(DrainSpanName(plans[plan]));
        return robustmap::DrainCount(c, tree.get());
      }();
      if (!rows.ok()) return rows.status();
      m.seconds = watch.elapsed_seconds();
      m.output_rows = rows.value();
      m.io = c->device->stats().Delta(before);
      m.plan_label = labels[plan];
    }
    counters->rows_out.fetch_add(m.output_rows, std::memory_order_relaxed);
    counters->pages_read.fetch_add(m.io.total_reads(),
                                   std::memory_order_relaxed);
    counters->random_reads.fetch_add(m.io.random_reads,
                                     std::memory_order_relaxed);
    counters->buffer_hits.fetch_add(m.io.buffer_hits,
                                    std::memory_order_relaxed);
    counters->pages_written.fetch_add(m.io.writes, std::memory_order_relaxed);
    if (cache != nullptr) {
      Span s("cache.publish");
      if (cache->Publish(fps[plan * points + point], study, m)) {
        counters->publishes.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return m;
  };
  Span run("core.run_cells");
  robustmap::SweepOptions opts;
  opts.num_threads = threads;
  if (threads <= 1) {
    return SweepEngine::RunCellsIndexed(
        space, labels,
        [&](size_t plan, size_t point) { return cell(ctx, plan, point); },
        opts);
  }
  robustmap::RunContextFactory factory(*ctx);
  return SweepEngine::RunCellsParallelIndexed(space, labels, factory, cell,
                                              opts);
}

// ---------------------------------------------------------------------
// Workloads.

/// What one timed request produced.
struct Served {
  RobustnessMap map;
  double first_snapshot_s = 0;  ///< to the first progressive snapshot
  robustmap::ShardedSweepStats stats;
  double flush_s = -1;          ///< cache flush paid by the request, if any
  double flush_bytes = 0;
};

class Workload {
 public:
  Workload(uint64_t seed, std::string work_dir)
      : seed_(seed), work_dir_(std::move(work_dir)) {}
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual unsigned threads() const { return 1; }
  virtual unsigned workers() const { return 0; }

  /// Outside timing, once: the reference maps (and derived inputs).
  virtual Status Prepare() = 0;

  /// Staging before a set-up that the system itself would not pay
  /// (copying the seeded cache into place).
  virtual Status StageSetUp() { return Status::OK(); }

  /// One set-up, timed by the caller from workload entry: the environment,
  /// the cache open, and one warm-up request, which prepares the plans and
  /// binds the queries (and is checked against the reference).
  Status SetUp() {
    env_.reset();
    const double t0 = NowSeconds();
    auto env = MakeEnvironment(seed_);
    if (!env.ok()) return env.status();
    env_ = std::move(env).value();
    env_create_s_.push_back(NowSeconds() - t0);
    if (Status s = OpenCaches(); !s.ok()) return s;
    auto warm = Serve(0);
    if (!warm.ok()) return warm.status();
    if (!Check(0, warm.value().map)) {
      return Status::Internal("warm-up request differs from the reference");
    }
    return Status::OK();
  }

  /// Requests per session; 0 = sessions do not apply.
  virtual size_t session_length() const { return 0; }
  /// Resets per-session state, outside timing.
  virtual Status BeginSession() { return Status::OK(); }

  /// One timed request (index within the session, if any).
  virtual Result<Served> Serve(size_t index) = 0;

  /// Digest check against the reference, outside timing.
  virtual bool Check(size_t index, const RobustnessMap& map) const = 0;

  /// The traced replay of request `index`; its map must equal the served
  /// one bit for bit.
  virtual Result<RobustnessMap> Replay(size_t index, ReplayCounters* c) = 0;

  /// Cells of the map one request delivers.
  virtual size_t cells_per_request() const = 0;

  const std::vector<double>& env_create_s() const { return env_create_s_; }
  const std::vector<double>& cache_open_s() const { return cache_open_s_; }
  virtual double seeded_hit_share() const { return 0; }

 protected:
  virtual Status OpenCaches() { return Status::OK(); }

  const uint64_t seed_;
  const std::string work_dir_;
  std::unique_ptr<StudyEnvironment> env_;
  std::vector<double> env_create_s_;
  std::vector<double> cache_open_s_;
};

/// A whole map per request, uncached: `paper_grid` on the serial backend,
/// `sharded_tiles` on fork-mode worker processes.
class FullMap : public Workload {
 public:
  FullMap(uint64_t seed, std::string work_dir, bool sharded)
      : Workload(seed, std::move(work_dir)),
        sharded_(sharded),
        plans_(sharded ? IndexPlans() : robustmap::AllStudyPlans()),
        space_(sharded ? LowBandSpace() : PaperSpace()) {}

  const char* name() const override {
    return sharded_ ? "sharded_tiles" : "paper_grid";
  }
  unsigned workers() const override { return sharded_ ? kWorkers : 0; }
  size_t cells_per_request() const override {
    return plans_.size() * space_.num_points();
  }

  Status Prepare() override {
    auto env = MakeEnvironment(seed_);
    if (!env.ok()) return env.status();
    auto ref = ReferenceMap(env.value().get(), plans_, space_);
    if (!ref.ok()) return ref.status();
    reference_digest_ = MapDigest(ref.value());
    return Status::OK();
  }

  Result<Served> Serve(size_t) override {
    SweepRequest req;
    req.plans = plans_;
    req.space = space_;
    req.backend = BackendKind::kSerial;
    if (sharded_) {
      req.backend = BackendKind::kShardedProcess;
      req.sharded.tile_dir = work_dir_ + "/tiles";
      req.sharded.num_workers = kWorkers;
      req.sharded.num_tiles = kTiles;
      req.sharded.resume = false;
    }
    auto out = SweepEngine::Run(env_->ctx(), env_->executor(), req);
    if (!out.ok()) return out.status();
    SweepOutcome o = std::move(out).value();
    return Served{std::move(o.layers.front()), 0, std::move(o.sharded_stats)};
  }

  bool Check(size_t, const RobustnessMap& map) const override {
    return MapDigest(map) == reference_digest_;
  }

  Result<RobustnessMap> Replay(size_t, ReplayCounters* c) override {
    return ReplaySweep(env_.get(), plans_, space_, nullptr, 1, c);
  }

 private:
  const bool sharded_;
  const std::vector<PlanKind> plans_;
  const ParameterSpace space_;
  uint64_t reference_digest_ = 0;
};

class ExploreCached : public Workload {
 public:
  /// `max_session` caps the requests of a session (the smoke test's short
  /// sessions); `traced` adds the traced replay's own cache.
  ExploreCached(uint64_t seed, std::string work_dir, size_t max_session,
                bool traced)
      : Workload(seed, std::move(work_dir)),
        max_session_(max_session),
        traced_(traced) {}
  const char* name() const override { return "explore_cached"; }
  unsigned threads() const override { return kThreads; }
  size_t session_length() const override { return subspaces_.size(); }
  size_t cells_per_request() const override {
    return plans_.size() * kRectSide * kRectSide;
  }
  double seeded_hit_share() const override { return seeded_share_; }

  std::string seed_file() const { return work_dir_ + "/seed/cells.rmc"; }

  Status Prepare() override {
    auto env = MakeEnvironment(seed_);
    if (!env.ok()) return env.status();
    auto ref = ReferenceMap(env.value().get(), plans_, space_);
    if (!ref.ok()) return ref.status();
    std::filesystem::create_directories(work_dir_ + "/seed");
    auto seeded = WriteSeedCache(env.value().get(), ref.value(), seed_,
                                 seed_file());
    if (!seeded.ok()) return seeded.status();
    seeded_share_ = static_cast<double>(seeded.value()) /
                    static_cast<double>(plans_.size() * space_.num_points());
    // The session tours a lattice of overlapping rects in a seeded order,
    // each rect once: every session covers the whole grid, so how far the
    // cache grows (flush sizes, peak memory) does not depend on the seed,
    // which picks the path and the pre-cached cells.
    std::vector<TileSpec> tour;
    for (size_t y = 0; y + kRectSide <= space_.y_size(); y += kRectStride) {
      for (size_t x = 0; x + kRectSide <= space_.x_size(); x += kRectStride) {
        TileSpec r;
        r.x_begin = x;
        r.x_end = x + kRectSide;
        r.y_begin = y;
        r.y_end = y + kRectSide;
        tour.push_back(r);
      }
    }
    robustmap::Rng rng(seed_ ^ 0x5eed5e55104ull);
    for (size_t i = tour.size(); i > 1; --i) {
      std::swap(tour[i - 1], tour[rng.NextBounded(i)]);
    }
    tour.resize(std::min(tour.size(), max_session_));
    for (const TileSpec& r : tour) {
      auto sub = robustmap::SliceSpace(space_, r);
      if (!sub.ok()) return sub.status();
      digests_.push_back(MapDigest(SliceMap(ref.value(), r, sub.value())));
      subspaces_.push_back(std::move(sub).value());
    }
    return Status::OK();
  }

  Status StageSetUp() override {
    if (traced_) {
      if (Status s = StageLive("live_traced"); !s.ok()) return s;
    }
    return StageLive("live");
  }

  Status BeginSession() override {
    if (Status s = StageLive("live"); !s.ok()) return s;
    if (traced_) {
      if (Status s = StageLive("live_traced"); !s.ok()) return s;
    }
    return OpenCaches();
  }

  Result<Served> Serve(size_t index) override {
    SweepRequest req;
    req.plans = plans_;
    req.space = subspaces_[index];
    req.backend = BackendKind::kThreaded;
    req.sweep.num_threads = kThreads;
    req.cell_cache = cache_.get();
    req.progressive.initial_stride = kProgressiveStride;
    const double t0 = NowSeconds();
    double first = -1;
    req.progressive.on_snapshot =
        [&](size_t, const std::vector<RobustnessMap>&) {
          if (first < 0) first = NowSeconds() - t0;
        };
    auto out = SweepEngine::Run(env_->ctx(), env_->executor(), req);
    if (!out.ok()) return out.status();
    Served s{std::move(out).value().layers.front(), first, {}};
    if ((index + 1) % kFlushEvery == 0) {
      const double f0 = NowSeconds();
      if (Status st = cache_->WriteCellCacheFile(); !st.ok()) return st;
      s.flush_s = NowSeconds() - f0;
      s.flush_bytes =
          static_cast<double>(std::filesystem::file_size(cache_->path()));
    }
    return s;
  }

  bool Check(size_t index, const RobustnessMap& map) const override {
    return MapDigest(map) == digests_[index];
  }

  Result<RobustnessMap> Replay(size_t index, ReplayCounters* c) override {
    Result<RobustnessMap> level = Status::Internal("no levels");
    for (size_t stride = kProgressiveStride; stride >= 1; stride /= 2) {
      level = ReplaySweep(env_.get(), plans_,
                          robustmap::SubsampleSpace(subspaces_[index], stride),
                          traced_cache_.get(), kThreads, c);
      if (!level.ok()) return level;
    }
    if ((index + 1) % kFlushEvery == 0) {
      Span s("cache.flush");
      if (Status st = traced_cache_->WriteCellCacheFile(); !st.ok()) return st;
    }
    return level;
  }

 protected:
  /// The untraced and the traced request sequences each own a cache,
  /// opened from identical copies of the seeded file, so both see the same
  /// hits in the same order.
  Status OpenCaches() override {
    const double t0 = NowSeconds();
    cache_ = std::make_unique<CellResultCache>();
    cache_->Open(work_dir_ + "/live");
    cache_open_s_.push_back(NowSeconds() - t0);
    if (cache_->size() == 0) {
      return Status::Internal("seeded cell cache did not load");
    }
    if (traced_) {
      traced_cache_ = std::make_unique<CellResultCache>();
      traced_cache_->Open(work_dir_ + "/live_traced");
    }
    return Status::OK();
  }

 private:
  Status StageLive(const std::string& dir) {
    std::error_code ec;
    std::filesystem::create_directories(work_dir_ + "/" + dir, ec);
    std::filesystem::copy_file(
        seed_file(), work_dir_ + "/" + dir + "/cells.rmc",
        std::filesystem::copy_options::overwrite_existing, ec);
    if (ec) return Status::Internal("staging seeded cache: " + ec.message());
    return Status::OK();
  }

  const std::vector<PlanKind> plans_ = IndexPlans();
  const ParameterSpace space_ = LowBandSpace();
  const size_t max_session_;
  const bool traced_;
  std::vector<ParameterSpace> subspaces_;
  std::vector<uint64_t> digests_;
  std::unique_ptr<CellResultCache> cache_;
  std::unique_ptr<CellResultCache> traced_cache_;
  double seeded_share_ = 0;
};

// ---------------------------------------------------------------------
// The harness.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;
  std::string trace_out;
  std::string emit_seed_cache;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (flag == "--smoke") {
      a->smoke = true;
    } else if (flag == "--workload") {
      if (!value(&a->workload)) return false;
    } else if (flag == "--seed") {
      if (!value(&v)) return false;
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      if (!value(&v)) return false;
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (!value(&v)) return false;
      a->trace = v == "1";
    } else if (flag == "--work-dir") {
      if (!value(&a->work_dir)) return false;
    } else if (flag == "--trace-out") {
      if (!value(&a->trace_out)) return false;
    } else if (flag == "--emit-seed-cache") {
      if (!value(&a->emit_seed_cache)) return false;
    } else {
      return false;
    }
  }
  return !a->work_dir.empty() &&
         (!a->emit_seed_cache.empty() || !a->workload.empty());
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      std::string m = line.substr(colon + 2);
      for (char& ch : m) {
        if (ch == '"' || ch == '\\') ch = ' ';
      }
      return m;
    }
  }
  return "unknown";
}

/// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string FormatMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "\"%s\": {\"value\": %.17g, \"unit\": \"",
                  metrics[i].name.c_str(), metrics[i].value);
    out += buf;
    out += metrics[i].unit;
    out += i + 1 < metrics.size() ? "\"}, " : "\"}";
  }
  return out + "}";
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "mapbench: %s\n", what.c_str());
  return 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Fail(
        "usage: mapbench --workload NAME --seed N --seconds S "
        "--trace 0|1 --work-dir DIR [--trace-out FILE] [--smoke] | "
        "--emit-seed-cache FILE --seed N --work-dir DIR");
  }
  std::filesystem::create_directories(args.work_dir);

  if (!args.emit_seed_cache.empty()) {
    ExploreCached w(args.seed, args.work_dir, 1, false);
    if (Status s = w.Prepare(); !s.ok()) return Fail(s.ToString());
    std::error_code ec;
    std::filesystem::copy_file(w.seed_file(), args.emit_seed_cache,
                               std::filesystem::copy_options::overwrite_existing,
                               ec);
    return ec ? Fail("copy: " + ec.message()) : 0;
  }

  std::unique_ptr<Workload> w;
  size_t setups = 5;
  size_t min_requests = 1;
  if (args.workload == "paper_grid") {
    w = std::make_unique<FullMap>(args.seed, args.work_dir, false);
    setups = 3;
  } else if (args.workload == "explore_cached") {
    w = std::make_unique<ExploreCached>(args.seed, args.work_dir,
                                        args.smoke ? 12 : SIZE_MAX,
                                        args.trace);
    setups = 15;
  } else if (args.workload == "sharded_tiles") {
    w = std::make_unique<FullMap>(args.seed, args.work_dir, true);
  } else {
    return Fail("unknown workload '" + args.workload + "'");
  }
  if (args.smoke) {
    setups = 1;
    if (args.workload == "sharded_tiles") min_requests = 2;
  }

  const double host_before = HostRefSeconds();
  if (Status s = w->Prepare(); !s.ok()) return Fail(s.ToString());
  min_requests = std::max(min_requests, w->session_length());

  bool correct = true;
  size_t attempted = 0, failed = 0;
  std::vector<double> setup_s;
  for (size_t i = 0; i < setups; ++i) {
    if (Status s = w->StageSetUp(); !s.ok()) return Fail(s.ToString());
    const double t0 = NowSeconds();
    Status s = w->SetUp();
    setup_s.push_back(NowSeconds() - t0);
    if (!s.ok()) {
      std::fprintf(stderr, "mapbench: set-up: %s\n", s.ToString().c_str());
      correct = false;
      attempted = failed = 1;
      break;
    }
  }

  if (args.trace) SpanLog::Get().Enable();
  std::vector<double> wall_s, cpu_s, first_s, flush_s, replay_s, ledger_s;
  std::vector<double> addup_ratio, unattributed, flush_bytes;
  std::vector<double> write_tile_s, read_tile_s;
  std::vector<double> worker_busy_s, coordinator_s, balance;
  std::vector<double> tiles_computed, workers_spawned;
  std::map<std::string, double> self_total, inclusive_total;
  double worker_busy_total = 0;
  double tile_bytes = 0;
  ReplayCounters counters;
  size_t cells = 0, replays = 0;
  const size_t session = w->session_length();
  const double start = NowSeconds();
  size_t position = 0;
  while (correct) {
    if (session > 0 && position % session == 0) {
      const bool time_left = NowSeconds() - start < args.seconds;
      if (attempted >= min_requests && !time_left) break;
      if (Status s = w->BeginSession(); !s.ok()) return Fail(s.ToString());
      position = 0;
    } else if (session == 0 && attempted >= min_requests &&
               NowSeconds() - start >= args.seconds) {
      break;
    }
    const size_t index = session > 0 ? position : attempted;
    ++attempted;
    ++position;
    const double cpu0 = CpuSeconds();
    const double t0 = NowSeconds();
    auto served = w->Serve(index);
    const double wall = NowSeconds() - t0;
    const double cpu = CpuSeconds() - cpu0;
    if (!served.ok() || !w->Check(index, served.value().map)) {
      std::fprintf(stderr, "mapbench: request %zu failed: %s\n", attempted,
                   served.ok() ? "map differs from the reference"
                               : served.status().ToString().c_str());
      ++failed;
      continue;
    }
    Served& sv = served.value();
    wall_s.push_back(wall);
    cpu_s.push_back(cpu);
    // Without progressive levels the first map a viewer gets is the last.
    first_s.push_back(sv.first_snapshot_s > 0 ? sv.first_snapshot_s : wall);
    if (sv.flush_s >= 0) {
      flush_s.push_back(sv.flush_s);
      flush_bytes.push_back(sv.flush_bytes);
    }
    cells += w->cells_per_request();
    if (w->workers() > 0) {
      double busy = 0, busiest = 0;
      for (double b : sv.stats.worker_busy_seconds) {
        busy += b;
        busiest = std::max(busiest, b);
      }
      worker_busy_s.push_back(busy);
      coordinator_s.push_back(wall - busiest);
      balance.push_back(sv.stats.busy_balance_ratio());
      tiles_computed.push_back(static_cast<double>(sv.stats.tiles_computed));
      workers_spawned.push_back(
          static_cast<double>(sv.stats.workers_spawned));
    }
    if (!args.trace) continue;

    // The traced replay of the same request, then the map's round trip
    // through the tile format.
    SpanLog::Get().set_request(static_cast<uint32_t>(attempted));
    const double r0 = NowSeconds();
    Result<RobustnessMap> replay = Status::Internal("not run");
    {
      Span request_span("core.request");
      replay = w->Replay(index, &counters);
    }
    const double rwall = NowSeconds() - r0;
    const LayerSample sample = SpanLog::Get().Collect(kKeptSpans);
    if (!replay.ok() || MapDigest(replay.value()) != MapDigest(sv.map)) {
      std::fprintf(stderr, "mapbench: replay %zu differs from request: %s\n",
                   attempted,
                   replay.ok() ? "maps differ"
                               : replay.status().ToString().c_str());
      ++failed;
      continue;
    }
    ++replays;
    replay_s.push_back(rwall);
    // The ledger: what the request span keeps for itself is time no layer
    // call accounts for; the rest of its wall is attributed (serially, the
    // sum of the layers' self times).
    for (const auto& [name, self] : sample.self_s) self_total[name] += self;
    for (const auto& [name, total] : sample.total_s) {
      inclusive_total[name] += total;
    }
    const double root_self = sample.self_s.at("core.request");
    ledger_s.push_back(rwall - root_self);
    addup_ratio.push_back((rwall - root_self) / wall);
    unattributed.push_back(root_self / rwall);
    worker_busy_total += sample.worker_busy_s;
    const std::string tile = args.work_dir + "/request.rmt";
    TileSpec full;
    full.x_end = sv.map.space().x_size();
    full.y_end = sv.map.space().y_size();
    const double w0 = NowSeconds();
    Status ws = robustmap::WriteMapTileFile(
        tile, robustmap::MapTile{full, sv.map.space(), sv.map});
    const double w1 = NowSeconds();
    auto back = robustmap::ReadMapTileFile(tile);
    const double w2 = NowSeconds();
    if (!ws.ok() || !back.ok() ||
        MapDigest(back.value().map) != MapDigest(sv.map)) {
      std::fprintf(stderr, "mapbench: tile round trip %zu failed\n",
                   attempted);
      ++failed;
      continue;
    }
    write_tile_s.push_back(w1 - w0);
    read_tile_s.push_back(w2 - w1);
    tile_bytes = static_cast<double>(std::filesystem::file_size(tile));
  }
  const double host_after = HostRefSeconds();
  if (failed > 0 || wall_s.empty()) correct = false;

  const double timed = std::accumulate(wall_s.begin(), wall_s.end(), 0.0);

  // The run descriptor: everything needed to compare two runs' figures.
  std::printf(
      "# descriptor {\"workload\": \"%s\", \"seed\": %llu, \"row_bits\": %d, "
      "\"nproc\": %u, \"cpu_model\": \"%s\", \"threads\": %u, "
      "\"workers\": %u, \"trace\": %d, \"setups\": %zu, "
      "\"requests\": %zu, \"flushes\": %zu, \"replays\": %zu, "
      "\"seeded_hit_share\": %.4f, \"host_ref_before_s\": %.6f, "
      "\"host_ref_after_s\": %.6f, \"request_s_quantiles\": "
      "[%.6f, %.6f, %.6f, %.6f, %.6f, %.6f, %.6f]}\n",
      w->name(), static_cast<unsigned long long>(args.seed), kRowBits,
      std::thread::hardware_concurrency(), CpuModel().c_str(), w->threads(),
      w->workers(), args.trace ? 1 : 0, setup_s.size(), wall_s.size(),
      flush_s.size(), replays, w->seeded_hit_share(), host_before,
      host_after, Quantile(wall_s, 0), Quantile(wall_s, 0.1),
      Quantile(wall_s, 0.25), Quantile(wall_s, 0.5), Quantile(wall_s, 0.75),
      Quantile(wall_s, 0.9), Quantile(wall_s, 1));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"request_p50_s", Median(wall_s), "s"},
        {"request_p90_s", Quantile(wall_s, 0.9), "s"},
        {"first_snapshot_p50_s", Median(first_s), "s"},
        {"cells_per_s", timed > 0 ? static_cast<double>(cells) / timed : 0,
         "1/s"},
        {"request_cpu_s", Median(cpu_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    const double n = std::max<double>(1.0, static_cast<double>(replays));
    auto self = [&](const char* name) {
      auto it = self_total.find(name);
      return it == self_total.end() ? 0.0 : it->second / n;
    };
    auto inclusive = [&](const char* name) {
      auto it = inclusive_total.find(name);
      return it == inclusive_total.end() ? 0.0 : it->second / n;
    };
    auto count = [&](const std::atomic<uint64_t>& c) {
      return static_cast<double>(c.load()) / n;
    };
    const double drain = self("exec.drain.scan") + self("exec.drain.fetch") +
                         self("exec.drain.join") +
                         self("exec.drain.covering");
    const double pages = count(counters.pages_read) + count(counters.buffer_hits);
    const double threads = static_cast<double>(std::max(1u, w->threads()));
    // Time the sweep's threads spent inside cells, summed over threads:
    // threaded cells are the outermost spans of the worker threads.
    const double inside =
        w->threads() > 1 ? worker_busy_total / n : inclusive("core.cell");
    const double loop_wall = inclusive("core.run_cells");
    // The engine loop's own cost: the cell loops' wall minus the layer
    // calls inside cells, per thread (each cell's glue counts as loop).
    const double loop_overhead =
        loop_wall - (inside - self("core.cell")) / threads;
    const double idle_share =
        loop_wall > 0 ? 1.0 - inside / (threads * loop_wall) : 0;
    const double lookups = count(counters.lookups);
    const double core_request = Median(wall_s);
    const double ledger_sum = Median(ledger_s);
    metrics = {
        {"workload.env_create_s", Median(w->env_create_s()), "s"},
        {"engine.prepare_s", self("engine.prepare"), "s"},
        {"engine.bind_s", self("engine.bind"), "s"},
        {"engine.build_plan_s", self("engine.build_plan"), "s"},
        {"engine.measure_s", self("engine.measure"), "s"},
        {"engine.plans_built", count(counters.plans_built), "count"},
        {"exec.drain_s", drain, "s"},
        {"exec.drain_s.fetch", self("exec.drain.fetch"), "s"},
        {"exec.drain_s.join", self("exec.drain.join"), "s"},
        {"exec.drain_s.covering", self("exec.drain.covering"), "s"},
        {"exec.rows_out", count(counters.rows_out), "count"},
        {"exec.ns_per_page", pages > 0 ? drain * 1e9 / pages : 0, "ns"},
        {"io.cold_start_s", self("io.cold_start"), "s"},
        {"io.pages_read", count(counters.pages_read), "count"},
        {"io.random_reads", count(counters.random_reads), "count"},
        {"io.buffer_hits", count(counters.buffer_hits), "count"},
        {"io.pool_hit_ratio",
         pages > 0 ? count(counters.buffer_hits) / pages : 0, "share"},
        {"io.pages_written", count(counters.pages_written), "count"},
        {"core.request_s", core_request, "s"},
        {"core.loop_overhead_s", loop_overhead, "s"},
        {"core.loop_idle_share", idle_share, "share"},
        {"core.first_snapshot_s", Median(first_s), "s"},
        {"cache.open_s", Median(w->cache_open_s()), "s"},
        {"cache.key_s", self("cache.key"), "s"},
        {"cache.lookup_s", self("cache.lookup"), "s"},
        {"cache.lookups", lookups, "count"},
        {"cache.hit_ratio", lookups > 0 ? count(counters.hits) / lookups : 0,
         "share"},
        {"cache.publish_s", self("cache.publish"), "s"},
        {"cache.publishes", count(counters.publishes), "count"},
        {"cache.flush_s", Median(flush_s), "s"},
        {"cache.file_bytes", Median(flush_bytes), "bytes"},
        {"shard.worker_busy_s", Median(worker_busy_s), "s"},
        {"shard.coordinator_s", Median(coordinator_s), "s"},
        {"shard.balance_ratio", Median(balance), "ratio"},
        {"shard.tiles_computed", Median(tiles_computed), "count"},
        {"shard.workers_spawned", Median(workers_spawned), "count"},
        {"map_io.write_tile_s", Median(write_tile_s), "s"},
        {"map_io.read_tile_s", Median(read_tile_s), "s"},
        {"map_io.tile_bytes", tile_bytes, "bytes"},
        {"host.ref_s", 0.5 * (host_before + host_after), "s"},
        {"ledger.sum_s", ledger_sum, "s"},
        {"ledger.addup_error", std::fabs(Median(addup_ratio) - 1.0), "share"},
        {"ledger.unattributed_share", Median(unattributed), "share"},
        {"trace.overhead_s", Median(replay_s) - core_request, "s"},
    };
    if (!args.trace_out.empty() &&
        !SpanLog::Get().WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "mapbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", std::max<size_t>(attempted, 1),
              failed, FormatMetrics(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace mapbench

int main(int argc, char** argv) { return mapbench::Main(argc, argv); }
