#include "exec/operator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "exec/bitmap_ops.h"
#include "exec/fetch.h"
#include "exec/hash_join.h"
#include "exec/index_scan.h"
#include "exec/merge_join.h"
#include "exec/sort.h"
#include "testing/map_expect.h"
#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ExpectIoStatsEqual;
using ::robustmap::testing::ProcEnv;

/// A leaf that streams fixed rids, charging CPU per row, and fails on
/// demand: at `Open`, at the Nth `Next`, or by emitting a rid beyond the
/// table at the Nth row (so a fetch above it fails). It records whether it
/// is open, so a test can see that a failed run closed it.
class FlakyOp : public Operator {
 public:
  static constexpr size_t kNever = std::numeric_limits<size_t>::max();

  explicit FlakyOp(std::vector<Rid> rids) : rids_(std::move(rids)) {}

  Status Open(RunContext* ctx) override {
    (void)ctx;
    status_ = Status::OK();
    pos_ = 0;
    if (fail_open) return Status::Internal("injected open failure");
    open_ = true;
    return Status::OK();
  }

  bool Next(RunContext* ctx, Row* out) override {
    if (pos_ == fail_at) {
      status_ = Status::Internal("injected next failure");
      return false;
    }
    if (pos_ >= rids_.size()) return false;
    ctx->ChargeCpuOps(1, ctx->cpu.index_entry_seconds);
    out->rid = pos_ == bad_rid_at ? kInvalidRid - 1 : rids_[pos_];
    ++pos_;
    out->valid_cols = 0;
    out->SetCol(1, static_cast<int64_t>(out->rid % 64));
    return true;
  }

  void Close(RunContext* ctx) override {
    (void)ctx;
    open_ = false;
  }

  std::string DebugName() const override { return "Flaky"; }

  bool open() const { return open_; }

  bool fail_open = false;
  size_t fail_at = kNever;
  size_t bad_rid_at = kNever;

 private:
  std::vector<Rid> rids_;
  size_t pos_ = 0;
  bool open_ = false;
};

/// Every 7th rid of the table: some inside the idx(a) range the shapes
/// scan, most outside it.
std::vector<Rid> FlakyRids(const ProcEnv& env) {
  std::vector<Rid> rids;
  for (Rid r = 0; r < env.table().num_rows(); r += 7) rids.push_back(r);
  return rids;
}

OperatorPtr ScanA(ProcEnv* env) {
  IndexScanOptions opts;
  opts.k0_lo = 0;
  opts.k0_hi = 7;
  return std::make_unique<IndexScanOp>(env->idx_a(), opts);
}

/// The flaky leaf, with `*flaky` set to it.
OperatorPtr Flaky(ProcEnv* env, FlakyOp** flaky) {
  auto op = std::make_unique<FlakyOp>(FlakyRids(*env));
  *flaky = op.get();
  return op;
}

// Trees with one flaky leaf under each blocking operator.

OperatorPtr MergeJoinTree(ProcEnv* env, FlakyOp** flaky) {
  return std::make_unique<MergeJoinOp>(ScanA(env), Flaky(env, flaky));
}

OperatorPtr HashJoinFlakyProbeTree(ProcEnv* env, FlakyOp** flaky) {
  return std::make_unique<HashJoinOp>(ScanA(env), Flaky(env, flaky));
}

OperatorPtr HashJoinFlakyBuildTree(ProcEnv* env, FlakyOp** flaky) {
  return std::make_unique<HashJoinOp>(Flaky(env, flaky), ScanA(env));
}

OperatorPtr FetchTree(ProcEnv* env, FlakyOp** flaky, FetchPolicy policy) {
  return std::make_unique<FetchOp>(Flaky(env, flaky), &env->table(), policy,
                                   std::vector<RangePredicate>{{0, 0, 31}});
}

OperatorPtr NaiveFetchTree(ProcEnv* env, FlakyOp** flaky) {
  return FetchTree(env, flaky, FetchPolicy::kNaive);
}

OperatorPtr SortedFetchTree(ProcEnv* env, FlakyOp** flaky) {
  return FetchTree(env, flaky, FetchPolicy::kSorted);
}

OperatorPtr BitmapAndFetchTree(ProcEnv* env, FlakyOp** flaky) {
  auto intersect = std::make_unique<BitmapAndOp>(
      ScanA(env), Flaky(env, flaky), env->table().num_rows());
  return std::make_unique<FetchOp>(std::move(intersect), &env->table(),
                                   FetchPolicy::kBitmap,
                                   std::vector<RangePredicate>{});
}

OperatorPtr RidSortTree(ProcEnv* env, FlakyOp** flaky) {
  SortKeySpec key;
  key.kind = SortKeySpec::Kind::kRid;
  return std::make_unique<SortOp>(Flaky(env, flaky), key,
                                  SpillKind::kGraceful);
}

struct Shape {
  const char* name;
  OperatorPtr (*make)(ProcEnv* env, FlakyOp** flaky);
  /// The flaky leaf's rids go straight to a table fetch, which fails on a
  /// rid beyond the table (elsewhere such a rid would be undefined).
  bool fetches_flaky_rids;
};

const Shape kShapes[] = {
    {"merge join", MergeJoinTree, false},
    {"hash join, flaky probe", HashJoinFlakyProbeTree, false},
    {"hash join, flaky build", HashJoinFlakyBuildTree, false},
    {"naive fetch", NaiveFetchTree, true},
    {"sorted fetch", SortedFetchTree, true},
    {"bitmap fetch of a bitmap AND", BitmapAndFetchTree, false},
    {"rid sort", RidSortTree, false},
};

/// One cold run of `op`: its row count, virtual nanoseconds and I/O.
struct Drained {
  uint64_t rows = 0;
  int64_t ns = 0;
  IoStats io;
};

Drained ColdDrain(ProcEnv* env, Operator* op) {
  env->ctx()->ColdStart();
  const IoStats before = env->ctx()->device->stats();
  auto rows = DrainCount(env->ctx(), op);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return {rows.ok() ? rows.value() : 0, env->ctx()->clock->now_ns(),
          env->ctx()->device->stats().Delta(before)};
}

enum class Failure { kAtOpen, kAtRow5, kBadRidAtRow5 };

constexpr Failure kFailures[] = {Failure::kAtOpen, Failure::kAtRow5,
                                 Failure::kBadRidAtRow5};

// A run that fails — at the flaky leaf's Open, mid-stream, or in a fetch
// above it — closes the whole tree, and the same tree's next healthy runs
// measure exactly what a freshly built tree does, under 4 KiB of sort and
// hash memory (Grace partitioning, sort spills) and under 64 MiB: no open
// child, stale buffer, rid map, bitmap or error status carries over.
TEST(DrainCountTest, FailedRunClosesTreeAndReusedTreeMatchesFresh) {
  for (const Shape& shape : kShapes) {
    for (Failure failure : kFailures) {
      if (failure == Failure::kBadRidAtRow5 && !shape.fetches_flaky_rids) {
        continue;
      }
      SCOPED_TRACE(std::string(shape.name) + ", failure " +
                   std::to_string(static_cast<int>(failure)));
      ProcEnv env;
      FlakyOp* flaky = nullptr;
      OperatorPtr reused = shape.make(&env, &flaky);

      // A healthy run first, so the failure hits a tree with state.
      ColdDrain(&env, reused.get());
      flaky->fail_open = failure == Failure::kAtOpen;
      flaky->fail_at = failure == Failure::kAtRow5 ? 5 : FlakyOp::kNever;
      flaky->bad_rid_at =
          failure == Failure::kBadRidAtRow5 ? 5 : FlakyOp::kNever;
      env.ctx()->ColdStart();
      auto failed = DrainCount(env.ctx(), reused.get());
      ASSERT_FALSE(failed.ok());
      EXPECT_FALSE(flaky->open());

      flaky->fail_open = false;
      flaky->fail_at = FlakyOp::kNever;
      flaky->bad_rid_at = FlakyOp::kNever;
      for (uint64_t memory : {uint64_t{4} << 10, uint64_t{64} << 20}) {
        SCOPED_TRACE("memory " + std::to_string(memory));
        env.ctx()->sort_memory_bytes = memory;
        env.ctx()->hash_memory_bytes = memory;
        const Drained again = ColdDrain(&env, reused.get());
        EXPECT_FALSE(flaky->open());

        FlakyOp* fresh_flaky = nullptr;
        OperatorPtr fresh = shape.make(&env, &fresh_flaky);
        const Drained want = ColdDrain(&env, fresh.get());
        EXPECT_GT(want.rows, 0u);
        EXPECT_EQ(again.rows, want.rows);
        EXPECT_EQ(again.ns, want.ns);
        ExpectIoStatsEqual(again.io, want.io);
      }
    }
  }
}

}  // namespace
}  // namespace robustmap
