#ifndef ROBUSTMAP_TESTS_TESTING_TEST_ENV_H_
#define ROBUSTMAP_TESTS_TESTING_TEST_ENV_H_

#include <memory>
#include <set>

#include "engine/executor.h"
#include "index/procedural_index.h"
#include "io/buffer_pool.h"
#include "io/run_context.h"
#include "io/sim_device.h"
#include "storage/procedural_table.h"

namespace robustmap::testing {

/// A small, fully wired procedural database for operator/engine tests:
/// simulated machine, two-column table, all four indexes, and brute-force
/// reference queries to validate operators against.
class ProcEnv {
 public:
  explicit ProcEnv(int row_bits = 12, int value_bits = 6, uint64_t seed = 42)
      : device_(DiskParameters{}, &clock_), pool_(&device_, 4096) {
    ctx_.clock = &clock_;
    ctx_.device = &device_;
    ctx_.pool = &pool_;
    ProceduralTableOptions topts;
    topts.row_bits = row_bits;
    topts.value_bits = value_bits;
    topts.seed = seed;
    table_ = ProceduralTable::Create(&device_, topts).ValueOrDie();
    idx_a_ = MakeIndex({0});
    idx_b_ = MakeIndex({1});
    idx_ab_ = MakeIndex({0, 1});
    idx_ba_ = MakeIndex({1, 0});
  }

  RunContext* ctx() { return &ctx_; }
  const ProceduralTable& table() const { return *table_; }
  ProceduralIndex* idx_a() { return idx_a_.get(); }
  ProceduralIndex* idx_b() { return idx_b_.get(); }
  ProceduralIndex* idx_ab() { return idx_ab_.get(); }
  ProceduralIndex* idx_ba() { return idx_ba_.get(); }
  int64_t domain() const { return table_->value_domain(); }

  StudyDb db() {
    StudyDb d;
    d.table = table_.get();
    d.idx_a = idx_a_.get();
    d.idx_b = idx_b_.get();
    d.idx_ab = idx_ab_.get();
    d.idx_ba = idx_ba_.get();
    d.domain = domain();
    return d;
  }

  /// Brute-force reference result for a in [a_lo,a_hi] AND b in [b_lo,b_hi].
  std::set<Rid> MatchingRids(int64_t a_lo, int64_t a_hi, int64_t b_lo,
                             int64_t b_hi) const {
    std::set<Rid> out;
    for (Rid rid = 0; rid < table_->num_rows(); ++rid) {
      int64_t a = table_->ValueAt(rid, 0);
      int64_t b = table_->ValueAt(rid, 1);
      if (a >= a_lo && a <= a_hi && b >= b_lo && b <= b_hi) out.insert(rid);
    }
    return out;
  }

  uint64_t CountMatching(int64_t a_lo, int64_t a_hi, int64_t b_lo,
                         int64_t b_hi) const {
    return MatchingRids(a_lo, a_hi, b_lo, b_hi).size();
  }

 private:
  std::unique_ptr<ProceduralIndex> MakeIndex(std::vector<uint32_t> cols) {
    ProceduralIndexOptions opts;
    opts.key_columns = std::move(cols);
    opts.entries_per_leaf = 64;
    return ProceduralIndex::Create(&device_, table_.get(), opts).ValueOrDie();
  }

  VirtualClock clock_;
  SimDevice device_;
  BufferPool pool_;
  RunContext ctx_;
  std::unique_ptr<ProceduralTable> table_;
  std::unique_ptr<ProceduralIndex> idx_a_, idx_b_, idx_ab_, idx_ba_;
};

/// Drains an operator, collecting rids.
inline std::set<Rid> CollectRids(RunContext* ctx, Operator* op) {
  std::set<Rid> out;
  EXPECT_TRUE(op->Open(ctx).ok());
  Row r;
  while (op->Next(ctx, &r)) out.insert(r.rid);
  EXPECT_TRUE(op->status().ok());
  op->Close(ctx);
  return out;
}

}  // namespace robustmap::testing

#endif  // ROBUSTMAP_TESTS_TESTING_TEST_ENV_H_
