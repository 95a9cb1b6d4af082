#ifndef ROBUSTMAP_WORKLOAD_DATASET_H_
#define ROBUSTMAP_WORKLOAD_DATASET_H_

#include <memory>
#include <optional>

#include "common/status.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "index/procedural_index.h"
#include "io/buffer_pool.h"
#include "io/run_context.h"
#include "io/sim_device.h"
#include "storage/procedural_table.h"

namespace robustmap {

/// Everything needed to run the paper's selection study at a chosen scale.
struct StudyOptions {
  /// log2 of the row count; 20 (1M rows) sweeps in seconds, 26 (67M rows)
  /// approximates the paper's 60M-row lineitem. All break-even *fractions*
  /// are scale-invariant under this cost model (DESIGN.md §5).
  int row_bits = 20;

  /// log2 of the column value domain; row_bits - value_bits duplicate rows
  /// share each value (default: 64 duplicates, like a low-cardinality
  /// attribute over a large table).
  int value_bits = 14;

  uint64_t seed = 42;
  DiskParameters disk;
  CpuParameters cpu;

  /// 0 = auto: table_pages / 64, at least 256 (a pool a couple of percent
  /// of the data, as in the paper's memory-constrained runs).
  uint64_t pool_pages = 0;

  /// 0 = auto: one byte per table row (64 MiB at paper scale), so rid sorts
  /// spill beyond ~12.5% selectivity and hash builds beyond ~6%.
  uint64_t sort_memory_bytes = 0;
  uint64_t hash_memory_bytes = 0;

  bool build_composite_indexes = true;
};

/// Owns the simulated machine (clock, device, buffer pool), the procedural
/// database (table + four indexes), and an `Executor` bound to them. One `StudyEnvironment` serves a whole sweep; `Executor::Run` resets
/// clock/pool per measurement.
class StudyEnvironment {
 public:
  static Result<std::unique_ptr<StudyEnvironment>> Create(
      const StudyOptions& opts);

  StudyEnvironment(const StudyEnvironment&) = delete;
  StudyEnvironment& operator=(const StudyEnvironment&) = delete;

  RunContext* ctx() { return &ctx_; }
  Executor& executor() { return *executor_; }
  const StudyDb& db() const { return db_; }
  const ProceduralTable& table() const { return *table_; }
  int64_t domain() const { return table_->value_domain(); }
  const StudyOptions& options() const { return opts_; }

  /// Builds the benchmark query for target selectivities (see
  /// `MakePredicate`); pass a negative selectivity to deactivate a
  /// predicate.
  QuerySpec MakeQuery(double sel_a, double sel_b) const;

 private:
  StudyEnvironment() = default;

  StudyOptions opts_;
  std::unique_ptr<VirtualClock> clock_;
  std::unique_ptr<SimDevice> device_;
  std::optional<BufferPool> pool_;
  RunContext ctx_;
  std::unique_ptr<ProceduralTable> table_;
  std::unique_ptr<ProceduralIndex> idx_a_, idx_b_, idx_ab_, idx_ba_;
  StudyDb db_;
  std::unique_ptr<Executor> executor_;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_WORKLOAD_DATASET_H_
