#ifndef ROBUSTMAP_EXEC_FETCH_H_
#define ROBUSTMAP_EXEC_FETCH_H_

#include <span>
#include <vector>

#include "exec/bitmap_ops.h"
#include "exec/operator.h"
#include "exec/predicate.h"
#include "storage/table.h"

namespace robustmap {

/// How rid streams are turned into table rows — the axis on which the
/// paper's three selection plans differ (Figure 1).
enum class FetchPolicy {
  /// Traditional index scan: fetch each row as its rid arrives, in key
  /// order. Every fetch is effectively a random page read.
  kNaive,
  /// Improved index scan: materialize and sort the rids, then sweep the
  /// table in physical order (skip-sequential I/O, each page touched once).
  kSorted,
  /// System B's variant: collect rids into a bitmap, then sweep ascending.
  /// Sorting is implicit and cheap, at the cost of scanning the bitmap.
  kBitmap,
};

/// Fetches full rows for the rid stream produced by `child`, applying
/// residual predicates after reconstruction.
class FetchOp : public Operator {
 public:
  FetchOp(OperatorPtr child, const Table* table, FetchPolicy policy,
          std::vector<RangePredicate> residual)
      : child_(std::move(child)),
        table_(table),
        policy_(policy),
        residual_(std::move(residual)) {}

  Status Open(RunContext* ctx) override;
  bool Next(RunContext* ctx, Row* out) override;
  void Close(RunContext* ctx) override;
  std::string DebugName() const override;

  uint64_t rows_fetched() const { return rows_fetched_; }

  /// Replaces the residual predicates for the next `Open`; reuses their
  /// storage.
  void set_residual(std::span<const RangePredicate> residual) {
    residual_.assign(residual.begin(), residual.end());
  }

 private:
  /// Blocking preparation for kSorted / kBitmap: drain child, order rids.
  Status Prepare(RunContext* ctx);

  bool NextRid(RunContext* ctx, Rid* rid);

  OperatorPtr child_;
  const Table* table_;
  FetchPolicy policy_;
  std::vector<RangePredicate> residual_;

  // kSorted / kBitmap state.
  std::vector<Rid> rids_;
  std::vector<Rid> scratch_;  ///< `SortByRid`'s buffer
  size_t rid_pos_ = 0;
  RidBitmap bitmap_;
  uint64_t bitmap_scan_pos_ = 0;

  uint64_t rows_fetched_ = 0;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_EXEC_FETCH_H_
