#ifndef ROBUSTMAP_EXEC_INDEX_SCAN_H_
#define ROBUSTMAP_EXEC_INDEX_SCAN_H_

#include <memory>

#include "exec/operator.h"
#include "index/index.h"
#include "index/mdam.h"

namespace robustmap {

/// Options for an index range scan.
struct IndexScanOptions {
  /// Inclusive range on the leading key column.
  int64_t k0_lo = 0;
  int64_t k0_hi = 0;

  /// Composite indexes only: also filter the second key column (a covering
  /// scan evaluates this predicate inside the index, examining every entry
  /// in the k0 range).
  bool filter_k1 = false;
  int64_t k1_lo = 0;
  int64_t k1_hi = 0;

  /// Composite indexes only: navigate with MDAM instead of scan-and-filter.
  bool use_mdam = false;
  MdamOptions::Mode mdam_mode = MdamOptions::Mode::kAuto;

  /// Key domains (for MDAM's cost-based mode choice); 0 = unknown.
  int64_t k0_domain = 0;
  int64_t k1_domain = 0;
};

/// Ordered scan of an index leaf range, emitting covered key columns + rid.
///
/// Emits rows in *key* order (rids unsorted); downstream fetch or join
/// operators decide how to turn rids into table rows. Charges per-entry CPU
/// for every entry examined (including entries rejected by the k1 filter)
/// while the cursor charges leaf I/O.
class IndexScanOp : public Operator {
 public:
  IndexScanOp(Index* index, const IndexScanOptions& opts)
      : index_(index), opts_(opts) {}

  Status Open(RunContext* ctx) override;
  bool Next(RunContext* ctx, Row* out) override;
  void Close(RunContext* ctx) override;
  std::string DebugName() const override;

  /// After Close: number of entries the scan examined.
  uint64_t entries_examined() const { return examined_; }

  /// Replaces the scan's range and mode for the next `Open`.
  void set_options(const IndexScanOptions& opts) { opts_ = opts; }

 private:
  Index* index_;
  IndexScanOptions opts_;
  std::unique_ptr<IndexCursor> cursor_;
  uint64_t examined_ = 0;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_EXEC_INDEX_SCAN_H_
