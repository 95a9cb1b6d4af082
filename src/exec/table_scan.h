#ifndef ROBUSTMAP_EXEC_TABLE_SCAN_H_
#define ROBUSTMAP_EXEC_TABLE_SCAN_H_

#include <span>
#include <vector>

#include "exec/operator.h"
#include "exec/predicate.h"
#include "storage/table.h"

namespace robustmap {

/// Full sequential scan of a table with pushed-down predicates.
///
/// Reads every page (ring-buffer style: pages are not admitted to the buffer
/// pool), charges predicate CPU for every row, and emits qualifying rows.
/// Its cost is constant in the selectivity — the flat line of Figure 1.
class TableScanOp : public Operator {
 public:
  TableScanOp(const Table* table, std::vector<RangePredicate> predicates)
      : table_(table), predicates_(std::move(predicates)) {}

  Status Open(RunContext* ctx) override;
  bool Next(RunContext* ctx, Row* out) override;
  void Close(RunContext* ctx) override;
  std::string DebugName() const override;

  /// Replaces the pushed-down predicates for the next `Open`; reuses their
  /// storage.
  void set_predicates(std::span<const RangePredicate> predicates) {
    predicates_.assign(predicates.begin(), predicates.end());
  }

 private:
  const Table* table_;
  std::vector<RangePredicate> predicates_;

  uint64_t next_page_ = 0;
  std::vector<Row> page_rows_;
  size_t buffered_pos_ = 0;
  std::vector<Row> buffered_;  ///< qualifying rows of the current page
};

}  // namespace robustmap

#endif  // ROBUSTMAP_EXEC_TABLE_SCAN_H_
