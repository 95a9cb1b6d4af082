#ifndef ROBUSTMAP_EXEC_MERGE_JOIN_H_
#define ROBUSTMAP_EXEC_MERGE_JOIN_H_

#include <vector>

#include "exec/operator.h"

namespace robustmap {

/// Rid-intersection merge join of two index scans.
///
/// This is the paper's "index intersection by merge join": each child emits
/// (covered columns, rid) in key order; both sides are sorted by rid
/// (charging external-sort costs when they exceed work memory) and
/// intersected. The output row carries the union of both sides' covered
/// columns, so a pair of single-column indexes can *cover* a two-column
/// query without fetching (Figures 2 and 5). Cost is symmetric in the two
/// inputs — the symmetry landmark of Figure 5.
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(OperatorPtr left, OperatorPtr right)
      : left_(std::move(left)), right_(std::move(right)) {}

  Status Open(RunContext* ctx) override;
  bool Next(RunContext* ctx, Row* out) override;
  void Close(RunContext* ctx) override;
  std::string DebugName() const override;

 private:
  Status DrainSorted(RunContext* ctx, Operator* child, std::vector<Row>* out);

  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<Row> left_rows_;
  std::vector<Row> right_rows_;
  std::vector<Row> scratch_;  ///< `SortByRid`'s buffer, for both sides
  size_t li_ = 0;
  size_t ri_ = 0;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_EXEC_MERGE_JOIN_H_
