#include "exec/merge_join.h"

#include "exec/sort.h"

namespace robustmap {

Status MergeJoinOp::DrainSorted(RunContext* ctx, Operator* child,
                                std::vector<Row>* out) {
  RM_RETURN_IF_ERROR(child->Open(ctx));
  Row r;
  while (child->Next(ctx, &r)) out->push_back(r);
  RM_RETURN_IF_ERROR(child->status());
  child->Close(ctx);
  ChargeSortCost(ctx, out->size(), /*item_bytes=*/16, ctx->sort_memory_bytes,
                 SpillKind::kGraceful);
  SortByRid(out, &scratch_);
  return Status::OK();
}

Status MergeJoinOp::Open(RunContext* ctx) {
  status_ = Status::OK();
  left_rows_.clear();
  right_rows_.clear();
  li_ = ri_ = 0;
  RM_RETURN_IF_ERROR(DrainSorted(ctx, left_.get(), &left_rows_));
  RM_RETURN_IF_ERROR(DrainSorted(ctx, right_.get(), &right_rows_));
  return Status::OK();
}

bool MergeJoinOp::Next(RunContext* ctx, Row* out) {
  while (li_ < left_rows_.size() && ri_ < right_rows_.size()) {
    const Row& l = left_rows_[li_];
    const Row& r = right_rows_[ri_];
    ctx->ChargeCpuOps(1, ctx->cpu.compare_seconds);
    if (l.rid < r.rid) {
      ++li_;
    } else if (r.rid < l.rid) {
      ++ri_;
    } else {
      *out = l;
      for (uint32_t c = 0; c < kMaxColumns; ++c) {
        if (r.HasCol(c)) out->SetCol(c, r.cols[c]);
      }
      ctx->ChargeCpuOps(1, ctx->cpu.copy_row_seconds);
      ++li_;
      ++ri_;
      return true;
    }
  }
  return false;
}

void MergeJoinOp::Close(RunContext* ctx) {
  left_->Close(ctx);
  right_->Close(ctx);
  RecycleBuffer(&left_rows_);
  RecycleBuffer(&right_rows_);
  RecycleBuffer(&scratch_);
}

std::string MergeJoinOp::DebugName() const {
  return "MergeJoin(" + left_->DebugName() + ", " + right_->DebugName() + ")";
}

}  // namespace robustmap
