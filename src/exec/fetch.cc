#include "exec/fetch.h"

#include "exec/sort.h"

namespace robustmap {

Status FetchOp::Open(RunContext* ctx) {
  status_ = Status::OK();
  rids_.clear();
  rid_pos_ = 0;
  bitmap_scan_pos_ = 0;
  rows_fetched_ = 0;
  RM_RETURN_IF_ERROR(child_->Open(ctx));
  if (policy_ != FetchPolicy::kNaive) {
    return Prepare(ctx);
  }
  return Status::OK();
}

Status FetchOp::Prepare(RunContext* ctx) {
  Row r;
  if (policy_ == FetchPolicy::kSorted) {
    while (child_->Next(ctx, &r)) rids_.push_back(r.rid);
    RM_RETURN_IF_ERROR(child_->status());
    child_->Close(ctx);
    // Rid sort: 8-byte items under the sort memory budget.
    ChargeSortCost(ctx, rids_.size(), sizeof(Rid), ctx->sort_memory_bytes,
                   SpillKind::kGraceful);
    SortByRid(&rids_, &scratch_);
    return Status::OK();
  }
  // kBitmap: one bit per table row; insertion is cheap and order-free.
  bitmap_.Reset(table_->num_rows());
  uint64_t inserted = 0;
  while (child_->Next(ctx, &r)) {
    bitmap_.Set(r.rid);
    ++inserted;
  }
  RM_RETURN_IF_ERROR(child_->status());
  child_->Close(ctx);
  ctx->ChargeCpuOps(inserted, ctx->cpu.bitmap_set_seconds);
  // The sweep below, charged as one pass over every bitmap word whatever
  // the host skips.
  ctx->ChargeCpuOps(bitmap_.num_words(), ctx->cpu.bitmap_set_seconds);
  return Status::OK();
}

bool FetchOp::NextRid(RunContext* ctx, Rid* rid) {
  switch (policy_) {
    case FetchPolicy::kNaive: {
      Row r;
      if (!child_->Next(ctx, &r)) {
        status_ = child_->status();
        return false;
      }
      *rid = r.rid;
      return true;
    }
    case FetchPolicy::kSorted: {
      if (rid_pos_ >= rids_.size()) return false;
      *rid = rids_[rid_pos_++];
      return true;
    }
    case FetchPolicy::kBitmap: {
      bitmap_scan_pos_ = bitmap_.Next(bitmap_scan_pos_);
      if (bitmap_scan_pos_ >= bitmap_.num_rids()) return false;
      *rid = bitmap_scan_pos_++;
      return true;
    }
  }
  return false;
}

bool FetchOp::Next(RunContext* ctx, Row* out) {
  Rid rid;
  while (NextRid(ctx, &rid)) {
    Status s = table_->FetchRow(ctx, rid, out);
    if (!s.ok()) {
      status_ = s;
      return false;
    }
    ++rows_fetched_;
    if (EvalPredicates(ctx, residual_, *out)) return true;
  }
  return false;
}

void FetchOp::Close(RunContext* ctx) {
  child_->Close(ctx);
  RecycleBuffer(&rids_);
  RecycleBuffer(&scratch_);
  bitmap_.Recycle();
}

std::string FetchOp::DebugName() const {
  const char* p = policy_ == FetchPolicy::kNaive    ? "naive"
                  : policy_ == FetchPolicy::kSorted ? "sorted"
                                                    : "bitmap";
  std::string name = "Fetch(" + std::string(p);
  for (const auto& pred : residual_) name += ", residual " + pred.ToString();
  name += ") <- " + child_->DebugName();
  return name;
}

}  // namespace robustmap
