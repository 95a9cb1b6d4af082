#include "exec/table_scan.h"

namespace robustmap {

Status TableScanOp::Open(RunContext* ctx) {
  (void)ctx;
  status_ = Status::OK();
  next_page_ = 0;
  buffered_.clear();
  buffered_pos_ = 0;
  return Status::OK();
}

bool TableScanOp::Next(RunContext* ctx, Row* out) {
  for (;;) {
    if (buffered_pos_ < buffered_.size()) {
      *out = buffered_[buffered_pos_++];
      return true;
    }
    if (next_page_ >= table_->num_pages()) return false;
    buffered_.clear();
    buffered_pos_ = 0;
    page_rows_.clear();
    Status s = table_->ReadPage(ctx, next_page_, /*cacheable=*/false,
                                &page_rows_);
    if (!s.ok()) {
      status_ = s;
      return false;
    }
    ++next_page_;
    for (const Row& r : page_rows_) {
      if (EvalPredicates(ctx, predicates_, r)) buffered_.push_back(r);
    }
  }
}

void TableScanOp::Close(RunContext* ctx) {
  (void)ctx;
  RecycleBuffer(&buffered_);
  RecycleBuffer(&page_rows_);
}

std::string TableScanOp::DebugName() const {
  std::string name = "TableScan(";
  for (size_t i = 0; i < predicates_.size(); ++i) {
    if (i > 0) name += " AND ";
    name += predicates_[i].ToString();
  }
  name += ")";
  return name;
}

}  // namespace robustmap
