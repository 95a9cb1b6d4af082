#include "exec/index_scan.h"

#include <cstdio>

namespace robustmap {

Status IndexScanOp::Open(RunContext* ctx) {
  status_ = Status::OK();
  examined_ = 0;
  if (opts_.use_mdam || opts_.filter_k1) {
    if (index_->num_key_columns() != 2) {
      return Status::InvalidArgument(
          "k1 filtering / MDAM requires a two-column index");
    }
  }
  if (opts_.use_mdam) {
    MdamOptions mo;
    mo.k0_lo = opts_.k0_lo;
    mo.k0_hi = opts_.k0_hi;
    mo.k1_lo = opts_.k1_lo;
    mo.k1_hi = opts_.k1_hi;
    mo.k0_domain = opts_.k0_domain;
    mo.k1_domain = opts_.k1_domain;
    mo.mode = opts_.mdam_mode;
    cursor_ = MdamCursor::Create(ctx, index_, mo);
  } else {
    cursor_ = index_->Seek(ctx, opts_.k0_lo, INT64_MIN);
  }
  return Status::OK();
}

bool IndexScanOp::Next(RunContext* ctx, Row* out) {
  while (cursor_ != nullptr && cursor_->Valid()) {
    const IndexEntry& e = cursor_->entry();
    if (e.key0 > opts_.k0_hi) return false;
    ++examined_;
    ctx->ChargeCpuOps(1, ctx->cpu.index_entry_seconds);
    bool match = true;
    if (opts_.filter_k1 && !opts_.use_mdam) {
      match = e.key1 >= opts_.k1_lo && e.key1 <= opts_.k1_hi;
    }
    if (match) {
      out->rid = e.rid;
      out->valid_cols = 0;
      const auto& kc = index_->key_columns();
      out->SetCol(kc[0], e.key0);
      if (kc.size() > 1) out->SetCol(kc[1], e.key1);
      cursor_->Next(ctx);
      return true;
    }
    cursor_->Next(ctx);
  }
  return false;
}

void IndexScanOp::Close(RunContext* ctx) {
  (void)ctx;
  cursor_.reset();
}

std::string IndexScanOp::DebugName() const {
  char buf[160];
  const auto& kc = index_->key_columns();
  if (opts_.use_mdam) {
    std::snprintf(buf, sizeof(buf),
                  "MdamScan(col%u in [%lld,%lld], col%u in [%lld,%lld])",
                  kc[0], static_cast<long long>(opts_.k0_lo),
                  static_cast<long long>(opts_.k0_hi), kc[1],
                  static_cast<long long>(opts_.k1_lo),
                  static_cast<long long>(opts_.k1_hi));
  } else if (opts_.filter_k1) {
    std::snprintf(buf, sizeof(buf),
                  "IndexScan(col%u in [%lld,%lld], filter col%u in "
                  "[%lld,%lld])",
                  kc[0], static_cast<long long>(opts_.k0_lo),
                  static_cast<long long>(opts_.k0_hi), kc[1],
                  static_cast<long long>(opts_.k1_lo),
                  static_cast<long long>(opts_.k1_hi));
  } else {
    std::snprintf(buf, sizeof(buf), "IndexScan(col%u in [%lld,%lld])", kc[0],
                  static_cast<long long>(opts_.k0_lo),
                  static_cast<long long>(opts_.k0_hi));
  }
  return buf;
}

}  // namespace robustmap
