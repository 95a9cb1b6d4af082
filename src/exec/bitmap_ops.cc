#include "exec/bitmap_ops.h"

namespace robustmap {

namespace {

/// Index of the lowest set bit; `x` must be non-zero.
uint64_t LowestBit(uint64_t x) {
  return static_cast<uint64_t>(__builtin_ctzll(x));
}

}  // namespace

void RidBitmap::Reset(uint64_t num_rids) {
  const uint64_t num_words = (num_rids + 63) / 64;
  num_rids_ = num_rids;
  if (num_words == num_words_ && !bits_.empty()) {
    // Same shape: a word is non-zero only where its summary bit is set.
    for (uint64_t s = 0; num_words_ + s < bits_.size(); ++s) {
      uint64_t& marks = bits_[num_words_ + s];
      for (; marks != 0; marks &= marks - 1) {
        bits_[(s << 6) + LowestBit(marks)] = 0;
      }
    }
    return;
  }
  num_words_ = num_words;
  bits_.assign(num_words_ + (num_words_ + 63) / 64, 0);
}

void RidBitmap::Recycle() {
  // Not `RecycleBuffer`: kept words stay as they are, for `Reset` to clear
  // by the summary.
  if (bits_.capacity() * sizeof(uint64_t) <= kRetainedBufferBytes) return;
  std::vector<uint64_t>().swap(bits_);
  num_rids_ = 0;
  num_words_ = 0;
}

void RidBitmap::And(const RidBitmap& other) {
  assert(other.num_rids_ == num_rids_);
  for (uint64_t s = 0; num_words_ + s < bits_.size(); ++s) {
    uint64_t& marks = bits_[num_words_ + s];
    const uint64_t both = marks & other.bits_[num_words_ + s];
    for (uint64_t only = marks & ~both; only != 0; only &= only - 1) {
      bits_[(s << 6) + LowestBit(only)] = 0;
    }
    uint64_t kept = both;
    for (uint64_t m = both; m != 0; m &= m - 1) {
      const uint64_t w = (s << 6) + LowestBit(m);
      bits_[w] &= other.bits_[w];
      if (bits_[w] == 0) kept &= ~(uint64_t{1} << LowestBit(m));
    }
    marks = kept;
  }
}

uint64_t RidBitmap::Next(uint64_t pos) const {
  if (pos >= num_rids_) return num_rids_;
  uint64_t w = pos >> 6;
  const uint64_t word = bits_[w] & (~uint64_t{0} << (pos & 63));
  if (word != 0) return (w << 6) + LowestBit(word);
  // Later words: find the next marked one through the summary.
  if (++w >= num_words_) return num_rids_;
  uint64_t s = w >> 6;
  uint64_t marks = bits_[num_words_ + s] & (~uint64_t{0} << (w & 63));
  while (marks == 0) {
    if (num_words_ + ++s >= bits_.size()) return num_rids_;
    marks = bits_[num_words_ + s];
  }
  w = (s << 6) + LowestBit(marks);
  return (w << 6) + LowestBit(bits_[w]);
}

Status BitmapAndOp::FillBitmap(RunContext* ctx, Operator* child,
                               RidBitmap* bits) {
  bits->Reset(table_rows_);
  RM_RETURN_IF_ERROR(child->Open(ctx));
  Row r;
  uint64_t inserted = 0;
  while (child->Next(ctx, &r)) {
    bits->Set(r.rid);
    ++inserted;
  }
  RM_RETURN_IF_ERROR(child->status());
  child->Close(ctx);
  ctx->ChargeCpuOps(inserted, ctx->cpu.bitmap_set_seconds);
  return Status::OK();
}

Status BitmapAndOp::Open(RunContext* ctx) {
  status_ = Status::OK();
  scan_pos_ = 0;
  RM_RETURN_IF_ERROR(FillBitmap(ctx, left_.get(), &bits_));
  RM_RETURN_IF_ERROR(FillBitmap(ctx, right_.get(), &right_bits_));
  bits_.And(right_bits_);
  // Word-wise AND plus the output scan below, charged as passes over
  // every word whatever the host skips.
  ctx->ChargeCpuOps(bits_.num_words() * 2, ctx->cpu.bitmap_set_seconds);
  return Status::OK();
}

bool BitmapAndOp::Next(RunContext* ctx, Row* out) {
  (void)ctx;
  scan_pos_ = bits_.Next(scan_pos_);
  if (scan_pos_ >= bits_.num_rids()) return false;
  out->rid = scan_pos_++;
  out->valid_cols = 0;
  return true;
}

void BitmapAndOp::Close(RunContext* ctx) {
  left_->Close(ctx);
  right_->Close(ctx);
  bits_.Recycle();
  right_bits_.Recycle();
}

std::string BitmapAndOp::DebugName() const {
  return "BitmapAnd(" + left_->DebugName() + ", " + right_->DebugName() + ")";
}

}  // namespace robustmap
