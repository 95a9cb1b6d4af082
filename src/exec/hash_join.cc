#include "exec/hash_join.h"

#include <cmath>

#include "common/rng.h"

namespace robustmap {

namespace {
// Merges build-side columns into a probe-side row.
void MergeInto(const Row& build, Row* out) {
  for (uint32_t c = 0; c < kMaxColumns; ++c) {
    if (build.HasCol(c)) out->SetCol(c, build.cols[c]);
  }
}
}  // namespace

void RidMap::Reset(size_t expected) {
  size_t cap = 16;
  while (cap < expected * 2) cap <<= 1;
  keys_.assign(cap, kInvalidRid);
  // Only slots with a key are read, so stale ordinals may stay.
  values_.resize(cap);
  mask_ = cap - 1;
  size_ = 0;
}

void RidMap::Recycle() {
  RecycleBuffer(&keys_);
  RecycleBuffer(&values_);
}

size_t RidMap::Slot(Rid rid) const { return Mix64(rid) & mask_; }

void RidMap::Insert(Rid rid, uint32_t ordinal) {
  size_t slot = Slot(rid);
  while (keys_[slot] != kInvalidRid) {
    if (keys_[slot] == rid) return;
    slot = (slot + 1) & mask_;
  }
  keys_[slot] = rid;
  values_[slot] = ordinal;
  ++size_;
}

uint32_t RidMap::Find(Rid rid) const {
  size_t slot = Slot(rid);
  while (keys_[slot] != kInvalidRid) {
    if (keys_[slot] == rid) return values_[slot];
    slot = (slot + 1) & mask_;
  }
  return UINT32_MAX;
}

Status HashJoinOp::Open(RunContext* ctx) {
  status_ = Status::OK();
  build_rows_.clear();
  materialized_probe_.clear();
  probe_pos_ = 0;
  probe_open_ = false;
  partition_pages_ = 0;

  RM_RETURN_IF_ERROR(build_->Open(ctx));
  Row r;
  while (build_->Next(ctx, &r)) build_rows_.push_back(r);
  RM_RETURN_IF_ERROR(build_->status());
  build_->Close(ctx);

  constexpr uint64_t kRowBytes = 16;
  uint64_t build_bytes = build_rows_.size() * kRowBytes;
  ctx->ChargeCpuOps(build_rows_.size(), ctx->cpu.hash_seconds);

  if (build_bytes > ctx->hash_memory_bytes) {
    // Grace partitioning: both inputs are written out and read back once per
    // recursion level before any joining happens. The probe side must be
    // fully consumed to know its volume — exactly why an oversized build
    // side hurts so much more than an oversized probe side.
    RM_RETURN_IF_ERROR(probe_->Open(ctx));
    while (probe_->Next(ctx, &r)) materialized_probe_.push_back(r);
    RM_RETURN_IF_ERROR(probe_->status());
    probe_->Close(ctx);
    ctx->ChargeCpuOps(materialized_probe_.size(), ctx->cpu.hash_seconds);

    uint64_t page = ctx->device->model().params().page_size_bytes;
    uint64_t fanout = std::max<uint64_t>(2, ctx->hash_memory_bytes / page);
    uint64_t levels = 0;
    for (uint64_t b = build_bytes; b > ctx->hash_memory_bytes; b /= fanout) {
      ++levels;
    }
    uint64_t probe_bytes = materialized_probe_.size() * kRowBytes;
    uint64_t pages = (build_bytes + probe_bytes + page - 1) / page *
                     std::max<uint64_t>(1, levels);
    if (pages > 0) {
      uint64_t temp = ctx->device->AllocateExtent(pages);
      ctx->device->WriteRun(temp, pages);
      ctx->device->ReadRun(temp, pages);
      partition_pages_ = pages;
    }
    // After partitioning, per-partition joins proceed in memory: the
    // materialized probe is intersected in `Next`.
  } else {
    RM_RETURN_IF_ERROR(probe_->Open(ctx));
    probe_open_ = true;
  }

  map_.Reset(build_rows_.size());
  for (uint32_t i = 0; i < build_rows_.size(); ++i) {
    map_.Insert(build_rows_[i].rid, i);
  }
  return Status::OK();
}

bool HashJoinOp::Next(RunContext* ctx, Row* out) {
  if (probe_open_) {
    Row r;
    while (probe_->Next(ctx, &r)) {
      ctx->ChargeCpuOps(1, ctx->cpu.hash_seconds);
      uint32_t hit = map_.Find(r.rid);
      if (hit != UINT32_MAX) {
        *out = r;
        MergeInto(build_rows_[hit], out);
        ctx->ChargeCpuOps(1, ctx->cpu.copy_row_seconds);
        return true;
      }
    }
    status_ = probe_->status();
    return false;
  }
  while (probe_pos_ < materialized_probe_.size()) {
    const Row& r = materialized_probe_[probe_pos_++];
    ctx->ChargeCpuOps(1, ctx->cpu.hash_seconds);
    uint32_t hit = map_.Find(r.rid);
    if (hit != UINT32_MAX) {
      *out = r;
      MergeInto(build_rows_[hit], out);
      ctx->ChargeCpuOps(1, ctx->cpu.copy_row_seconds);
      return true;
    }
  }
  return false;
}

void HashJoinOp::Close(RunContext* ctx) {
  build_->Close(ctx);
  probe_->Close(ctx);
  probe_open_ = false;
  RecycleBuffer(&build_rows_);
  RecycleBuffer(&materialized_probe_);
  map_.Recycle();
}

std::string HashJoinOp::DebugName() const {
  return "HashJoin(build " + build_->DebugName() + ", probe " +
         probe_->DebugName() + ")";
}

}  // namespace robustmap
