#include "exec/sort.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <utility>

namespace robustmap {

namespace {

Rid KeyOf(const Row& row) { return row.rid; }
Rid KeyOf(Rid rid) { return rid; }

template <typename T>
void RadixSortByRid(std::vector<T>* items, std::vector<T>* scratch,
                    size_t min_items) {
  const size_t n = items->size();
  if (n < min_items) {
    std::sort(items->begin(), items->end(),
              [](const T& a, const T& b) { return KeyOf(a) < KeyOf(b); });
    return;
  }
  Rid any_bits = 0;
  for (const T& item : *items) any_bits |= KeyOf(item);
  const int bytes = (static_cast<int>(std::bit_width(any_bits)) + 7) / 8;
  // Every pass's byte histogram, from one read of the input.
  std::array<std::array<size_t, 256>, sizeof(Rid)> count;
  for (int b = 0; b < bytes; ++b) count[b].fill(0);
  for (const T& item : *items) {
    const Rid key = KeyOf(item);
    for (int b = 0; b < bytes; ++b) ++count[b][(key >> (8 * b)) & 0xff];
  }
  scratch->resize(n);
  T* src = items->data();
  T* dst = scratch->data();
  for (int b = 0; b < bytes; ++b) {
    const int shift = 8 * b;
    std::array<size_t, 256>& next = count[b];
    // A byte every item shares leaves the order as it is.
    if (next[(KeyOf(src[0]) >> shift) & 0xff] == n) continue;
    size_t offset = 0;
    for (size_t& c : next) offset += std::exchange(c, offset);
    for (size_t i = 0; i < n; ++i) {
      dst[next[(KeyOf(src[i]) >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != items->data()) std::copy(src, src + n, items->data());
}

}  // namespace

void SortByRid(std::vector<Row>* rows, std::vector<Row>* scratch) {
  RadixSortByRid(rows, scratch, kRadixSortMinRows);
}

void SortByRid(std::vector<Rid>* rids, std::vector<Rid>* scratch) {
  RadixSortByRid(rids, scratch, kRadixSortMinRids);
}

uint64_t ChargeSortCost(RunContext* ctx, uint64_t n_items, uint64_t item_bytes,
                        uint64_t memory_bytes, SpillKind kind) {
  if (n_items == 0) return 0;
  double n = static_cast<double>(n_items);
  ctx->ChargeCpuOps(static_cast<uint64_t>(n * std::max(1.0, std::log2(n))),
                    ctx->cpu.compare_seconds);

  uint64_t bytes = n_items * item_bytes;
  if (bytes <= memory_bytes) return 0;

  uint64_t page = ctx->device->model().params().page_size_bytes;
  uint64_t spilled_bytes =
      kind == SpillKind::kGraceful ? bytes - memory_bytes : bytes;
  uint64_t spilled_pages = (spilled_bytes + page - 1) / page;
  if (spilled_pages == 0) return 0;

  // Runs are memory-loads; each merge pass has fan-in = one input buffer
  // page per run.
  uint64_t runs = (spilled_bytes + memory_bytes - 1) / memory_bytes;
  if (kind == SpillKind::kGraceful) ++runs;  // plus the resident run
  uint64_t fanin = std::max<uint64_t>(2, memory_bytes / page);
  uint64_t passes = 1;
  for (uint64_t width = fanin; width < runs; width *= fanin) ++passes;

  uint64_t temp = ctx->device->AllocateExtent(spilled_pages);
  for (uint64_t p = 0; p < passes; ++p) {
    ctx->device->WriteRun(temp, spilled_pages);
    ctx->device->ReadRun(temp, spilled_pages);
  }
  return spilled_pages * passes;
}

Status SortOp::Open(RunContext* ctx) {
  status_ = Status::OK();
  rows_.clear();
  pos_ = 0;
  spilled_pages_ = 0;
  RM_RETURN_IF_ERROR(child_->Open(ctx));
  Row r;
  while (child_->Next(ctx, &r)) rows_.push_back(r);
  RM_RETURN_IF_ERROR(child_->status());
  child_->Close(ctx);

  spilled_pages_ = ChargeSortCost(ctx, rows_.size(), item_bytes_,
                                  ctx->sort_memory_bytes, spill_);
  if (key_.kind == SortKeySpec::Kind::kRid) {
    SortByRid(&rows_, &scratch_);
  } else {
    uint32_t c = key_.column;
    std::sort(rows_.begin(), rows_.end(), [c](const Row& a, const Row& b) {
      if (a.cols[c] != b.cols[c]) return a.cols[c] < b.cols[c];
      return a.rid < b.rid;
    });
  }
  return Status::OK();
}

bool SortOp::Next(RunContext* ctx, Row* out) {
  (void)ctx;
  if (pos_ >= rows_.size()) return false;
  *out = rows_[pos_++];
  return true;
}

void SortOp::Close(RunContext* ctx) {
  child_->Close(ctx);
  RecycleBuffer(&rows_);
  RecycleBuffer(&scratch_);
}

std::string SortOp::DebugName() const {
  std::string kind = spill_ == SpillKind::kGraceful ? "graceful" : "naive";
  std::string key = key_.kind == SortKeySpec::Kind::kRid
                        ? "rid"
                        : "col" + std::to_string(key_.column);
  return "Sort(" + key + ", " + kind + ") <- " + child_->DebugName();
}

}  // namespace robustmap
