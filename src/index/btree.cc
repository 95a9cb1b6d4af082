#include "index/btree.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace robustmap {

namespace {
// Free pages reserved behind the leaves, as a freshly loaded index file
// keeps for growth. Nothing uses them, but they are part of the device
// layout: later extents' page ids, and so every charged seek distance,
// depend on them.
constexpr uint64_t kReservedPages = 64;

// First position in [begin, end) whose entry is >= (k0, k1, 0).
size_t LowerBound(const std::vector<IndexEntry>& entries, int64_t k0,
                  int64_t k1) {
  IndexEntry probe{k0, k1, 0};
  auto it = std::lower_bound(entries.begin(), entries.end(), probe, EntryLess);
  return static_cast<size_t>(it - entries.begin());
}
}  // namespace

class BTree::Cursor : public IndexCursor {
 public:
  Cursor(const BTree* tree, size_t leaf, size_t pos)
      : tree_(tree), leaf_(leaf), pos_(pos) {}

  bool Valid() const override { return leaf_ < tree_->leaves_.size(); }

  void Next(RunContext* ctx) override {
    assert(Valid());
    ++pos_;
    while (Valid() && pos_ >= tree_->leaves_[leaf_].size()) {
      ++leaf_;
      pos_ = 0;
      if (Valid()) ctx->ReadPage(tree_->page(leaf_), /*cacheable=*/true);
    }
  }

  const IndexEntry& entry() const override {
    return tree_->leaves_[leaf_][pos_];
  }

 private:
  const BTree* tree_;
  size_t leaf_;
  size_t pos_;
};

Result<std::unique_ptr<BTree>> BTree::BulkLoad(SimDevice* device,
                                               std::vector<IndexEntry> entries,
                                               const BTreeOptions& opts) {
  if (opts.key_columns.empty() || opts.key_columns.size() > 2) {
    return Status::InvalidArgument("B-tree supports 1 or 2 key columns");
  }
  if (opts.leaf_capacity < 2 || opts.internal_fanout < 2) {
    return Status::InvalidArgument("leaf_capacity/internal_fanout too small");
  }
  if (!std::is_sorted(entries.begin(), entries.end(), EntryLess)) {
    return Status::InvalidArgument("bulk load requires sorted entries");
  }
  uint64_t num_leaves =
      std::max<uint64_t>(1, (entries.size() + opts.leaf_capacity - 1) /
                                opts.leaf_capacity);
  uint64_t base = device->AllocateExtent(num_leaves + kReservedPages);
  auto tree = std::unique_ptr<BTree>(new BTree(opts, base));

  // Leaves are filled to ~90%, a bulk load's usual fill factor.
  size_t fill = std::max<size_t>(2, opts.leaf_capacity * 9 / 10);
  if (entries.size() <= opts.leaf_capacity) fill = opts.leaf_capacity;
  size_t i = 0;
  while (i < entries.size() || tree->leaves_.empty()) {
    size_t take = std::min(fill, entries.size() - i);
    tree->leaves_.emplace_back(
        entries.begin() + static_cast<ptrdiff_t>(i),
        entries.begin() + static_cast<ptrdiff_t>(i + take));
    if (take > 0) tree->separators_.push_back(entries[i]);
    i += take;
  }
  tree->num_entries_ = entries.size();
  // Equivalent height: leaves + ceil(log_fanout(num_leaves)) internal levels.
  double n = static_cast<double>(std::max<size_t>(1, tree->separators_.size()));
  tree->height_ =
      1 + std::max(1, static_cast<int>(std::ceil(
                          std::log(n) / std::log(opts.internal_fanout))));
  return tree;
}

size_t BTree::FindLeaf(RunContext* ctx, const IndexEntry& probe) const {
  // Internal levels: cached; charge comparison CPU per level.
  ctx->ChargeCpuOps(static_cast<uint64_t>(height_) * 8,
                    ctx->cpu.compare_seconds);
  // Last separator <= probe.
  auto it = std::upper_bound(separators_.begin(), separators_.end(), probe,
                             EntryLess);
  return it == separators_.begin()
             ? 0
             : static_cast<size_t>(it - separators_.begin()) - 1;
}

std::unique_ptr<IndexCursor> BTree::Seek(RunContext* ctx, int64_t k0,
                                         int64_t k1) {
  size_t leaf = FindLeaf(ctx, IndexEntry{k0, k1, 0});
  ctx->ReadPage(page(leaf), /*cacheable=*/true);
  size_t pos = LowerBound(leaves_[leaf], k0, k1);
  // Normalize: the target may fall past the end of this leaf.
  while (leaf < leaves_.size() && pos >= leaves_[leaf].size()) {
    ++leaf;
    pos = 0;
    if (leaf < leaves_.size()) ctx->ReadPage(page(leaf), /*cacheable=*/true);
  }
  return std::make_unique<Cursor>(this, leaf, pos);
}

Status BTree::CheckInvariants() const {
  uint64_t seen = 0;
  const IndexEntry* prev = nullptr;
  for (const std::vector<IndexEntry>& leaf : leaves_) {
    if (leaf.size() > opts_.leaf_capacity) {
      return Status::Corruption("overfull leaf");
    }
    for (const auto& e : leaf) {
      if (prev != nullptr && EntryLess(e, *prev)) {
        return Status::Corruption("entries out of order across leaves");
      }
      prev = &e;
      ++seen;
    }
  }
  if (seen != num_entries_) {
    return Status::Corruption("entry count mismatch");
  }
  for (size_t i = 0; i + 1 < separators_.size(); ++i) {
    if (!EntryLess(separators_[i], separators_[i + 1])) {
      return Status::Corruption("separators out of order");
    }
  }
  return Status::OK();
}

}  // namespace robustmap
