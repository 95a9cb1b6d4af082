#ifndef ROBUSTMAP_INDEX_BTREE_H_
#define ROBUSTMAP_INDEX_BTREE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/index.h"
#include "io/run_context.h"

namespace robustmap {

/// B-tree tuning knobs. Small capacities force multi-level trees in tests.
struct BTreeOptions {
  uint32_t leaf_capacity = 512;      ///< entries per leaf page (16 B entries)
  uint32_t internal_fanout = 256;    ///< children per internal node
  std::vector<uint32_t> key_columns; ///< base-table column ordinals
};

/// A B-tree bulk-loaded from sorted entries, with ordered range scans.
/// Leaf pages live on the simulated device, physically contiguous in key
/// order. Internal nodes are modeled as resident (CPU charge per level).
class BTree : public Index {
 public:
  /// Builds from entries that must already be sorted by `EntryLess`. The
  /// tree's extent is its leaves plus a fixed reserve of free pages.
  static Result<std::unique_ptr<BTree>> BulkLoad(
      SimDevice* device, std::vector<IndexEntry> entries,
      const BTreeOptions& opts);

  // Index interface.
  uint32_t num_key_columns() const override {
    return static_cast<uint32_t>(opts_.key_columns.size());
  }
  const std::vector<uint32_t>& key_columns() const override {
    return opts_.key_columns;
  }
  uint64_t num_entries() const override { return num_entries_; }
  uint32_t entries_per_leaf() const override { return opts_.leaf_capacity; }
  int height() const override { return height_; }
  uint64_t num_leaf_pages() const override { return leaves_.size(); }
  std::unique_ptr<IndexCursor> Seek(RunContext* ctx, int64_t k0,
                                    int64_t k1) override;

  /// Structural invariant check, used by property tests: keys sorted within
  /// and across leaves, no leaf over capacity, separator keys consistent.
  Status CheckInvariants() const;

 private:
  class Cursor;

  BTree(BTreeOptions opts, uint64_t base_page)
      : opts_(std::move(opts)), base_page_(base_page) {}

  /// The leaf that may contain the first entry >= probe (full (key0, key1,
  /// rid) comparison); charges the probe cost.
  size_t FindLeaf(RunContext* ctx, const IndexEntry& probe) const;

  /// Device page id of leaf `leaf`.
  uint64_t page(size_t leaf) const { return base_page_ + leaf; }

  BTreeOptions opts_;
  uint64_t base_page_;
  uint64_t num_entries_ = 0;
  int height_ = 1;

  /// Leaves in key order; the empty tree has one empty leaf.
  std::vector<std::vector<IndexEntry>> leaves_;
  /// Key-ordered directory over leaves: lowest entry of each non-empty
  /// leaf. Models the internal levels (kept flat; height_ reports the
  /// equivalent B-tree depth for cost purposes).
  std::vector<IndexEntry> separators_;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_INDEX_BTREE_H_
