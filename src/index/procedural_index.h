#ifndef ROBUSTMAP_INDEX_PROCEDURAL_INDEX_H_
#define ROBUSTMAP_INDEX_PROCEDURAL_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "index/index.h"
#include "storage/procedural_table.h"

namespace robustmap {

/// Options for a procedural index.
struct ProceduralIndexOptions {
  /// 1 or 2 base-table column ordinals, in key order.
  std::vector<uint32_t> key_columns;
  uint32_t entries_per_leaf = 512;  ///< 16 B entries on 8 KiB pages
  uint32_t internal_fanout = 256;
};

/// Non-clustered index over a `ProceduralTable`, synthesized on demand.
///
/// Entries are addressed by ordinal k in key order:
///   * single column c:   key0 = k >> value_shift, rid = perm_c^{-1}(k)
///     (sorting by the raw permuted value sorts by key with a deterministic
///     tie order, so the k-th entry is computable in O(1));
///   * composite (c0,c1): ordinal k lies in group g = k / rows_per_value;
///     the group's rows are perm_c0^{-1}(g*rpv .. (g+1)*rpv) sorted by
///     (key1, rid). Groups are materialized lazily into a per-thread cache
///     that holds up to kGroupCacheEntries entries of each index, so the
///     first groups that every low-band cell reads are derived once per
///     thread, not once per cell.
///
/// Leaf-page I/O is charged exactly like a real B-tree with the same
/// fan-out: ordinal / entries_per_leaf maps to a physical leaf page.
class ProceduralIndex : public Index {
 public:
  /// Entry budget of one thread's composite-group cache for one index:
  /// it keeps max(1, kGroupCacheEntries / rows_per_value) groups, group g
  /// in way g % that count.
  static constexpr uint64_t kGroupCacheEntries = 4096;

  static Result<std::unique_ptr<ProceduralIndex>> Create(
      SimDevice* device, const ProceduralTable* table,
      const ProceduralIndexOptions& opts);

  // Index interface.
  uint32_t num_key_columns() const override {
    return static_cast<uint32_t>(opts_.key_columns.size());
  }
  const std::vector<uint32_t>& key_columns() const override {
    return opts_.key_columns;
  }
  uint64_t num_entries() const override { return table_->num_rows(); }
  uint32_t entries_per_leaf() const override { return opts_.entries_per_leaf; }
  int height() const override { return height_; }
  uint64_t num_leaf_pages() const override { return num_leaf_pages_; }
  std::unique_ptr<IndexCursor> Seek(RunContext* ctx, int64_t k0,
                                    int64_t k1) override;

  /// Entry at ordinal `k` (no simulated cost; cursors charge leaf I/O).
  IndexEntry EntryAt(uint64_t k) const;

  /// Ordinal of the first entry with (key0, key1) >= (k0, k1).
  uint64_t OrdinalLowerBound(int64_t k0, int64_t k1) const;

  /// Global device page of the leaf holding ordinal `k`.
  uint64_t LeafPageOf(uint64_t k) const {
    return base_page_ + k / opts_.entries_per_leaf;
  }

 private:
  class Cursor;

  ProceduralIndex(SimDevice* device, const ProceduralTable* table,
                  const ProceduralIndexOptions& opts, uint64_t base_page);

  /// Materializes (and caches) composite group `g` sorted by (key1, rid);
  /// returns its rows_per_value entries.
  const IndexEntry* Group(uint64_t g) const;

  SimDevice* device_;
  const ProceduralTable* table_;
  ProceduralIndexOptions opts_;
  uint64_t base_page_;
  uint64_t num_leaf_pages_;
  int height_;
  uint64_t group_way_mask_;  ///< group cache ways - 1 (a power of two)

  /// Key for this instance's per-thread group cache (see Group): parallel
  /// sweep workers share the index object, so an instance-level mutable
  /// cache would race. Ids are never reused, so a destroyed index's cached
  /// slot can only go stale, never be misread.
  uint64_t cache_id_;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_INDEX_PROCEDURAL_INDEX_H_
