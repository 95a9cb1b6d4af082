#include "index/procedural_index.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <deque>

namespace robustmap {

namespace {

// Composite groups are cached per (thread, index) so that concurrent sweep
// workers sharing one index never contend or race. A slot holds one
// index's groups direct-mapped: group g lives in way g & group_way_mask_,
// and a way's entries are allocated when it is first filled, so memory
// tracks the groups a thread actually touches. A slot's way vector only
// grows (a cursor keeps a way number across calls), up to the index's way
// count. Slots are found by linear scan: a thread touches few distinct
// indexes at a time, and the unique id guards against a destroyed index's
// slot being picked up by a new instance at the same address. A deque keeps
// slot addresses stable while new slots are added (cursors keep a slot
// pointer), and the slot count is bounded: once full, the oldest slot is
// recycled round-robin — an eviction only costs re-materializing groups,
// never correctness (and no simulated cost either way).
struct GroupCacheWay {
  uint64_t group = ~uint64_t{0};
  std::vector<IndexEntry> entries;
};

struct GroupCacheSlot {
  uint64_t index_id = 0;
  std::vector<GroupCacheWay> ways;
};

constexpr size_t kMaxGroupCacheSlots = 16;

std::atomic<uint64_t> g_next_index_id{1};
thread_local std::deque<GroupCacheSlot> t_group_cache;
thread_local size_t t_group_cache_evict = 0;

GroupCacheSlot& GroupCacheFor(uint64_t index_id) {
  for (GroupCacheSlot& slot : t_group_cache) {
    if (slot.index_id == index_id) return slot;
  }
  if (t_group_cache.size() < kMaxGroupCacheSlots) {
    t_group_cache.emplace_back();
    t_group_cache.back().index_id = index_id;
    return t_group_cache.back();
  }
  GroupCacheSlot& slot = t_group_cache[t_group_cache_evict];
  t_group_cache_evict = (t_group_cache_evict + 1) % kMaxGroupCacheSlots;
  slot.index_id = index_id;
  slot.ways.assign(slot.ways.size(), GroupCacheWay{});
  return slot;
}

}  // namespace

// Leaf-aware cursor: it carries its end ordinal and the first ordinal of
// the next leaf, so it charges a leaf read at exactly the ordinals a
// per-entry `ordinal % entries_per_leaf == 0` test would, without the
// division. Single-column entries are synthesized inline; a composite
// cursor reads its next entry straight from its group's way in this
// thread's cache while the slot still belongs to this index and the way
// still holds this group, and falls back to `Group` — which finds the group
// cached or re-materializes it — on a group boundary or after another
// group or index took the way. Like the group cache, a cursor belongs to
// the thread that advances it.
class ProceduralIndex::Cursor final : public IndexCursor {
 public:
  Cursor(const ProceduralIndex* index, uint64_t ordinal)
      : index_(index),
        ordinal_(ordinal),
        end_(index->num_entries()),
        next_leaf_((ordinal / index->opts_.entries_per_leaf + 1) *
                   index->opts_.entries_per_leaf) {
    if (index_->opts_.key_columns.size() == 1) {
      perm_ = &index_->table_->column_permutation(index_->opts_.key_columns[0]);
      value_shift_ = index_->table_->value_shift();
    }
    if (Valid()) Load();
  }

  bool Valid() const override { return ordinal_ < end_; }

  void Next(RunContext* ctx) override {
    assert(Valid());
    if (++ordinal_ >= end_) return;
    if (ordinal_ == next_leaf_) {
      ctx->ReadPage(index_->LeafPageOf(ordinal_), /*cacheable=*/true);
      next_leaf_ += index_->opts_.entries_per_leaf;
    }
    if (perm_ == nullptr && ordinal_ < group_end_ &&
        slot_->index_id == index_->cache_id_ &&
        slot_->ways[way_].group == group_) {
      entry_ = slot_->ways[way_].entries[ordinal_ - group_begin_];
      return;
    }
    Load();
  }

  const IndexEntry& entry() const override { return entry_; }

 private:
  /// Synthesizes the entry at `ordinal_`; for a composite index, also
  /// (re)binds the way that `Group` just filled or found.
  void Load() {
    if (perm_ != nullptr) {
      entry_.key0 = static_cast<int64_t>(ordinal_ >> value_shift_);
      entry_.key1 = 0;
      entry_.rid = perm_->Inverse(ordinal_);
      return;
    }
    const uint64_t rpv = index_->table_->rows_per_value();
    group_ = ordinal_ / rpv;
    group_begin_ = group_ * rpv;
    group_end_ = group_begin_ + rpv;
    entry_ = index_->Group(group_)[ordinal_ - group_begin_];
    slot_ = &GroupCacheFor(index_->cache_id_);
    way_ = group_ & index_->group_way_mask_;
  }

  const ProceduralIndex* index_;
  uint64_t ordinal_;
  uint64_t end_;
  uint64_t next_leaf_;  ///< first ordinal of the next leaf page
  IndexEntry entry_;

  // Single-column synthesis (perm_ == nullptr for a composite index).
  const FeistelPermutation* perm_ = nullptr;
  int value_shift_ = 0;

  // Composite: the group holding ordinal_ and the slot and way it was read
  // into.
  const GroupCacheSlot* slot_ = nullptr;
  uint64_t way_ = 0;
  uint64_t group_ = 0;
  uint64_t group_begin_ = 0;
  uint64_t group_end_ = 0;
};

Result<std::unique_ptr<ProceduralIndex>> ProceduralIndex::Create(
    SimDevice* device, const ProceduralTable* table,
    const ProceduralIndexOptions& opts) {
  if (opts.key_columns.empty() || opts.key_columns.size() > 2) {
    return Status::InvalidArgument("index supports 1 or 2 key columns");
  }
  for (uint32_t c : opts.key_columns) {
    if (c >= table->num_columns()) {
      return Status::InvalidArgument("key column beyond table schema");
    }
  }
  if (opts.entries_per_leaf < 2) {
    return Status::InvalidArgument("entries_per_leaf too small");
  }
  uint64_t leaves =
      (table->num_rows() + opts.entries_per_leaf - 1) / opts.entries_per_leaf;
  uint64_t base = device->AllocateExtent(leaves);
  return std::unique_ptr<ProceduralIndex>(
      new ProceduralIndex(device, table, opts, base));
}

ProceduralIndex::ProceduralIndex(SimDevice* device,
                                 const ProceduralTable* table,
                                 const ProceduralIndexOptions& opts,
                                 uint64_t base_page)
    : device_(device),
      table_(table),
      opts_(opts),
      base_page_(base_page),
      group_way_mask_(std::max<uint64_t>(1, kGroupCacheEntries /
                                                table->rows_per_value()) -
                      1),
      cache_id_(g_next_index_id.fetch_add(1, std::memory_order_relaxed)) {
  (void)device_;
  num_leaf_pages_ =
      (table->num_rows() + opts_.entries_per_leaf - 1) / opts_.entries_per_leaf;
  double n = static_cast<double>(std::max<uint64_t>(1, num_leaf_pages_));
  height_ =
      1 + std::max(1, static_cast<int>(std::ceil(
                          std::log(n) / std::log(opts_.internal_fanout))));
}

const IndexEntry* ProceduralIndex::Group(uint64_t g) const {
  GroupCacheSlot& slot = GroupCacheFor(cache_id_);
  const uint64_t w = g & group_way_mask_;
  if (w >= slot.ways.size()) slot.ways.resize(w + 1);
  GroupCacheWay& way = slot.ways[w];
  if (way.group == g) return way.entries.data();
  const auto& perm0 = table_->column_permutation(opts_.key_columns[0]);
  const uint64_t rpv = table_->rows_per_value();
  way.entries.resize(rpv);
  for (uint64_t j = 0; j < rpv; ++j) {
    IndexEntry& e = way.entries[j];
    e.rid = perm0.Inverse(g * rpv + j);
    e.key0 = static_cast<int64_t>(g);
    e.key1 = table_->ValueAt(e.rid, opts_.key_columns[1]);
  }
  std::sort(way.entries.begin(), way.entries.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              if (a.key1 != b.key1) return a.key1 < b.key1;
              return a.rid < b.rid;
            });
  way.group = g;
  return way.entries.data();
}

IndexEntry ProceduralIndex::EntryAt(uint64_t k) const {
  assert(k < num_entries());
  if (opts_.key_columns.size() == 1) {
    const auto& perm = table_->column_permutation(opts_.key_columns[0]);
    IndexEntry e;
    e.key0 = static_cast<int64_t>(k >> table_->value_shift());
    e.key1 = 0;
    e.rid = perm.Inverse(k);
    return e;
  }
  uint64_t rpv = table_->rows_per_value();
  return Group(k / rpv)[k % rpv];
}

uint64_t ProceduralIndex::OrdinalLowerBound(int64_t k0, int64_t k1) const {
  int64_t domain = table_->value_domain();
  uint64_t n = num_entries();
  if (k0 < 0) return 0;
  if (k0 >= domain) return n;
  uint64_t rpv = table_->rows_per_value();
  if (opts_.key_columns.size() == 1) {
    // k1 is ignored; the first entry with key0 >= k0 starts value k0's run.
    return static_cast<uint64_t>(k0) * rpv;
  }
  if (k1 <= 0) return static_cast<uint64_t>(k0) * rpv;
  if (k1 >= domain) return (static_cast<uint64_t>(k0) + 1) * rpv;
  const IndexEntry* group = Group(static_cast<uint64_t>(k0));
  const IndexEntry* it = std::lower_bound(
      group, group + rpv, k1,
      [](const IndexEntry& e, int64_t key) { return e.key1 < key; });
  return static_cast<uint64_t>(k0) * rpv + static_cast<uint64_t>(it - group);
}

std::unique_ptr<IndexCursor> ProceduralIndex::Seek(RunContext* ctx, int64_t k0,
                                                   int64_t k1) {
  // Internal levels modeled as cached: CPU per level; then one leaf read.
  ctx->ChargeCpuOps(static_cast<uint64_t>(height_) * 8,
                    ctx->cpu.compare_seconds);
  uint64_t ordinal = OrdinalLowerBound(k0, k1);
  if (ordinal < num_entries()) {
    ctx->ReadPage(LeafPageOf(ordinal), /*cacheable=*/true);
  }
  return std::make_unique<Cursor>(this, ordinal);
}

}  // namespace robustmap
