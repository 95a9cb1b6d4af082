#include "index/procedural_index.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <tuple>
#include <vector>

namespace robustmap {
namespace {

class ProceduralIndexTest : public ::testing::Test {
 protected:
  ProceduralIndexTest()
      : device_(DiskParameters{}, &clock_), pool_(&device_, 1024) {
    ctx_.clock = &clock_;
    ctx_.device = &device_;
    ctx_.pool = &pool_;
    ProceduralTableOptions topts;
    topts.row_bits = 12;   // 4096 rows
    topts.value_bits = 6;  // 64 values x 64 dupes
    table_ = ProceduralTable::Create(&device_, topts).ValueOrDie();
  }

  std::unique_ptr<ProceduralIndex> MakeIndex(std::vector<uint32_t> cols) {
    ProceduralIndexOptions opts;
    opts.key_columns = std::move(cols);
    opts.entries_per_leaf = 64;
    return ProceduralIndex::Create(&device_, table_.get(), opts).ValueOrDie();
  }

  VirtualClock clock_;
  SimDevice device_;
  BufferPool pool_;
  RunContext ctx_;
  std::unique_ptr<ProceduralTable> table_;
};

TEST_F(ProceduralIndexTest, SingleColumnEntriesSortedAndComplete) {
  auto idx = MakeIndex({0});
  std::set<Rid> rids;
  int64_t prev_key = -1;
  for (uint64_t k = 0; k < idx->num_entries(); ++k) {
    IndexEntry e = idx->EntryAt(k);
    ASSERT_GE(e.key0, prev_key);
    prev_key = e.key0;
    ASSERT_EQ(e.key0, table_->ValueAt(e.rid, 0));
    rids.insert(e.rid);
  }
  EXPECT_EQ(rids.size(), table_->num_rows());  // every row indexed once
}

TEST_F(ProceduralIndexTest, SingleColumnRangeCountsExact) {
  auto idx = MakeIndex({0});
  // Range [0, k) holds exactly k * 64 entries for every k.
  for (int64_t k : {1, 7, 32, 64}) {
    EXPECT_EQ(idx->OrdinalLowerBound(k, INT64_MIN),
              static_cast<uint64_t>(k) * 64);
  }
  EXPECT_EQ(idx->OrdinalLowerBound(INT64_MIN, INT64_MIN), 0u);
  EXPECT_EQ(idx->OrdinalLowerBound(64, 0), idx->num_entries());
}

TEST_F(ProceduralIndexTest, CompositeEntriesSortedByBothKeys) {
  auto idx = MakeIndex({0, 1});
  IndexEntry prev{-1, -1, 0};
  std::set<Rid> rids;
  for (uint64_t k = 0; k < idx->num_entries(); ++k) {
    IndexEntry e = idx->EntryAt(k);
    ASSERT_FALSE(EntryLess(e, prev)) << "ordinal " << k;
    prev = e;
    ASSERT_EQ(e.key0, table_->ValueAt(e.rid, 0));
    ASSERT_EQ(e.key1, table_->ValueAt(e.rid, 1));
    rids.insert(e.rid);
  }
  EXPECT_EQ(rids.size(), table_->num_rows());
}

TEST_F(ProceduralIndexTest, CompositeSeekSemantics) {
  auto idx = MakeIndex({0, 1});
  // Brute-force the expected lower bound for a few probes.
  for (int64_t k0 : {0, 5, 63}) {
    for (int64_t k1 : {0, 13, 40, 63}) {
      uint64_t got = idx->OrdinalLowerBound(k0, k1);
      uint64_t expect = 0;
      while (expect < idx->num_entries()) {
        IndexEntry e = idx->EntryAt(expect);
        if (e.key0 > k0 || (e.key0 == k0 && e.key1 >= k1)) break;
        ++expect;
      }
      ASSERT_EQ(got, expect) << "probe (" << k0 << "," << k1 << ")";
    }
  }
}

TEST_F(ProceduralIndexTest, CursorVisitsRangeAndChargesLeafIo) {
  auto idx = MakeIndex({0});
  uint64_t reads_before = device_.stats().total_reads();
  auto cursor = idx->Seek(&ctx_, 10, INT64_MIN);
  uint64_t count = 0;
  while (cursor->Valid() && cursor->entry().key0 <= 12) {
    ++count;
    cursor->Next(&ctx_);
  }
  EXPECT_EQ(count, 3u * 64);  // values 10, 11, 12
  // 192 entries at 64/leaf crosses at least 2 leaf boundaries + the probe.
  EXPECT_GE(device_.stats().total_reads() + device_.stats().buffer_hits -
                reads_before,
            3u);
}

TEST_F(ProceduralIndexTest, SeekMidGroupOnComposite) {
  auto idx = MakeIndex({0, 1});
  auto cursor = idx->Seek(&ctx_, 3, 50);
  ASSERT_TRUE(cursor->Valid());
  const IndexEntry& e = cursor->entry();
  EXPECT_TRUE(e.key0 > 3 || (e.key0 == 3 && e.key1 >= 50));
}

/// An entry's (key0, key1, rid), comparable and printable.
using EntryKey = std::tuple<int64_t, int64_t, Rid>;
EntryKey Key(const IndexEntry& e) { return {e.key0, e.key1, e.rid}; }

/// The entries `EntryAt` gives for ordinals [first, first + n), computed
/// before any cursor runs so the expectation shares no cache state with
/// the cursors under test.
std::vector<EntryKey> EntriesFrom(const ProceduralIndex& idx, uint64_t first,
                                  uint64_t n) {
  std::vector<EntryKey> out;
  for (uint64_t k = first; k < first + n && k < idx.num_entries(); ++k) {
    out.push_back(Key(idx.EntryAt(k)));
  }
  return out;
}

TEST_F(ProceduralIndexTest, InterleavedCompositeCursorsMatchEntryAt) {
  // Two cursors on one composite index share this thread's group slot;
  // an MDAM-style reseek in between materializes yet another group. Each
  // cursor must still yield exactly EntryAt's sequence across group
  // boundaries (64 entries per group here).
  auto idx = MakeIndex({0, 1});
  const uint64_t a0 = idx->OrdinalLowerBound(3, 10);
  const uint64_t b0 = idx->OrdinalLowerBound(20, 30);
  const std::vector<EntryKey> want_a = EntriesFrom(*idx, a0, 300);
  const std::vector<EntryKey> want_b = EntriesFrom(*idx, b0, 300);

  auto a = idx->Seek(&ctx_, 3, 10);
  auto b = idx->Seek(&ctx_, 20, 30);
  for (size_t i = 0; i < want_a.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    ASSERT_TRUE(a->Valid());
    ASSERT_TRUE(b->Valid());
    EXPECT_EQ(Key(a->entry()), want_a[i]);
    EXPECT_EQ(Key(b->entry()), want_b[i]);
    if (i % 17 == 0) {
      auto reseek = idx->Seek(&ctx_, 40 + static_cast<int64_t>(i % 9), 7);
      reseek->Next(&ctx_);
    }
    a->Next(&ctx_);
    b->Next(&ctx_);
  }
}

TEST_F(ProceduralIndexTest, CompositeCursorSurvivesSlotEviction) {
  // A thread keeps at most 16 group slots. Touching more indexes than
  // that between two steps recycles the cursor's slot for another index;
  // the cursor must notice and re-materialize its group. A fresh thread
  // starts with an empty cache, so the eviction is certain.
  auto idx = MakeIndex({0, 1});
  std::vector<std::unique_ptr<ProceduralIndex>> others;
  for (int i = 0; i < 20; ++i) others.push_back(MakeIndex({1, 0}));
  const uint64_t first = idx->OrdinalLowerBound(5, 20);
  const std::vector<EntryKey> want = EntriesFrom(*idx, first, 200);

  std::vector<EntryKey> got;
  std::thread worker([&] {
    auto cursor = idx->Seek(&ctx_, 5, 20);
    for (size_t i = 0; i < want.size() && cursor->Valid(); ++i) {
      got.push_back(Key(cursor->entry()));
      if (i % 10 == 3) {
        for (const auto& other : others) {
          (void)other->EntryAt(static_cast<uint64_t>(i) * 37 % 4096);
        }
      }
      cursor->Next(&ctx_);
    }
  });
  worker.join();
  EXPECT_EQ(got, want);
}

TEST_F(ProceduralIndexTest, CompositeCursorsOnConflictingWaysMatchEntryAt) {
  // The group cache is direct-mapped: groups g and g + ways share a way.
  // 2^14 rows over 2^8 values gives 64 entries per group, 64 ways and 256
  // groups, so two cursors started in groups 5 and 5 + 64 evict each other
  // at every step, and again after both cross into the next group.
  ProceduralTableOptions topts;
  topts.row_bits = 14;
  topts.value_bits = 8;
  auto table = ProceduralTable::Create(&device_, topts).ValueOrDie();
  ProceduralIndexOptions opts;
  opts.key_columns = {0, 1};
  opts.entries_per_leaf = 64;
  auto idx = ProceduralIndex::Create(&device_, table.get(), opts).ValueOrDie();
  const uint64_t rpv = table->rows_per_value();
  const int64_t ways =
      static_cast<int64_t>(ProceduralIndex::kGroupCacheEntries / rpv);
  const int64_t g = 5;
  ASSERT_LT(g + ways + 2, table->value_domain());

  const uint64_t a0 = idx->OrdinalLowerBound(g, 30);
  const uint64_t b0 = idx->OrdinalLowerBound(g + ways, 30);
  const std::vector<EntryKey> want_a = EntriesFrom(*idx, a0, 2 * rpv);
  const std::vector<EntryKey> want_b = EntriesFrom(*idx, b0, 2 * rpv);

  auto a = idx->Seek(&ctx_, g, 30);
  auto b = idx->Seek(&ctx_, g + ways, 30);
  for (size_t i = 0; i < want_a.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    ASSERT_TRUE(a->Valid());
    ASSERT_TRUE(b->Valid());
    EXPECT_EQ(Key(a->entry()), want_a[i]);
    EXPECT_EQ(Key(b->entry()), want_b[i]);
    a->Next(&ctx_);
    b->Next(&ctx_);
  }
}

/// Page accesses so far: reads that missed the pool plus pool hits.
uint64_t PageAccesses(const SimDevice& device) {
  return device.stats().total_reads() + device.stats().buffer_hits;
}

TEST_F(ProceduralIndexTest, MidLeafCursorChargesOneReadPerBoundary) {
  // Single column, 100 entries per leaf: value 3 starts at ordinal 192,
  // mid-leaf. Composite, 64 per leaf: (3, 40) lands mid-group, mid-leaf.
  for (bool composite : {false, true}) {
    SCOPED_TRACE(composite ? "composite" : "single column");
    ProceduralIndexOptions opts;
    opts.key_columns = composite ? std::vector<uint32_t>{0, 1}
                                 : std::vector<uint32_t>{0};
    opts.entries_per_leaf = composite ? 64 : 100;
    auto idx =
        ProceduralIndex::Create(&device_, table_.get(), opts).ValueOrDie();
    const uint64_t start = composite ? idx->OrdinalLowerBound(3, 40)
                                     : idx->OrdinalLowerBound(3, INT64_MIN);
    ASSERT_NE(start % opts.entries_per_leaf, 0u);

    const uint64_t before_seek = PageAccesses(device_);
    auto cursor = composite ? idx->Seek(&ctx_, 3, 40)
                            : idx->Seek(&ctx_, 3, INT64_MIN);
    EXPECT_EQ(PageAccesses(device_) - before_seek, 1u);  // the probed leaf

    const uint64_t steps = 450;
    const uint64_t before = PageAccesses(device_);
    uint64_t boundaries = 0;
    for (uint64_t k = start + 1; k <= start + steps; ++k) {
      if (k % opts.entries_per_leaf == 0) ++boundaries;
    }
    for (uint64_t i = 0; i < steps; ++i) cursor->Next(&ctx_);
    EXPECT_EQ(PageAccesses(device_) - before, boundaries);
    EXPECT_EQ(Key(cursor->entry()), Key(idx->EntryAt(start + steps)));
  }
}

TEST_F(ProceduralIndexTest, CursorStopsAtLastEntry) {
  for (auto cols : {std::vector<uint32_t>{0}, std::vector<uint32_t>{1, 0}}) {
    auto idx = MakeIndex(cols);
    auto cursor = idx->Seek(&ctx_, 63, INT64_MIN);
    uint64_t count = 0;
    while (cursor->Valid()) {
      EXPECT_EQ(Key(cursor->entry()),
                Key(idx->EntryAt(idx->num_entries() - 64 + count)));
      ++count;
      cursor->Next(&ctx_);
    }
    EXPECT_EQ(count, 64u);  // the last value's run
  }
}

TEST_F(ProceduralIndexTest, HeightAndLeafCount) {
  auto idx = MakeIndex({0});
  EXPECT_EQ(idx->num_leaf_pages(), 4096u / 64);
  EXPECT_GE(idx->height(), 2);
}

TEST_F(ProceduralIndexTest, RejectsBadOptions) {
  ProceduralIndexOptions opts;
  EXPECT_FALSE(ProceduralIndex::Create(&device_, table_.get(), opts).ok());
  opts.key_columns = {0, 1, 2};
  EXPECT_FALSE(ProceduralIndex::Create(&device_, table_.get(), opts).ok());
  opts.key_columns = {9};
  EXPECT_FALSE(ProceduralIndex::Create(&device_, table_.get(), opts).ok());
}

}  // namespace
}  // namespace robustmap
