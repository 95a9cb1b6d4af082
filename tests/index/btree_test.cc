#include "index/btree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"

namespace robustmap {
namespace {

class BTreeEnv {
 public:
  BTreeEnv() : device_(DiskParameters{}, &clock_), pool_(&device_, 1024) {
    ctx_.clock = &clock_;
    ctx_.device = &device_;
    ctx_.pool = &pool_;
  }
  RunContext* ctx() { return &ctx_; }
  SimDevice* device() { return &device_; }

 private:
  VirtualClock clock_;
  SimDevice device_;
  BufferPool pool_;
  RunContext ctx_;
};

std::vector<IndexEntry> MakeEntries(int64_t n, int64_t dupes = 1) {
  std::vector<IndexEntry> entries;
  for (int64_t i = 0; i < n; ++i) {
    entries.push_back({i / dupes, 0, static_cast<Rid>(i)});
  }
  return entries;
}

// Parameterized over leaf capacity to exercise single- and multi-level
// trees with the same assertions.
class BTreeParamTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BTreeParamTest, BulkLoadScanReturnsAllInOrder) {
  BTreeEnv env;
  BTreeOptions opts;
  opts.leaf_capacity = GetParam();
  opts.key_columns = {0};
  auto tree =
      BTree::BulkLoad(env.device(), MakeEntries(1000), opts).ValueOrDie();
  ASSERT_TRUE(tree->CheckInvariants().ok());
  EXPECT_EQ(tree->num_entries(), 1000u);

  auto cursor = tree->SeekFirst(env.ctx());
  int64_t expected = 0;
  while (cursor->Valid()) {
    ASSERT_EQ(cursor->entry().key0, expected);
    ++expected;
    cursor->Next(env.ctx());
  }
  EXPECT_EQ(expected, 1000);
}

TEST_P(BTreeParamTest, SeekFindsLowerBound) {
  BTreeEnv env;
  BTreeOptions opts;
  opts.leaf_capacity = GetParam();
  opts.key_columns = {0};
  auto tree =
      BTree::BulkLoad(env.device(), MakeEntries(500, /*dupes=*/5), opts)
          .ValueOrDie();
  // Keys are 0..99, five entries each.
  auto cursor = tree->Seek(env.ctx(), 37, INT64_MIN);
  ASSERT_TRUE(cursor->Valid());
  EXPECT_EQ(cursor->entry().key0, 37);
  // Count the duplicates.
  int count = 0;
  while (cursor->Valid() && cursor->entry().key0 == 37) {
    ++count;
    cursor->Next(env.ctx());
  }
  EXPECT_EQ(count, 5);
  ASSERT_TRUE(cursor->Valid());
  EXPECT_EQ(cursor->entry().key0, 38);
}

TEST_P(BTreeParamTest, SeekPastEndIsInvalid) {
  BTreeEnv env;
  BTreeOptions opts;
  opts.leaf_capacity = GetParam();
  opts.key_columns = {0};
  auto tree =
      BTree::BulkLoad(env.device(), MakeEntries(100), opts).ValueOrDie();
  EXPECT_FALSE(tree->Seek(env.ctx(), 1000, 0)->Valid());
}

TEST_P(BTreeParamTest, InsertsMaintainOrderThroughSplits) {
  BTreeEnv env;
  BTreeOptions opts;
  opts.leaf_capacity = GetParam();
  opts.key_columns = {0};
  auto tree = BTree::BulkLoad(env.device(), MakeEntries(50), opts).ValueOrDie();

  Rng rng(42);
  for (int i = 0; i < 500; ++i) {
    IndexEntry e{static_cast<int64_t>(rng.NextBounded(10000)), 0,
                 static_cast<Rid>(1000 + i)};
    ASSERT_TRUE(tree->Insert(env.ctx(), e).ok());
  }
  ASSERT_TRUE(tree->CheckInvariants().ok());
  EXPECT_EQ(tree->num_entries(), 550u);

  auto cursor = tree->SeekFirst(env.ctx());
  IndexEntry prev{INT64_MIN, INT64_MIN, 0};
  size_t seen = 0;
  while (cursor->Valid()) {
    ASSERT_FALSE(EntryLess(cursor->entry(), prev));
    prev = cursor->entry();
    ++seen;
    cursor->Next(env.ctx());
  }
  EXPECT_EQ(seen, 550u);
}

INSTANTIATE_TEST_SUITE_P(LeafCapacities, BTreeParamTest,
                         ::testing::Values(4, 16, 64, 512));

TEST(BTreeTest, RejectsUnsortedBulkLoad) {
  BTreeEnv env;
  BTreeOptions opts;
  opts.key_columns = {0};
  std::vector<IndexEntry> entries = {{5, 0, 0}, {3, 0, 1}};
  EXPECT_TRUE(BTree::BulkLoad(env.device(), entries, opts)
                  .status()
                  .IsInvalidArgument());
}

TEST(BTreeTest, RejectsExactDuplicate) {
  BTreeEnv env;
  BTreeOptions opts;
  opts.key_columns = {0};
  auto tree = BTree::BulkLoad(env.device(), MakeEntries(10), opts).ValueOrDie();
  EXPECT_TRUE(tree->Insert(env.ctx(), {5, 0, 5}).IsInvalidArgument());
  // Same key, different rid is fine (non-unique index).
  EXPECT_TRUE(tree->Insert(env.ctx(), {5, 0, 999}).ok());
}

TEST(BTreeTest, CompositeKeyOrderAndSeek) {
  BTreeEnv env;
  BTreeOptions opts;
  opts.key_columns = {0, 1};
  std::vector<IndexEntry> entries;
  for (int64_t a = 0; a < 10; ++a) {
    for (int64_t b = 0; b < 10; ++b) {
      entries.push_back({a, b, static_cast<Rid>(a * 10 + b)});
    }
  }
  auto tree = BTree::BulkLoad(env.device(), entries, opts).ValueOrDie();
  auto cursor = tree->Seek(env.ctx(), 4, 7);
  ASSERT_TRUE(cursor->Valid());
  EXPECT_EQ(cursor->entry().key0, 4);
  EXPECT_EQ(cursor->entry().key1, 7);
  // Seek beyond the last b of a group lands on the next group.
  cursor = tree->Seek(env.ctx(), 4, 99);
  ASSERT_TRUE(cursor->Valid());
  EXPECT_EQ(cursor->entry().key0, 5);
  EXPECT_EQ(cursor->entry().key1, 0);
}

TEST(BTreeTest, EmptyTreeBehaves) {
  BTreeEnv env;
  BTreeOptions opts;
  opts.key_columns = {0};
  auto tree = BTree::BulkLoad(env.device(), {}, opts).ValueOrDie();
  EXPECT_EQ(tree->num_entries(), 0u);
  EXPECT_FALSE(tree->SeekFirst(env.ctx())->Valid());
  ASSERT_TRUE(tree->Insert(env.ctx(), {1, 0, 1}).ok());
  EXPECT_TRUE(tree->SeekFirst(env.ctx())->Valid());
}

TEST(BTreeTest, HeightGrowsWithSize) {
  BTreeEnv env;
  BTreeOptions opts;
  opts.key_columns = {0};
  opts.leaf_capacity = 8;
  opts.internal_fanout = 4;
  auto small =
      BTree::BulkLoad(env.device(), MakeEntries(16), opts).ValueOrDie();
  auto large =
      BTree::BulkLoad(env.device(), MakeEntries(4000), opts).ValueOrDie();
  EXPECT_GT(large->height(), small->height());
}

TEST(BTreeTest, SeeksChargeIo) {
  BTreeEnv env;
  BTreeOptions opts;
  opts.key_columns = {0};
  auto tree =
      BTree::BulkLoad(env.device(), MakeEntries(10000), opts).ValueOrDie();
  uint64_t before = env.device()->stats().total_reads();
  tree->Seek(env.ctx(), 5000, 0);
  EXPECT_GT(env.device()->stats().total_reads(), before);
}

TEST(BTreeTest, RejectsBadOptions) {
  BTreeEnv env;
  BTreeOptions opts;  // no key columns
  EXPECT_TRUE(
      BTree::BulkLoad(env.device(), {}, opts).status().IsInvalidArgument());
  opts.key_columns = {0, 1, 2};
  EXPECT_TRUE(
      BTree::BulkLoad(env.device(), {}, opts).status().IsInvalidArgument());
}

}  // namespace
}  // namespace robustmap
