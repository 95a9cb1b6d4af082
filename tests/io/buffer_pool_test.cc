#include "io/buffer_pool.h"

#include <gtest/gtest.h>

namespace robustmap {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : device_(DiskParameters{}, &clock_) {
    device_.AllocateExtent(1000);
  }
  VirtualClock clock_;
  SimDevice device_;
};

TEST_F(BufferPoolTest, MissThenHit) {
  BufferPool pool(&device_, 10);
  EXPECT_FALSE(pool.Access(5));
  EXPECT_TRUE(pool.Access(5));
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(device_.stats().buffer_hits, 1u);
}

TEST_F(BufferPoolTest, HitChargesNoDeviceTime) {
  BufferPool pool(&device_, 10);
  pool.Access(5);
  int64_t t = clock_.now_ns();
  pool.Access(5);
  EXPECT_EQ(clock_.now_ns(), t);
}

TEST_F(BufferPoolTest, EvictsLeastRecentlyUsed) {
  BufferPool pool(&device_, 3);
  pool.Access(1);
  pool.Access(2);
  pool.Access(3);
  pool.Access(1);      // 1 most recent; LRU order now 2,3,1
  pool.Access(4);      // evicts 2
  EXPECT_FALSE(pool.Contains(2));
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(3));
  EXPECT_TRUE(pool.Contains(4));
}

TEST_F(BufferPoolTest, NonCacheableDoesNotPollute) {
  BufferPool pool(&device_, 3);
  pool.Access(1);
  pool.Access(2, /*cacheable=*/false);
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_FALSE(pool.Contains(2));
  EXPECT_EQ(pool.resident_pages(), 1u);
}

TEST_F(BufferPoolTest, ClearDropsEverything) {
  BufferPool pool(&device_, 5);
  pool.Access(1);
  pool.Access(2);
  pool.Clear();
  EXPECT_EQ(pool.resident_pages(), 0u);
  EXPECT_FALSE(pool.Access(1));  // miss again
}

// Clear() only drops residency; the hit/miss window is a separate concern
// closed by ResetStats(). (ColdStart calls both — before the split, stats
// bled across sweep cells and per-measurement hit rates were cumulative.)
TEST_F(BufferPoolTest, ClearKeepsStatsResetStatsZeroesThem) {
  BufferPool pool(&device_, 5);
  pool.Access(1);
  pool.Access(1);
  pool.Clear();
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  pool.Access(2);
  pool.ResetStats();
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 0u);
  EXPECT_TRUE(pool.Contains(2));  // residency untouched by ResetStats
  EXPECT_TRUE(pool.Access(2));
  EXPECT_EQ(pool.hits(), 1u);
}

TEST_F(BufferPoolTest, ZeroCapacityNeverCaches) {
  BufferPool pool(&device_, 0);
  EXPECT_FALSE(pool.Access(1));
  EXPECT_FALSE(pool.Access(1));
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 2u);
  pool.Warm(1);  // warming cannot exceed capacity either
  EXPECT_EQ(pool.resident_pages(), 0u);
  EXPECT_FALSE(pool.Contains(1));
}

TEST_F(BufferPoolTest, CapacityOneKeepsOnlyTheLastPage) {
  BufferPool pool(&device_, 1);
  EXPECT_FALSE(pool.Access(1));
  EXPECT_TRUE(pool.Access(1));    // smallest possible pool still caches
  EXPECT_FALSE(pool.Access(2));   // evicts 1
  EXPECT_FALSE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(2));
  EXPECT_EQ(pool.resident_pages(), 1u);
  pool.Warm(3);                   // warm admission evicts the same way
  EXPECT_FALSE(pool.Contains(2));
  EXPECT_TRUE(pool.Contains(3));
}

TEST_F(BufferPoolTest, CapacityRespected) {
  BufferPool pool(&device_, 4);
  for (uint64_t p = 0; p < 100; ++p) pool.Access(p);
  EXPECT_EQ(pool.resident_pages(), 4u);
}

TEST_F(BufferPoolTest, WarmAdmitsWithoutChargeOrStats) {
  BufferPool pool(&device_, 4);
  int64_t t = clock_.now_ns();
  pool.Warm(7);
  EXPECT_EQ(clock_.now_ns(), t);  // no device charge
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 0u);
  EXPECT_TRUE(pool.Contains(7));
  EXPECT_TRUE(pool.Access(7));  // the first measured access hits
  EXPECT_EQ(pool.hits(), 1u);
}

TEST_F(BufferPoolTest, WarmRefreshesLruPosition) {
  BufferPool pool(&device_, 2);
  pool.Access(1);
  pool.Access(2);
  pool.Warm(1);      // 1 becomes MRU; LRU order now 2,1
  pool.Access(3);    // evicts 2
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_FALSE(pool.Contains(2));
  EXPECT_TRUE(pool.Contains(3));
}

TEST_F(BufferPoolTest, EvictionRecyclesNodesInPlace) {
  BufferPool pool(&device_, 4);
  for (uint64_t p = 0; p < 4; ++p) pool.Access(p);
  EXPECT_EQ(pool.node_allocations(), 4u);
  // At capacity, every further admission reuses the eviction victim's
  // node: residency churns, the allocation count does not.
  for (uint64_t p = 4; p < 100; ++p) pool.Access(p);
  EXPECT_EQ(pool.node_allocations(), 4u);
  EXPECT_EQ(pool.resident_pages(), 4u);
}

TEST_F(BufferPoolTest, ClearFreesNodesToTheRecycleList) {
  BufferPool pool(&device_, 8);
  for (uint64_t p = 0; p < 8; ++p) pool.Access(p);
  EXPECT_EQ(pool.node_allocations(), 8u);
  pool.Clear();
  EXPECT_EQ(pool.resident_pages(), 0u);
  // A cleared pool re-admits into recycled nodes — no fresh allocations
  // until the working set outgrows everything ever allocated.
  for (uint64_t p = 100; p < 108; ++p) pool.Access(p);
  EXPECT_EQ(pool.node_allocations(), 8u);
  pool.Access(200);  // 9th distinct resident page ever: one fresh node
  EXPECT_EQ(pool.node_allocations(), 8u);  // ...recycled via eviction
}

}  // namespace
}  // namespace robustmap
