#include "io/buffer_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <random>
#include <string>
#include <vector>

#include "testing/counting_new.h"

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

// Once a pool has held its working set, a measurement cycle — Clear,
// admissions past capacity (every one evicts), hits and warm touches —
// reuses its nodes and slot table and never reaches the heap.
TEST_F(BufferPoolTest, RecycledPoolCyclesAllocateNothing) {
  BufferPool pool(&device_, 64);
  uint64_t hits = 0;
  auto cycle = [&](uint64_t base) {
    pool.Clear();
    pool.ResetStats();
    for (uint64_t p = 0; p < 100; ++p) pool.Access(base + p);
    for (uint64_t p = 40; p < 100; ++p) hits += pool.Access(base + p);
    pool.Warm(base + 500);
    pool.Access(base + 700, /*cacheable=*/false);
  };
  cycle(0);
  const uint64_t before = robustmap::testing::HeapAllocations();
  for (uint64_t round = 1; round <= 20; ++round) cycle(round * 1000);
  const uint64_t allocations = robustmap::testing::HeapAllocations() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(hits, 21u * 60u);
  EXPECT_EQ(pool.resident_pages(), 64u);
}

/// The LRU policy written the obvious way — one `std::list`, front = most
/// recent, found by linear search — charging its own device exactly as
/// `BufferPool` documents. The differential test below holds the pool to it.
class ReferenceLru {
 public:
  ReferenceLru(SimDevice* device, uint64_t capacity)
      : device_(device), capacity_(capacity) {}

  bool Access(uint64_t page, bool cacheable) {
    if (Touch(page)) {
      ++hits_;
      device_->NoteBufferHit();
      return true;
    }
    ++misses_;
    device_->ReadPage(page);
    if (cacheable) Admit(page);
    return false;
  }
  void Warm(uint64_t page) {
    if (!Touch(page)) Admit(page);
  }
  void Clear() { lru_.clear(); }
  void ResetStats() { hits_ = misses_ = 0; }
  const std::list<uint64_t>& pages() const { return lru_; }
  uint64_t resident_pages() const { return lru_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  bool Touch(uint64_t page) {
    auto it = std::find(lru_.begin(), lru_.end(), page);
    if (it == lru_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it);
    return true;
  }
  void Admit(uint64_t page) {
    if (capacity_ == 0) return;
    if (lru_.size() == capacity_) lru_.pop_back();
    lru_.push_front(page);
  }

  SimDevice* device_;
  uint64_t capacity_;
  std::list<uint64_t> lru_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

void ExpectSameIoStats(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.sequential_reads, b.sequential_reads);
  EXPECT_EQ(a.skip_reads, b.skip_reads);
  EXPECT_EQ(a.random_reads, b.random_reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.buffer_hits, b.buffer_hits);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
}

// Seeded random sequences of every pool operation, replayed on the pool
// and on the reference, at the degenerate, tiny, odd and realistic
// capacities; after each step the hit/miss counters, the residency set,
// the device's I/O counters and the virtual clock must agree.
TEST(BufferPoolDifferentialTest, MatchesReferenceLru) {
  for (const uint64_t capacity : {0, 1, 2, 7, 256}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    // Half the pages are consecutive, half far apart, so the device sees
    // sequential, skip and random reads and the slot table sees both
    // clustered and scattered keys. The domain exceeds the capacity, so
    // the pool keeps evicting.
    std::vector<uint64_t> domain;
    const uint64_t domain_size = capacity + capacity / 2 + 6;
    for (uint64_t i = 0; i < domain_size; ++i) {
      domain.push_back(i % 2 == 0 ? i : (i << 24) + 7);
    }
    VirtualClock pool_clock;
    VirtualClock ref_clock;
    SimDevice pool_device(DiskParameters{}, &pool_clock);
    SimDevice ref_device(DiskParameters{}, &ref_clock);
    BufferPool pool(&pool_device, capacity);
    ReferenceLru ref(&ref_device, capacity);
    std::mt19937_64 rng(20261020 + capacity);
    std::uniform_int_distribution<uint64_t> pick(0, domain_size - 1);
    std::uniform_int_distribution<int> op(0, 999);
    // A Clear about every 8 domain-sizes of steps, so the pool fills and
    // evicts for a long stretch before each one, at every capacity.
    std::uniform_int_distribution<uint64_t> clear(0, 8 * domain_size);
    int full_steps = 0;  // steps that ended with the pool at capacity
    for (int step = 0; step < 20000; ++step) {
      const uint64_t page = domain[pick(rng)];
      const int o = op(rng);
      if (clear(rng) == 0) {
        pool.Clear();
        ref.Clear();
      } else if (o < 700) {
        ASSERT_EQ(pool.Access(page), ref.Access(page, true)) << step;
      } else if (o < 850) {
        ASSERT_EQ(pool.Access(page, false), ref.Access(page, false)) << step;
      } else if (o < 990) {
        pool.Warm(page);
        ref.Warm(page);
      } else {
        pool.ResetStats();
        ref.ResetStats();
      }
      ASSERT_EQ(pool.hits(), ref.hits()) << step;
      ASSERT_EQ(pool.misses(), ref.misses()) << step;
      // Equal counts and every reference page resident: equal sets.
      ASSERT_EQ(pool.resident_pages(), ref.resident_pages()) << step;
      for (const uint64_t p : ref.pages()) {
        ASSERT_TRUE(pool.Contains(p)) << step << " page " << p;
      }
      ASSERT_EQ(pool_clock.now_ns(), ref_clock.now_ns()) << step;
      ExpectSameIoStats(pool_device.stats(), ref_device.stats());
      ASSERT_FALSE(HasFailure()) << step;
      full_steps += pool.resident_pages() == capacity ? 1 : 0;
    }
    // The sequence really drove the pool into eviction most of the time.
    EXPECT_GT(full_steps, 10000);
  }
}

}  // namespace
}  // namespace robustmap
