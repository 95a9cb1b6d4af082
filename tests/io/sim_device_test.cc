#include "io/sim_device.h"

#include <gtest/gtest.h>

namespace robustmap {
namespace {

TEST(SimDeviceTest, ExtentsAreDisjointAndOrdered) {
  VirtualClock clock;
  SimDevice device(DiskParameters{}, &clock);
  uint64_t a = device.AllocateExtent(100);
  uint64_t b = device.AllocateExtent(50);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 100u);
  EXPECT_EQ(device.allocated_pages(), 150u);
}

TEST(SimDeviceTest, SequentialRunChargesTransferTime) {
  DiskParameters p;
  VirtualClock clock;
  SimDevice device(p, &clock);
  device.AllocateExtent(1000);
  device.ReadPage(0);  // first access: random
  int64_t after_first = clock.now_ns();
  device.ReadRun(1, 99);
  double expected = 99 * p.TransferSeconds();
  // Each page access rounds to whole nanoseconds: allow 0.5 ns per page.
  EXPECT_NEAR(clock.now_ns() - after_first, expected * 1e9, 50);
  EXPECT_EQ(device.stats().sequential_reads, 99u);
  EXPECT_EQ(device.stats().random_reads, 1u);
}

TEST(SimDeviceTest, RandomReadsCostMoreThanSequential) {
  DiskParameters p;
  VirtualClock clock;
  SimDevice device(p, &clock);
  device.AllocateExtent(1u << 20);
  device.ReadPage(0);
  clock.Reset();
  device.ReadPage(1);
  int64_t seq = clock.now_ns();
  clock.Reset();
  device.ReadPage(1u << 19);
  int64_t rand = clock.now_ns();
  EXPECT_GT(rand, seq * 10);
}

TEST(SimDeviceTest, StatsTrackReadsWritesBytes) {
  DiskParameters p;
  VirtualClock clock;
  SimDevice device(p, &clock);
  device.AllocateExtent(10);
  device.ReadPage(3);
  device.WritePage(4);
  device.WriteRun(5, 2);
  EXPECT_EQ(device.stats().total_reads(), 1u);
  EXPECT_EQ(device.stats().writes, 3u);
  EXPECT_EQ(device.stats().bytes_read, p.page_size_bytes);
  EXPECT_EQ(device.stats().bytes_written, 3u * p.page_size_bytes);
}

TEST(SimDeviceTest, ResetHeadMakesNextAccessRandom) {
  VirtualClock clock;
  SimDevice device(DiskParameters{}, &clock);
  device.AllocateExtent(10);
  device.ReadPage(0);
  device.ResetHead();
  device.ReadPage(1);  // would be sequential without the reset
  EXPECT_EQ(device.stats().random_reads, 2u);
}

TEST(IoStatsTest, DeltaSubtracts) {
  IoStats a;
  a.sequential_reads = 10;
  a.writes = 4;
  IoStats b = a;
  b.sequential_reads = 25;
  b.writes = 9;
  IoStats d = b.Delta(a);
  EXPECT_EQ(d.sequential_reads, 15u);
  EXPECT_EQ(d.writes, 5u);
}

}  // namespace
}  // namespace robustmap
