#include "io/run_context.h"

#include <gtest/gtest.h>

namespace robustmap {
namespace {

class RunContextTest : public ::testing::Test {
 protected:
  RunContextTest() : device_(DiskParameters{}, &clock_), pool_(&device_, 64) {
    ctx_.clock = &clock_;
    ctx_.device = &device_;
    ctx_.pool = &pool_;
  }

  VirtualClock clock_;
  SimDevice device_;
  BufferPool pool_;
  RunContext ctx_;
};

TEST_F(RunContextTest, ChargeCpuCarriesSubNanosecondRemainders) {
  // Powers of two are exact in binary, so every step here is precise.
  ctx_.ChargeCpu(0.75e-9);
  EXPECT_EQ(clock_.now_ns(), 0);  // 0.75 ns pending in the carry
  ctx_.ChargeCpu(0.5e-9);
  EXPECT_EQ(clock_.now_ns(), 1);  // 1.25 ns accumulated -> 1 on the clock
  ctx_.ChargeCpu(2.5e-9);
  EXPECT_EQ(clock_.now_ns(), 3);  // 3.75 ns total, 0.75 still pending
  ctx_.ChargeCpu(0.25e-9);
  EXPECT_EQ(clock_.now_ns(), 4);  // exactly 4.0 ns charged in total
  EXPECT_EQ(ctx_.cpu_carry_ns, 0.0);
}

// Regression for per-call rounding bias: llround biased every charge by up
// to half a nanosecond in either direction, so N sub-nanosecond charges
// drifted from the exact sum by up to N/2 ns (1000 x 0.6 ns = 600 ns of
// work billed as 1000 ns). The carry accumulator keeps the clock within
// 1 ns of the exact sum at every point, however finely work is charged.
TEST_F(RunContextTest, ManyTinyChargesSumExactly) {
  for (int i = 0; i < 1000; ++i) ctx_.ChargeCpu(0.6e-9);
  // Exact sum is 600 ns; llround billed this as 1000 ns (+67% bias).
  EXPECT_NEAR(static_cast<double>(clock_.now_ns()), 600.0, 1.0);

  clock_.Reset();
  ctx_.cpu_carry_ns = 0.0;
  for (int i = 0; i < 1000; ++i) ctx_.ChargeCpu(0.25e-9);
  // 0.25 is exact in binary: no accumulation error at all.
  EXPECT_EQ(clock_.now_ns(), 250);

  clock_.Reset();
  ctx_.cpu_carry_ns = 0.0;
  CpuParameters cpu;
  for (int i = 0; i < 1000; ++i) ctx_.ChargeCpu(cpu.compare_seconds);
  EXPECT_EQ(clock_.now_ns(), 8000);  // exactly 8 ns per comparison
}

TEST_F(RunContextTest, ChargeCpuOpsChargesProductOnce) {
  ctx_.ChargeCpuOps(1000, 0.6e-9);
  EXPECT_EQ(clock_.now_ns(), 600);
}

TEST_F(RunContextTest, ColdStartResetsCpuCarry) {
  ctx_.ChargeCpu(0.9e-9);
  ctx_.ColdStart();
  EXPECT_EQ(ctx_.cpu_carry_ns, 0.0);
  ctx_.ChargeCpu(0.9e-9);
  // Without the reset the stale 0.9 ns carry would leak into this
  // measurement and the clock would already read 1.
  EXPECT_EQ(clock_.now_ns(), 0);
}

TEST_F(RunContextTest, SimDeviceSealAndReleaseTempExtents) {
  const uint64_t gap = DiskParameters{}.max_skip_gap_pages;
  EXPECT_EQ(device_.AllocateExtent(10), 0u);
  device_.SealDataExtents();
  EXPECT_EQ(device_.data_watermark(), 10u);
  // The scratch region sits one full skip gap past the data, so a spill is
  // always a full seek away from any data page.
  EXPECT_EQ(device_.TempRegionStart(), 10u + gap + 1);
  device_.ReleaseTempExtents();
  EXPECT_EQ(device_.AllocateExtent(5), 10u + gap + 1);
  device_.ReleaseTempExtents();
  EXPECT_EQ(device_.AllocateExtent(5), 10u + gap + 1);  // reproducible
}

TEST_F(RunContextTest, ReleaseTempExtentsSealsImplicitly) {
  const uint64_t gap = DiskParameters{}.max_skip_gap_pages;
  device_.AllocateExtent(7);
  device_.ReleaseTempExtents();  // first call treats current frontier as data
  EXPECT_EQ(device_.data_watermark(), 7u);
  EXPECT_EQ(device_.AllocateExtent(3), 7u + gap + 1);
  device_.ReleaseTempExtents();
  EXPECT_EQ(device_.AllocateExtent(3), 7u + gap + 1);
}

TEST_F(RunContextTest, FactoryClonesMachineConfiguration) {
  device_.AllocateExtent(100);
  device_.SealDataExtents();
  ctx_.sort_memory_bytes = 1234;
  ctx_.hash_memory_bytes = 5678;
  ctx_.cpu.compare_seconds = 99e-9;

  RunContextFactory factory(ctx_);
  auto machine = factory.Create();
  RunContext* worker = machine->ctx();

  ASSERT_NE(worker->clock, nullptr);
  ASSERT_NE(worker->device, nullptr);
  ASSERT_NE(worker->pool, nullptr);
  EXPECT_NE(worker->device, ctx_.device);  // a private machine, not a view
  EXPECT_EQ(worker->pool->capacity_pages(), 64u);
  EXPECT_EQ(worker->sort_memory_bytes, 1234u);
  EXPECT_EQ(worker->hash_memory_bytes, 5678u);
  EXPECT_EQ(worker->cpu.compare_seconds, 99e-9);

  // Data extents mirrored: the next (temp) allocation lands exactly where
  // it would on the prototype after a cold start.
  EXPECT_EQ(worker->device->data_watermark(), 100u);
  EXPECT_EQ(worker->device->TempRegionStart(), ctx_.device->TempRegionStart());
  worker->device->ReleaseTempExtents();
  EXPECT_EQ(worker->device->AllocateExtent(5),
            worker->device->TempRegionStart());

  // Clocks are independent.
  worker->ChargeCpu(5e-9);
  EXPECT_EQ(worker->clock->now_ns(), 5);
  EXPECT_EQ(clock_.now_ns(), 0);
}

TEST_F(RunContextTest, ColdStartDefaultsToEmptyPool) {
  pool_.Access(3);
  ctx_.ColdStart();
  EXPECT_EQ(pool_.resident_pages(), 0u);
  EXPECT_EQ(pool_.hits(), 0u);
  EXPECT_EQ(pool_.misses(), 0u);
  EXPECT_EQ(clock_.now_ns(), 0);
}

TEST_F(RunContextTest, ColdStartAppliesExplicitPageWarmup) {
  pool_.Access(50);  // stale residency from a previous run
  ctx_.warmup = WarmupPolicy::ExplicitPages({1, 2, 3});
  ctx_.ColdStart();
  EXPECT_EQ(clock_.now_ns(), 0);  // warming is free
  EXPECT_EQ(pool_.resident_pages(), 3u);
  EXPECT_FALSE(pool_.Contains(50));  // stale page gone
  EXPECT_TRUE(pool_.Contains(1));
  EXPECT_TRUE(pool_.Contains(2));
  EXPECT_TRUE(pool_.Contains(3));
  EXPECT_EQ(pool_.hits(), 0u);  // preloading is not a measured access
  EXPECT_EQ(pool_.misses(), 0u);
}

TEST_F(RunContextTest, ColdStartAppliesFractionResidentWarmup) {
  device_.AllocateExtent(100);
  device_.SealDataExtents();
  ctx_.warmup = WarmupPolicy::FractionResident(0.25);
  ctx_.ColdStart();
  // 25% of 100 data pages, well under the 64-page capacity.
  EXPECT_EQ(pool_.resident_pages(), 25u);
  for (uint64_t p = 0; p < 25; ++p) EXPECT_TRUE(pool_.Contains(p));
  EXPECT_FALSE(pool_.Contains(25));
}

TEST_F(RunContextTest, FractionResidentIsCappedByPoolCapacity) {
  device_.AllocateExtent(1000);
  device_.SealDataExtents();
  ctx_.warmup = WarmupPolicy::FractionResident(0.5);  // wants 500 of 1000
  ctx_.ColdStart();
  // The pool holds 64 pages: the most recent 64 of the touched prefix
  // [0, 500) stay resident, as after a real sequential pass over it.
  EXPECT_EQ(pool_.resident_pages(), 64u);
  EXPECT_FALSE(pool_.Contains(435));
  EXPECT_TRUE(pool_.Contains(436));
  EXPECT_TRUE(pool_.Contains(499));
  EXPECT_FALSE(pool_.Contains(500));
}

TEST_F(RunContextTest, PriorRunWarmupKeepsResidencyButResetsStats) {
  pool_.Access(7);
  pool_.Access(7);
  ctx_.warmup = WarmupPolicy::PriorRun();
  ctx_.ColdStart();
  EXPECT_TRUE(pool_.Contains(7));  // survives into the next measurement
  EXPECT_EQ(pool_.hits(), 0u);     // but the stats window starts fresh
  EXPECT_EQ(pool_.misses(), 0u);
  EXPECT_EQ(clock_.now_ns(), 0);
}

TEST_F(RunContextTest, FactoryPropagatesWarmupPolicy) {
  ctx_.warmup = WarmupPolicy::ExplicitPages({4, 5});
  RunContextFactory factory(ctx_);
  auto machine = factory.Create();
  EXPECT_EQ(machine->ctx()->warmup.mode, WarmupPolicy::Mode::kExplicitPages);
  machine->ctx()->ColdStart();
  EXPECT_TRUE(machine->ctx()->pool->Contains(4));
  EXPECT_TRUE(machine->ctx()->pool->Contains(5));
}

TEST_F(RunContextTest, RecycleResetsMachineInPlace) {
  device_.AllocateExtent(100);
  device_.SealDataExtents();
  RunContextFactory factory(ctx_);
  auto machine = factory.Create();
  RunContext* worker = machine->ctx();

  // Dirty every piece of machine state a measurement touches.
  worker->ReadPage(3);
  worker->ReadPage(3);
  worker->ChargeCpu(5.7e-9);
  worker->device->ReleaseTempExtents();
  const uint64_t temp_start = worker->device->AllocateExtent(4);

  machine->Recycle(WarmupPolicy::FractionResident(0.25));
  EXPECT_EQ(worker->clock->now_ns(), 0);
  EXPECT_EQ(worker->cpu_carry_ns, 0.0);
  EXPECT_EQ(worker->pool->resident_pages(), 0u);
  EXPECT_EQ(worker->pool->hits(), 0u);
  EXPECT_EQ(worker->pool->misses(), 0u);
  EXPECT_EQ(worker->warmup.mode, WarmupPolicy::Mode::kFractionResident);
  // Temp extents released: the next spill lands exactly where the first
  // one did, so spill seek costs cannot depend on recycling history.
  EXPECT_EQ(worker->device->AllocateExtent(4), temp_start);
}

TEST_F(RunContextTest, RecycledMachineAllocatesNoNewPageNodes) {
  device_.AllocateExtent(100);
  device_.SealDataExtents();
  RunContextFactory factory(ctx_);
  auto machine = factory.Create();

  for (uint64_t p = 0; p < 32; ++p) machine->ctx()->ReadPage(p);
  const uint64_t cold_allocs = machine->ctx()->pool->node_allocations();
  EXPECT_EQ(cold_allocs, 32u);

  // The same working set on the recycled machine reuses the freed nodes:
  // zero fresh heap allocations, where a rebuilt machine would pay all 32
  // again. This counter is the deterministic form of the recycle speedup.
  machine->Recycle(WarmupPolicy::Cold());
  for (uint64_t p = 0; p < 32; ++p) machine->ctx()->ReadPage(p);
  EXPECT_EQ(machine->ctx()->pool->node_allocations(), cold_allocs);
  EXPECT_LT(machine->ctx()->pool->node_allocations(), 2 * cold_allocs);
}

TEST_F(RunContextTest, AcquireRecyclesParkedMachines) {
  device_.AllocateExtent(100);
  device_.SealDataExtents();
  RunContextFactory factory(ctx_);

  auto machine = factory.Acquire();  // empty arena: a fresh Create()
  OwnedRunContext* raw = machine.get();
  machine->ctx()->ReadPage(9);
  factory.Release(std::move(machine));

  factory.set_warmup(WarmupPolicy::FractionResident(0.5));
  auto recycled = factory.Acquire();
  EXPECT_EQ(recycled.get(), raw);  // the parked machine, not a rebuild
  EXPECT_EQ(recycled->ctx()->pool->resident_pages(), 0u);
  EXPECT_EQ(recycled->ctx()->warmup.mode,
            WarmupPolicy::Mode::kFractionResident);

  factory.Release(nullptr);  // null-tolerant (skipped cells release null)
  auto fresh = factory.Acquire();
  EXPECT_NE(fresh.get(), raw);
}

}  // namespace
}  // namespace robustmap
