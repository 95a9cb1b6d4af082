#ifndef ROBUSTMAP_IO_RUN_CONTEXT_H_
#define ROBUSTMAP_IO_RUN_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "io/buffer_pool.h"
#include "io/disk_model.h"
#include "io/sim_device.h"
#include "io/warmup_policy.h"

namespace robustmap {

/// Everything a storage object or operator needs to execute: the virtual
/// clock, the device, the buffer pool, CPU cost constants, and the memory
/// budgets that the paper identifies as key run-time conditions.
struct RunContext {
  VirtualClock* clock = nullptr;
  SimDevice* device = nullptr;
  BufferPool* pool = nullptr;
  CpuParameters cpu;

  /// Work memory available to a sort operator, bytes.
  uint64_t sort_memory_bytes = 64ull << 20;

  /// Work memory available to a hash build side, bytes.
  uint64_t hash_memory_bytes = 64ull << 20;

  /// Buffer-pool contents at the start of each measurement (§3.2 run-time
  /// conditions); applied by `ColdStart`. Default: the classic cold map.
  WarmupPolicy warmup;

  /// Fractional-nanosecond remainder of CPU charges not yet applied to the
  /// clock (see `ChargeCpu`); always in [0, 1). Reset by `ColdStart`.
  double cpu_carry_ns = 0.0;

  /// Charges `seconds` of CPU work to the virtual clock. Whole nanoseconds
  /// advance the clock immediately; the sub-nanosecond remainder carries
  /// into the next charge, so a measurement's accumulated CPU time is exact
  /// to < 1 ns however finely the work is charged. (Per-call rounding —
  /// `llround` — biased every charge by up to half a nanosecond, which
  /// compounds over the millions of calls behind one map cell.)
  void ChargeCpu(double seconds) {
    double nanos = seconds * 1e9 + cpu_carry_ns;
    const int64_t whole = static_cast<int64_t>(nanos);
    cpu_carry_ns = nanos - static_cast<double>(whole);
    clock->Advance(whole);
  }

  /// Charges `count` operations at `per_op_seconds` each.
  void ChargeCpuOps(uint64_t count, double per_op_seconds) {
    ChargeCpu(static_cast<double>(count) * per_op_seconds);
  }

  /// Logical page read through the buffer pool.
  /// Returns true on a buffer hit.
  bool ReadPage(uint64_t page, bool cacheable = true) {
    return pool->Access(page, cacheable);
  }

  /// Resets the machine for an independent, reproducible measurement:
  /// clock to zero (with the CPU carry), buffer pool set to whatever state
  /// `warmup` prescribes (emptied by default), pool statistics zeroed, head
  /// position forgotten, and temp (spill) extents released so their
  /// placement — and its seek costs — never depends on what ran before.
  /// Every measurement path must use this rather than hand-rolling the
  /// reset sequence.
  void ColdStart();
};

/// A self-contained simulated machine — clock, device, buffer pool — with a
/// `RunContext` wired to them. Produced by `RunContextFactory` so parallel
/// sweep workers each measure on a private machine.
class OwnedRunContext {
 public:
  OwnedRunContext(const DiskParameters& disk, const CpuParameters& cpu,
                  uint64_t pool_pages, uint64_t data_pages,
                  uint64_t sort_memory_bytes, uint64_t hash_memory_bytes,
                  const WarmupPolicy& warmup = {})
      : device_(disk, &clock_), pool_(&device_, pool_pages) {
    // Mirror the prototype device's data extents so shared storage objects
    // (tables, indexes) keep their page addresses on this machine, and
    // spill extents land at the same pages as on the prototype.
    device_.AllocateExtent(data_pages);
    device_.SealDataExtents();
    ctx_.clock = &clock_;
    ctx_.device = &device_;
    ctx_.pool = &pool_;
    ctx_.cpu = cpu;
    ctx_.sort_memory_bytes = sort_memory_bytes;
    ctx_.hash_memory_bytes = hash_memory_bytes;
    ctx_.warmup = warmup;
  }

  OwnedRunContext(const OwnedRunContext&) = delete;
  OwnedRunContext& operator=(const OwnedRunContext&) = delete;

  RunContext* ctx() { return &ctx_; }

  /// Resets this machine in place to the state a freshly constructed one
  /// would have — clock zeroed, CPU carry cleared, pool emptied
  /// (page nodes recycled, never freed), pool statistics zeroed, head
  /// forgotten, temp extents released, `warmup` stamped — without
  /// reallocating the device mirror, the pool, or any page nodes. Cold
  /// measurements on a recycled machine are bit-identical to measurements
  /// on a fresh `Create()`. Only call between measurements, never during
  /// one.
  void Recycle(const WarmupPolicy& warmup) {
    clock_.Reset();
    pool_.Clear();
    pool_.ResetStats();
    device_.ResetHead();
    device_.ReleaseTempExtents();
    ctx_.warmup = warmup;
    ctx_.cpu_carry_ns = 0.0;
  }

 private:
  VirtualClock clock_;
  SimDevice device_;
  BufferPool pool_;
  RunContext ctx_;
};

/// Builds independent, identically-configured simulated machines from a
/// prototype context: same disk and CPU parameters, pool capacity, memory
/// budgets, warmup policy, and data-extent layout. Cold measurements taken
/// on a machine from `Create()` are bit-identical to cold measurements on
/// the prototype, which is what lets a parallel sweep reproduce a serial
/// sweep exactly.
class RunContextFactory {
 public:
  explicit RunContextFactory(const RunContext& prototype)
      : disk_(prototype.device->model().params()),
        cpu_(prototype.cpu),
        pool_pages_(prototype.pool->capacity_pages()),
        data_pages_(prototype.device->data_watermark()),
        sort_memory_bytes_(prototype.sort_memory_bytes),
        hash_memory_bytes_(prototype.hash_memory_bytes),
        warmup_(prototype.warmup) {}

  /// Overrides the warmup policy the machines start with.
  void set_warmup(const WarmupPolicy& warmup) { warmup_ = warmup; }
  const WarmupPolicy& warmup() const { return warmup_; }

  std::unique_ptr<OwnedRunContext> Create() const {
    return std::make_unique<OwnedRunContext>(
        disk_, cpu_, pool_pages_, data_pages_, sort_memory_bytes_,
        hash_memory_bytes_, warmup_);
  }

  /// Like `Create()`, but recycles a machine parked by `Release()` when one
  /// is available — same measurements, no reallocation of the device mirror
  /// or pool (see `OwnedRunContext::Recycle`). Thread-safe.
  std::unique_ptr<OwnedRunContext> Acquire() const {
    std::unique_ptr<OwnedRunContext> machine;
    {
      MutexLock lock(&arena_mu_);
      if (!arena_.empty()) {
        machine = std::move(arena_.back());
        arena_.pop_back();
      }
    }
    if (machine != nullptr) {
      machine->Recycle(warmup_);
      return machine;
    }
    return Create();
  }

  /// Parks `machine` for reuse by a later `Acquire()`. Null-tolerant.
  /// The machine must have been produced by this factory and must not be
  /// mid-measurement.
  void Release(std::unique_ptr<OwnedRunContext> machine) const {
    if (machine == nullptr) return;
    MutexLock lock(&arena_mu_);
    arena_.push_back(std::move(machine));
  }

 private:
  DiskParameters disk_;
  CpuParameters cpu_;
  uint64_t pool_pages_;
  uint64_t data_pages_;
  uint64_t sort_memory_bytes_;
  uint64_t hash_memory_bytes_;
  WarmupPolicy warmup_;

  /// Machines parked between measurements, awaiting `Acquire()`.
  mutable Mutex arena_mu_;
  mutable std::vector<std::unique_ptr<OwnedRunContext>> arena_
      GUARDED_BY(arena_mu_);
};

}  // namespace robustmap

#endif  // ROBUSTMAP_IO_RUN_CONTEXT_H_
