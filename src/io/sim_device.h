#ifndef ROBUSTMAP_IO_SIM_DEVICE_H_
#define ROBUSTMAP_IO_SIM_DEVICE_H_

#include <cstdint>

#include "common/clock.h"
#include "io/disk_model.h"
#include "io/io_stats.h"

namespace robustmap {

/// Simulated block device.
///
/// Storage objects (tables, indexes, spill files) allocate extents of pages
/// in a single linear address space; every page access charges the shared
/// virtual clock according to the `DiskModel` and the current head position.
/// The device never stores bytes — in this simulation the "disk contents"
/// live with the storage objects; the device models *time* and collects
/// access statistics.
class SimDevice {
 public:
  SimDevice(const DiskParameters& params, VirtualClock* clock)
      : model_(params), clock_(clock) {}

  SimDevice(const SimDevice&) = delete;
  SimDevice& operator=(const SimDevice&) = delete;

  /// Reserves `pages` consecutive pages; returns the first global page id.
  uint64_t AllocateExtent(uint64_t pages);

  /// Charges one page read at `page` (global id).
  void ReadPage(uint64_t page);

  /// Charges one page write at `page` (global id).
  void WritePage(uint64_t page);

  /// Charges `count` consecutive page reads starting at `first`.
  void ReadRun(uint64_t first, uint64_t count);

  /// Charges `count` consecutive page writes starting at `first`.
  void WriteRun(uint64_t first, uint64_t count);

  /// Buffer pool bookkeeping: a logical read satisfied without device I/O.
  void NoteBufferHit() { ++stats_.buffer_hits; }

  const IoStats& stats() const { return stats_; }
  const DiskModel& model() const { return model_; }
  uint64_t allocated_pages() const { return next_free_page_; }

  /// Forgets head position (e.g., after a long pause); next access is random.
  void ResetHead() { head_ = -1; }

  /// Marks the current allocation frontier as the end of the permanent data
  /// extents (tables, indexes); `ReleaseTempExtents` rewinds to this point.
  void SealDataExtents() {
    data_watermark_ = next_free_page_;
    sealed_ = true;
  }

  /// Frees every extent allocated after `SealDataExtents` (sort spills, hash
  /// partitions, run files) and rewinds allocation to the start of the temp
  /// region. The first call seals implicitly, treating everything allocated
  /// so far as data. Called at each cold start so a measurement's temp-file
  /// placement — and therefore its seek costs — is independent of what ran
  /// before it.
  ///
  /// The temp region begins one full skip gap past the data extents,
  /// modeling a dedicated scratch area: reaching a spill file from anywhere
  /// in the data is always a full seek. Placing temp pages adjacent to the
  /// data instead would make the cost of a spill depend on which data
  /// extent happened to be scanned last — exactly the placement-accident
  /// idiosyncrasy the paper's maps are meant to expose, not contain.
  void ReleaseTempExtents() {
    if (!sealed_) SealDataExtents();
    next_free_page_ = TempRegionStart();
  }

  /// First page of the scratch region used for post-seal allocations.
  uint64_t TempRegionStart() const {
    return data_watermark_ + model_.params().max_skip_gap_pages + 1;
  }

  /// End of the permanent data extents (== allocated_pages() until sealed).
  uint64_t data_watermark() const {
    return sealed_ ? data_watermark_ : next_free_page_;
  }

 private:
  void Charge(double seconds) {
    clock_->Advance(static_cast<int64_t>(seconds * 1e9 + 0.5));
  }

  DiskModel model_;
  VirtualClock* clock_;
  IoStats stats_;
  int64_t head_ = -1;  ///< last accessed page, -1 if none
  uint64_t next_free_page_ = 0;
  uint64_t data_watermark_ = 0;  ///< see SealDataExtents
  bool sealed_ = false;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_IO_SIM_DEVICE_H_
