#ifndef ROBUSTMAP_IO_BUFFER_POOL_H_
#define ROBUSTMAP_IO_BUFFER_POOL_H_

#include <cstdint>
#include <iterator>
#include <list>
#include <unordered_map>

#include "io/sim_device.h"

namespace robustmap {

/// A simulated machine's private LRU page cache in front of its
/// `SimDevice` — the buffer pool a `RunContext` executes against.
///
/// The pool tracks *residency* rather than bytes: a hit avoids charging the
/// device; a miss charges one device read and caches the page. Scans can
/// pass `cacheable = false` to model ring-buffer scan reads that do not
/// flood the pool (all major systems do this for large scans).
class BufferPool {
 public:
  BufferPool(SimDevice* device, uint64_t capacity_pages)
      : device_(device), capacity_(capacity_pages) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Logical page read. Returns true if the page was resident (no device
  /// charge). On a miss, charges the device and, if `cacheable`, admits the
  /// page (evicting the LRU page when full).
  bool Access(uint64_t page, bool cacheable = true) {
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

  /// True if `page` is currently resident (no cost, no LRU effect).
  bool Contains(uint64_t page) const { return map_.count(page) > 0; }

  /// Admits `page` as resident — most recently used — without charging the
  /// device or touching the hit/miss counters. Warm-start preloading (see
  /// `WarmupPolicy`); a no-op pool-state edit, never a measured access.
  void Warm(uint64_t page) {
    if (!Touch(page)) Admit(page);
  }

  /// Drops all cached pages (no cost). The hit/miss counters survive so a
  /// caller can clear residency mid-measurement; per-measurement statistics
  /// are zeroed separately by `ResetStats()` (ColdStart does both). Nodes
  /// are parked on the free list (one splice, no deallocation) so the next
  /// measurement's admissions recycle them.
  void Clear() {
    free_.splice(free_.begin(), lru_);
    map_.clear();
  }

  uint64_t capacity_pages() const { return capacity_; }
  uint64_t resident_pages() const { return map_.size(); }

  /// Zeroes the hit/miss counters. Kept separate from `Clear()` so a warm
  /// start can leave pages resident while still measuring each run's hit
  /// rate from zero.
  void ResetStats() {
    hits_ = 0;
    misses_ = 0;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  /// Test-only efficiency counter: LRU list nodes ever taken from the
  /// heap. Recycled admissions (evictions, post-Clear reuse) do not count,
  /// so a pool that keeps being recycled plateaus while a rebuilt-per-cell
  /// pool grows linearly — the deterministic metric the arena-reuse tests
  /// and the cold-start-vs-recycle microbench assert on.
  uint64_t node_allocations() const { return node_allocations_; }

 private:
  /// Marks `page` most recently used if resident; returns whether it was.
  bool Touch(uint64_t page) {
    auto it = map_.find(page);
    if (it == map_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }

  /// Admits `page` as MRU, evicting the LRU page when full. A no-op at
  /// capacity 0. Must not be called for a resident page (use Touch/Warm).
  ///
  /// List nodes are an arena: an eviction rewrites the victim's node in
  /// place (one splice), and an admission into spare capacity reuses a
  /// node parked by `Clear()` before asking the heap for a new one. A
  /// sweep's millions of per-cell cold starts therefore stop paying an
  /// allocate/free per resident page — residency order and eviction
  /// decisions are exactly as before, only the node lifetimes change.
  void Admit(uint64_t page) {
    if (capacity_ == 0) return;
    if (map_.size() >= capacity_) {
      map_.erase(lru_.back());
      lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
      lru_.front() = page;
    } else if (!free_.empty()) {
      lru_.splice(lru_.begin(), free_, free_.begin());
      lru_.front() = page;
    } else {
      lru_.push_front(page);
      ++node_allocations_;
    }
    map_[page] = lru_.begin();
  }

  SimDevice* device_;
  uint64_t capacity_;
  std::list<uint64_t> lru_;   ///< front = most recent
  std::list<uint64_t> free_;  ///< nodes parked by Clear(), awaiting reuse
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t node_allocations_ = 0;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_IO_BUFFER_POOL_H_
