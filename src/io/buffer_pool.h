#ifndef ROBUSTMAP_IO_BUFFER_POOL_H_
#define ROBUSTMAP_IO_BUFFER_POOL_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "io/sim_device.h"

namespace robustmap {

/// A simulated machine's private LRU page cache in front of its
/// `SimDevice` — the buffer pool a `RunContext` executes against.
///
/// The pool tracks *residency* rather than bytes: a hit avoids charging the
/// device; a miss charges one device read and caches the page. Scans can
/// pass `cacheable = false` to model ring-buffer scan reads that do not
/// flood the pool (all major systems do this for large scans).
///
/// Storage is flat: a node array (one node per resident page, grown only
/// up to capacity and never shrunk) threaded by an index-linked LRU list,
/// and a power-of-two open-addressing slot table of node indices with at
/// least twice as many slots as nodes (multiplicative hash, linear
/// probing, backward-shift deletion). Once a pool has held its working
/// set, admissions, evictions, hits and `Clear()` touch no heap.
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
  bool Contains(uint64_t page) const { return Find(page) != kNone; }

  /// Admits `page` as resident — most recently used — without charging the
  /// device or touching the hit/miss counters. Warm-start preloading (see
  /// `WarmupPolicy`); a no-op pool-state edit, never a measured access.
  void Warm(uint64_t page) {
    if (!Touch(page)) Admit(page);
  }

  /// Drops all cached pages (no cost). The hit/miss counters survive so a
  /// caller can clear residency mid-measurement; per-measurement statistics
  /// are zeroed separately by `ResetStats()` (ColdStart does both). Only
  /// the slots the resident nodes occupy are emptied, and the nodes stay
  /// allocated for the next measurement's admissions.
  void Clear() {
    for (Index n = 0; n < resident_; ++n) slots_[nodes_[n].slot] = kNone;
    resident_ = 0;
    head_ = tail_ = kNone;
  }

  uint64_t capacity_pages() const { return capacity_; }
  uint64_t resident_pages() const { return resident_; }

  /// Zeroes the hit/miss counters. Kept separate from `Clear()` so a warm
  /// start can leave pages resident while still measuring each run's hit
  /// rate from zero.
  void ResetStats() {
    hits_ = 0;
    misses_ = 0;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  /// Test-only efficiency counter: page nodes ever created, i.e. the most
  /// pages this pool has held at once. Evictions and post-`Clear()`
  /// admissions reuse nodes, so a recycled pool plateaus while a
  /// rebuilt-per-cell pool pays its working set again — the deterministic
  /// metric the arena-reuse tests and the cold-start-vs-recycle microbench
  /// assert on.
  uint64_t node_allocations() const { return nodes_.size(); }

 private:
  /// Node and slot indices. As wide as the capacity, so every capacity the
  /// constructor accepts can be filled.
  using Index = uint64_t;
  static constexpr Index kNone = std::numeric_limits<Index>::max();

  struct Node {
    uint64_t page;
    Index prev;  ///< towards MRU; kNone at the head
    Index next;  ///< towards LRU; kNone at the tail
    Index slot;  ///< where `slots_` points at this node
  };

  /// Home slot of `page`: Fibonacci hashing, the top bits of the product.
  Index Home(uint64_t page) const {
    return (page * 0x9E3779B97F4A7C15ull) >> shift_;
  }

  /// The node holding `page`, or kNone.
  Index Find(uint64_t page) const {
    if (resident_ == 0) return kNone;
    const Index mask = slots_.size() - 1;
    for (Index s = Home(page);; s = (s + 1) & mask) {
      const Index n = slots_[s];
      if (n == kNone || nodes_[n].page == page) return n;
    }
  }

  /// Marks `page` most recently used if resident; returns whether it was.
  bool Touch(uint64_t page) {
    const Index n = Find(page);
    if (n == kNone) return false;
    if (n != head_) {
      Unlink(n);
      PushFront(n);
    }
    return true;
  }

  /// Admits `page` as MRU, evicting the LRU page when full. A no-op at
  /// capacity 0. Must not be called for a resident page (use Touch/Warm).
  /// An eviction rewrites the victim's node in place; an admission into
  /// spare capacity takes the next node of the array, allocating only when
  /// the pool holds more pages than it ever has.
  void Admit(uint64_t page) {
    if (capacity_ == 0) return;
    Index n;
    if (resident_ == capacity_) {
      n = tail_;
      Unlink(n);
      EraseSlot(nodes_[n].slot);
    } else {
      n = resident_++;
      if (n == nodes_.size()) Grow();
    }
    nodes_[n].page = page;
    InsertSlot(n);
    PushFront(n);
  }

  /// Appends one node, doubling the slot table (and rehashing the resident
  /// nodes into it) whenever the nodes would fill more than half of it.
  void Grow() {
    if (nodes_.size() == nodes_.capacity()) {
      nodes_.reserve(std::min<uint64_t>(
          capacity_, std::max<uint64_t>(16, 2 * nodes_.size())));
    }
    nodes_.push_back(Node{0, kNone, kNone, kNone});
    if (2 * nodes_.size() <= slots_.size()) return;
    const Index size = std::max<Index>(16, 2 * slots_.size());
    slots_.assign(size, kNone);
    shift_ = 64 - std::countr_zero(size);
    // The new node is not yet resident; InsertSlot places it.
    for (Index r = 0; r + 1 < resident_; ++r) InsertSlot(r);
  }

  /// Points the first free slot of `n`'s probe sequence at `n`.
  void InsertSlot(Index n) {
    const Index mask = slots_.size() - 1;
    Index s = Home(nodes_[n].page);
    while (slots_[s] != kNone) s = (s + 1) & mask;
    slots_[s] = n;
    nodes_[n].slot = s;
  }

  /// Empties slot `hole` and shifts later entries of its probe run back
  /// into it, so no lookup ever stops early at the gap.
  void EraseSlot(Index hole) {
    const Index mask = slots_.size() - 1;
    for (Index s = (hole + 1) & mask;; s = (s + 1) & mask) {
      const Index n = slots_[s];
      if (n == kNone) break;
      // `n` may fill the hole only if the hole lies on its probe path,
      // i.e. between its home slot and `s` (cyclically).
      if (((s - Home(nodes_[n].page)) & mask) >= ((s - hole) & mask)) {
        slots_[hole] = n;
        nodes_[n].slot = hole;
        hole = s;
      }
    }
    slots_[hole] = kNone;
  }

  void Unlink(Index n) {
    const Node& node = nodes_[n];
    (node.prev == kNone ? head_ : nodes_[node.prev].next) = node.next;
    (node.next == kNone ? tail_ : nodes_[node.next].prev) = node.prev;
  }

  void PushFront(Index n) {
    nodes_[n].prev = kNone;
    nodes_[n].next = head_;
    (head_ == kNone ? tail_ : nodes_[head_].prev) = n;
    head_ = n;
  }

  SimDevice* device_;
  uint64_t capacity_;
  std::vector<Node> nodes_;   ///< [0, resident_) hold the resident pages
  std::vector<Index> slots_;  ///< node index per slot, kNone when empty
  int shift_ = 64;            ///< 64 - log2(slots_.size())
  Index resident_ = 0;
  Index head_ = kNone;  ///< most recently used
  Index tail_ = kNone;  ///< least recently used
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_IO_BUFFER_POOL_H_
