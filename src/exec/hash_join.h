#ifndef ROBUSTMAP_EXEC_HASH_JOIN_H_
#define ROBUSTMAP_EXEC_HASH_JOIN_H_

#include <cstdint>
#include <vector>

#include "exec/operator.h"

namespace robustmap {

/// Open-addressing rid → row-ordinal map (linear probing, power-of-two
/// capacity). A purpose-built table keeps million-row builds fast in wall
/// clock; the *simulated* cost is charged explicitly by the operator.
class RidMap {
 public:
  RidMap() = default;
  explicit RidMap(size_t expected) { Reset(expected); }

  /// Empties the map and sizes it for `expected` rids, reusing its storage
  /// when that is large enough; a default-constructed map needs it before
  /// the first `Insert` or `Find`.
  void Reset(size_t expected);

  /// Frees the storage when it exceeds `kRetainedBufferBytes` (see
  /// `RecycleBuffer`); call `Reset` before the next use either way.
  void Recycle();

  /// Inserts rid -> ordinal; keeps the first ordinal on duplicates.
  void Insert(Rid rid, uint32_t ordinal);

  /// Returns the ordinal for rid, or UINT32_MAX if absent.
  uint32_t Find(Rid rid) const;

  size_t size() const { return size_; }

 private:
  size_t Slot(Rid rid) const;

  std::vector<Rid> keys_;
  std::vector<uint32_t> values_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Rid-intersection hash join (build on left child, probe with right).
///
/// When the build side exceeds `hash_memory_bytes` the operator charges
/// Grace-style partitioning I/O: both inputs are written to scratch
/// partitions and read back, once per recursion level. Unlike the merge
/// join, cost is *asymmetric* in the two inputs — the paper's observation
/// that "hash join plans perform better in some cases but do not exhibit
/// this symmetry" (§3.2, citing [GLS94]).
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr build, OperatorPtr probe)
      : build_(std::move(build)), probe_(std::move(probe)) {}

  Status Open(RunContext* ctx) override;
  bool Next(RunContext* ctx, Row* out) override;
  void Close(RunContext* ctx) override;
  std::string DebugName() const override;

  uint64_t partition_pages_written() const { return partition_pages_; }

 private:
  OperatorPtr build_;
  OperatorPtr probe_;

  std::vector<Row> build_rows_;
  RidMap map_;
  bool probe_open_ = false;
  std::vector<Row> materialized_probe_;  ///< used only after a Grace spill
  size_t probe_pos_ = 0;
  uint64_t partition_pages_ = 0;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_EXEC_HASH_JOIN_H_
