#ifndef ROBUSTMAP_EXEC_SORT_H_
#define ROBUSTMAP_EXEC_SORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/operator.h"

namespace robustmap {

/// How a sort behaves when its input exceeds work memory.
enum class SpillKind {
  /// Memory-adaptive external merge sort: keeps a memory-load resident and
  /// spills only the overflow; I/O grows smoothly with input size.
  kGraceful,
  /// The implementation the paper warns about (§4): one record over memory
  /// and the *entire* input goes to disk — a cost discontinuity.
  kNaive,
};

/// Charges the virtual clock for sorting `n_items` of `item_bytes` each with
/// `memory_bytes` of work memory: n·log2(n) comparisons plus, on overflow,
/// run generation and multiway merge I/O on a scratch extent. Returns the
/// number of temp pages written (== pages read back).
uint64_t ChargeSortCost(RunContext* ctx, uint64_t n_items, uint64_t item_bytes,
                        uint64_t memory_bytes, SpillKind kind);

/// Below these many items `SortByRid` calls `std::sort` instead: the radix
/// sort's 256-bucket passes cost more than a comparison sort of a short
/// input. Crossovers measured on 16-bit rids (Release, -O2, an x86-64
/// Xeon): about 40 48-byte rows, about 150 bare rids.
inline constexpr size_t kRadixSortMinRows = 48;
inline constexpr size_t kRadixSortMinRids = 192;

/// Sorts `rows` by rid. From the cutoff up it is a stable LSD radix sort,
/// one counting pass per significant byte of the largest rid (two passes
/// for rids below 2^16), that skips a byte every item shares; below it,
/// `std::sort`, so equal rids keep their input order only from the cutoff
/// up. `scratch` is the caller's buffer, resized to the input; the result
/// always ends in `rows`, so an operator that keeps both buffers across
/// runs sorts without allocating. The clock is not charged here: callers
/// charge `ChargeSortCost`, so the host algorithm never moves a simulated
/// second.
void SortByRid(std::vector<Row>* rows, std::vector<Row>* scratch);

/// `SortByRid` over bare rids.
void SortByRid(std::vector<Rid>* rids, std::vector<Rid>* scratch);

/// Sort key selector.
struct SortKeySpec {
  enum class Kind { kRid, kColumn } kind = Kind::kRid;
  uint32_t column = 0;
};

/// Blocking sort operator: drains its child, sorts, then streams out.
///
/// Performs a genuine sort of the materialized rows; the time charged to the
/// virtual clock follows the `SpillKind` cost model above, so a `kNaive`
/// sort exhibits the discontinuous robustness map of the paper's §4 while
/// producing identical output to a `kGraceful` one.
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, const SortKeySpec& key, SpillKind spill,
         uint64_t item_bytes = 16)
      : child_(std::move(child)),
        key_(key),
        spill_(spill),
        item_bytes_(item_bytes) {}

  Status Open(RunContext* ctx) override;
  bool Next(RunContext* ctx, Row* out) override;
  void Close(RunContext* ctx) override;
  std::string DebugName() const override;

  uint64_t spilled_pages() const { return spilled_pages_; }

 private:
  OperatorPtr child_;
  SortKeySpec key_;
  SpillKind spill_;
  uint64_t item_bytes_;

  std::vector<Row> rows_;
  std::vector<Row> scratch_;  ///< `SortByRid`'s buffer
  size_t pos_ = 0;
  uint64_t spilled_pages_ = 0;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_EXEC_SORT_H_
