#ifndef ROBUSTMAP_EXEC_BITMAP_OPS_H_
#define ROBUSTMAP_EXEC_BITMAP_OPS_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "exec/operator.h"

namespace robustmap {

/// A set of rids in [0, num_rids): one bit per rid in 64-bit words, plus a
/// private summary bit per word that is set exactly when the word is
/// non-zero. A sparse set is ANDed and scanned by the words it touches,
/// skipping whole empty 4,096-rid blocks, instead of by the table size.
/// The simulated cost of a bitmap is charged by its users from
/// `num_words()`, so the summary changes host time only. It also makes a
/// reused bitmap cheap to empty: `Reset` at an unchanged size clears only
/// the words the summary marks.
class RidBitmap {
 public:
  /// Empties the set and sizes it for rids in [0, num_rids).
  void Reset(uint64_t num_rids);

  /// At `Close`: keeps the set for the next `Reset` to clear when its
  /// storage is at most `kRetainedBufferBytes`, frees it (leaving an empty
  /// set) otherwise.
  void Recycle();

  /// Adds `rid` (< num_rids()); adding a member again is a no-op.
  void Set(Rid rid) {
    assert(rid < num_rids_);
    bits_[rid >> 6] |= uint64_t{1} << (rid & 63);
    bits_[num_words_ + (rid >> 12)] |= uint64_t{1} << ((rid >> 6) & 63);
  }

  /// Keeps only the rids that are also in `other`, which must have the
  /// same size. Visits only the words both summaries mark (and clears the
  /// words only this one marks).
  void And(const RidBitmap& other);

  /// The smallest member >= `pos`, or num_rids() when there is none.
  uint64_t Next(uint64_t pos) const;

  uint64_t num_rids() const { return num_rids_; }
  /// 64-bit words covering [0, num_rids): the unit bitmap costs charge.
  uint64_t num_words() const { return num_words_; }

 private:
  uint64_t num_rids_ = 0;
  uint64_t num_words_ = 0;
  /// num_words_ rid words, then one summary word per 64 rid words.
  std::vector<uint64_t> bits_;
};

/// Bitmap AND of two rid streams (System B's index intersection).
///
/// Each child's rids are inserted into a bitmap over [0, table_rows); the
/// bitmaps are ANDed word-wise and surviving rids stream out in ascending
/// order — no sort, unlike the merge join, but a full bitmap scan
/// regardless of result size. Column values are lost (only rids survive);
/// System B fetches rows afterwards anyway, which is exactly why it can use
/// this operator where Systems A/C need covering joins.
class BitmapAndOp : public Operator {
 public:
  BitmapAndOp(OperatorPtr left, OperatorPtr right, uint64_t table_rows)
      : left_(std::move(left)),
        right_(std::move(right)),
        table_rows_(table_rows) {}

  Status Open(RunContext* ctx) override;
  bool Next(RunContext* ctx, Row* out) override;
  void Close(RunContext* ctx) override;
  std::string DebugName() const override;

 private:
  Status FillBitmap(RunContext* ctx, Operator* child, RidBitmap* bits);

  OperatorPtr left_;
  OperatorPtr right_;
  uint64_t table_rows_;
  RidBitmap bits_;
  RidBitmap right_bits_;
  uint64_t scan_pos_ = 0;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_EXEC_BITMAP_OPS_H_
