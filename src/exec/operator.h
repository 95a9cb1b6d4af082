#ifndef ROBUSTMAP_EXEC_OPERATOR_H_
#define ROBUSTMAP_EXEC_OPERATOR_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/run_context.h"
#include "storage/row.h"

namespace robustmap {

/// Volcano-style physical operator: Open / Next / Close.
///
/// `Next` returns true when it produced a row into `*out` and false when the
/// stream is exhausted *or* an error occurred; callers distinguish the two
/// via `status()` (RocksDB iterator idiom — keeps the hot path free of
/// Status copies).
///
/// A tree is reusable: a sweep runs one tree per plan and machine over
/// thousands of cells. `Open` resets every piece of per-run state (the
/// status included), and `Close` may be called after any `Open`, whether
/// it succeeded or failed, and more than once: it closes every child and
/// keeps buffers for the next run (see `RecycleBuffer`).
class Operator {
 public:
  virtual ~Operator() = default;

  virtual Status Open(RunContext* ctx) = 0;
  virtual bool Next(RunContext* ctx, Row* out) = 0;
  virtual void Close(RunContext* ctx) = 0;

  /// Operator name with key parameters, for plan explanations.
  virtual std::string DebugName() const = 0;

  /// Non-OK iff Next() stopped because of an error.
  const Status& status() const { return status_; }

 protected:
  Status status_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// The most bytes an operator buffer keeps across `Close` for the next run
/// of its tree. A low-band cell (a few hundred rows per side, a bitmap over
/// 2^16 rids) fits, so a warmed tree sweeps that band without touching the
/// heap; a larger buffer is freed at `Close`, so paper-scale cells do not
/// pin megabytes per plan and machine.
inline constexpr size_t kRetainedBufferBytes = size_t{64} << 10;

/// Empties `buf` at `Close`: keeps its storage when that is at most
/// `kRetainedBufferBytes`, frees it otherwise.
template <typename T>
void RecycleBuffer(std::vector<T>* buf) {
  if (buf->capacity() * sizeof(T) > kRetainedBufferBytes) {
    std::vector<T>().swap(*buf);
  } else {
    buf->clear();
  }
}

/// Runs `op` to completion, counting rows. Returns the row count or the
/// operator's error. Opens `op`, and closes it on every path, so a failed
/// run leaves no child open in a reused tree.
Result<uint64_t> DrainCount(RunContext* ctx, Operator* op);

}  // namespace robustmap

#endif  // ROBUSTMAP_EXEC_OPERATOR_H_
