#ifndef ROBUSTMAP_MAPBENCH_LEDGER_H_
#define ROBUSTMAP_MAPBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mapbench {

/// One closed span: a call into a layer's public function, timed from the
/// benchmark's own code. `parent` indexes the enclosing span on the same
/// thread (-1 for a thread's outermost span).
struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  uint32_t request;
};

/// Per-request aggregate of the spans recorded since the last `Collect`.
struct LayerSample {
  std::map<std::string, double> self_s;   ///< span duration minus children
  std::map<std::string, double> total_s;  ///< span duration, inclusive
  /// Summed duration of the outermost spans on threads other than the one
  /// that called `Collect` — the time sweep worker threads spent inside
  /// cells.
  double worker_busy_s = 0;
};

/// The benchmark-owned span recorder: spans are buffered per thread in
/// memory, aggregated per request by `Collect`, and (for the first few
/// requests only, to bound memory) kept for a Chrome-trace file written at
/// exit. Disabled, a `Span` costs one branch.
class SpanLog {
 public:
  static SpanLog& Get();

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  void set_request(uint32_t id) { request_ = id; }

  /// Opens a span on the calling thread; returns its buffer index.
  int32_t Open(const char* name);
  void Close(int32_t index);

  /// Aggregates every span recorded since the last call, then frees the
  /// buffers of other threads (call only while no other thread records —
  /// after a sweep's workers have joined). Up to `keep_limit` spans in
  /// total are retained for `WriteChromeTrace`.
  LayerSample Collect(size_t keep_limit);

  /// Writes the retained spans as Chrome trace events, one per line.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct ThreadBuffer {
    uint32_t tid = 0;
    std::vector<SpanRecord> spans;
    std::vector<int32_t> open;
  };
  ThreadBuffer* Local();

  bool enabled_ = false;
  uint32_t request_ = 0;
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
  uint32_t next_tid_ = 0;                               // guarded by mu_
  std::vector<std::pair<uint32_t, SpanRecord>> kept_;
  int64_t epoch_ns_ = 0;
};

/// RAII span around one layer call; a no-op unless the log is enabled.
class Span {
 public:
  explicit Span(const char* name)
      : index_(SpanLog::Get().enabled() ? SpanLog::Get().Open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) SpanLog::Get().Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t index_;
};

}  // namespace mapbench

#endif  // ROBUSTMAP_MAPBENCH_LEDGER_H_
