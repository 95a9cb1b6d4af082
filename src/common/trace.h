#ifndef ROBUSTMAP_COMMON_TRACE_H_
#define ROBUSTMAP_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"

namespace robustmap {

/// Monotonic wall-clock reading in nanoseconds (CLOCK_MONOTONIC — shared
/// across processes on the same boot, which is what lets a coordinator
/// hand its epoch to worker processes and get aligned timestamps back).
///
/// This is the tree's ONE sanctioned wall-clock entry point: the
/// determinism lint (rule wall-clock-outside-trace) rejects any direct
/// `steady_clock` use outside the trace/telemetry modules, so every wall
/// reading — spans, tile wall_seconds metadata, bench stopwatches — flows
/// through here. Everything it feeds is sidecar-only: no map byte may ever
/// depend on a value derived from this function.
int64_t MonotonicNowNs();

/// One Chrome-trace event: a complete span ("X").
/// Timestamps are raw `MonotonicNowNs` readings; the tracer subtracts its
/// epoch when serializing. `pid` is 0 for events recorded in this process
/// (stamped with the real pid at write time) and the originating pid for
/// events merged in from a worker's sidecar file.
struct TraceEvent {
  std::string name;
  std::string category;
  uint32_t pid = 0;
  uint32_t tid = 0;
  int64_t ts_ns = 0;
  int64_t dur_ns = 0;
};

/// Process-wide span tracer emitting Chrome-trace-event JSON
/// (loadable in Perfetto / chrome://tracing). Disabled by default: the
/// fast path of every record call is a single relaxed atomic load, so an
/// untraced sweep pays nothing. Threads record into per-thread buffers
/// (each under its own uncontended mutex) registered with the tracer;
/// buffers of exited threads are retired into the tracer so no event is
/// lost. The singleton is intentionally leaked — thread-exit destructors
/// must always find it alive.
///
/// Cross-process story: a coordinator passes `epoch_ns()` to its workers
/// (`sweep_worker --trace-epoch=N`); each worker traces to a per-tile
/// sidecar file which the coordinator merges with `MergeFromFile`, so one
/// trace shows coordinator and worker spans on a common time axis.
class Tracer {
 public:
  static Tracer& Get();

  /// Turns recording on; captures the epoch now if none was set yet.
  void Enable();
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The zero of the serialized time axis, as a raw `MonotonicNowNs`
  /// value. Coordinators set it implicitly via `Enable`; workers set it
  /// explicitly to their coordinator's epoch so merged spans align.
  void SetEpochNs(int64_t epoch_ns) {
    epoch_ns_.store(epoch_ns, std::memory_order_relaxed);
  }
  int64_t epoch_ns() const {
    return epoch_ns_.load(std::memory_order_relaxed);
  }

  /// Records a complete span ("X"). No-op while disabled.
  void AddComplete(std::string name, std::string category, int64_t start_ns,
                   int64_t dur_ns);

  /// Serializes every buffered event (live threads' and retired) as
  /// `{"traceEvents":[...]}`, one event object per line, timestamps in
  /// microseconds relative to the epoch. Events stay buffered, so a
  /// driver may write intermediate snapshots.
  Status WriteFile(const std::string& path);

  /// Appends the events of another trace file (a worker's sidecar, written
  /// against the same epoch) to this tracer's retired buffer.
  Status MergeFromFile(const std::string& path);

  /// Drops every buffered event and the epoch. For forked children (which
  /// inherit the parent's buffers but must report only their own work) and
  /// for tests. Keeps the enabled flag as-is.
  void Reset();

  /// Number of currently buffered events (drains nothing). For tests.
  size_t event_count();

 private:
  struct ThreadBuffer {
    // Assigned once at registration (under the tracer's mu_), immutable
    // after — readable without the buffer's own lock.
    uint32_t tid = 0;
    Mutex mu;
    std::vector<TraceEvent> events GUARDED_BY(mu);
  };

  Tracer() = default;
  ThreadBuffer* ThisThreadBuffer();
  void RetireThread(ThreadBuffer* buffer);
  std::vector<TraceEvent> SnapshotEvents();

  friend class TracerThreadOwner;

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> epoch_ns_{0};
  Mutex mu_;
  std::vector<ThreadBuffer*> threads_ GUARDED_BY(mu_);
  std::vector<TraceEvent> retired_ GUARDED_BY(mu_);
  uint32_t next_tid_ GUARDED_BY(mu_) = 0;
};

// Tracing compiles out entirely with -DROBUSTMAP_TRACING_ENABLED=0: the
// RAII span below becomes an empty object, so even the disabled-path
// atomic load vanishes from instrumented code.
#ifndef ROBUSTMAP_TRACING_ENABLED
#define ROBUSTMAP_TRACING_ENABLED 1
#endif

#if ROBUSTMAP_TRACING_ENABLED

/// RAII complete-span recorder: times its own scope and hands the span to
/// the tracer on destruction. When the tracer is disabled at construction
/// time the span records nothing (and never looks at the clock).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "sweep") {
    if (Tracer::Get().enabled()) {
      name_ = name;
      category_ = category;
      start_ns_ = MonotonicNowNs();
    }
  }

  /// Dynamic-name form; the string is only built when tracing is on, so
  /// guard call sites that format names with `Tracer::Get().enabled()`.
  TraceSpan(std::string name, const char* category) {
    if (Tracer::Get().enabled()) {
      name_ = std::move(name);
      category_ = category;
      start_ns_ = MonotonicNowNs();
    }
  }

  ~TraceSpan() {
    if (start_ns_ != 0) {
      Tracer::Get().AddComplete(std::move(name_), category_, start_ns_,
                                MonotonicNowNs() - start_ns_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  std::string name_;
  const char* category_ = "";
  int64_t start_ns_ = 0;
};

#else  // !ROBUSTMAP_TRACING_ENABLED

class TraceSpan {
 public:
  explicit TraceSpan(const char*, const char* = "sweep") {}
  TraceSpan(std::string, const char*) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
};

#endif  // ROBUSTMAP_TRACING_ENABLED

}  // namespace robustmap

#endif  // ROBUSTMAP_COMMON_TRACE_H_
