#ifndef ROBUSTMAP_COMMON_CLOCK_H_
#define ROBUSTMAP_COMMON_CLOCK_H_

#include <cstdint>

namespace robustmap {

/// Deterministic virtual clock, in nanoseconds.
///
/// The simulated I/O device and the CPU cost model both advance this clock;
/// an experiment's "measured execution time" is the clock delta across a
/// plan's execution. Virtual time makes 60M-row sweeps finish in wall-clock
/// seconds while preserving the *shape* of the cost surfaces the paper
/// studies (see DESIGN.md §2).
class VirtualClock {
 public:
  VirtualClock() = default;

  /// Advances the clock. `nanos` must be non-negative.
  void Advance(int64_t nanos) { now_ns_ += nanos; }

  /// Current virtual time since construction, nanoseconds.
  int64_t now_ns() const { return now_ns_; }

  /// Resets to zero (a fresh experiment run).
  void Reset() { now_ns_ = 0; }

 private:
  int64_t now_ns_ = 0;
};

/// A scoped interval measurement on a virtual clock.
class VirtualStopwatch {
 public:
  explicit VirtualStopwatch(const VirtualClock* clock)
      : clock_(clock), start_ns_(clock->now_ns()) {}

  int64_t elapsed_ns() const { return clock_->now_ns() - start_ns_; }
  double elapsed_seconds() const {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

 private:
  const VirtualClock* clock_;
  int64_t start_ns_;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_COMMON_CLOCK_H_
