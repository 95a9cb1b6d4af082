#ifndef ROBUSTMAP_CORE_SWEEP_TELEMETRY_H_
#define ROBUSTMAP_CORE_SWEEP_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"

namespace robustmap {

/// A fixed-bucket latency histogram on the 1-2-5 decade ladder from 1 µs
/// to 100 s (25 upper bounds) plus one overflow bucket. Fixed buckets keep
/// every histogram in the tree mergeable by plain element-wise addition —
/// a worker's sidecar adds into the coordinator's aggregate with no
/// rebinning — and make `telemetry.json` byte-comparable across runs that
/// measured the same counts.
struct LatencyHistogram {
  /// Upper bounds in seconds; bucket i counts samples with
  /// `value <= bounds()[i]` (and above the previous bound). The last
  /// element of `buckets` counts overflow samples above the top bound.
  static const std::vector<double>& Bounds();

  /// bounds().size() + 1 counts; the final slot is the overflow bucket.
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  double sum_seconds = 0;
  double min_seconds = 0;
  double max_seconds = 0;

  LatencyHistogram();
  void Record(double seconds);
  void Merge(const LatencyHistogram& other);
};

/// Process-wide sink of named counters and latency histograms for the
/// sweep stack. Disabled by default; when disabled every record call is a
/// single relaxed atomic load. Everything here is sidecar-only
/// observability: nothing recorded may ever feed back into a map value,
/// and CI byte-diffs maps produced with the sink on vs. off.
///
/// `WriteFile` emits `telemetry.json` with deterministically ordered keys
/// (std::map iteration order), so two runs that measured identical counts
/// serialize to identical bytes. Worker processes write per-tile sidecars
/// which the coordinator folds in with `MergeFromFile`.
class SweepTelemetry {
 public:
  static SweepTelemetry& Get();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Adds `delta` to counter `name`. No-op while disabled — and then
  /// allocation-free: the name is only copied the first time it is
  /// recorded.
  void AddCounter(std::string_view name, uint64_t delta);

  /// Records one latency sample into histogram `name`. No-op while
  /// disabled.
  void RecordLatency(std::string_view name, double seconds);

  /// Drops all recorded data (keeps the enabled flag). For forked worker
  /// children and tests.
  void Reset();

  /// Serializes counters + histograms as deterministic-ordered JSON.
  Status WriteFile(const std::string& path) const;

  /// Adds the counters and histograms of another telemetry file (a worker
  /// sidecar) into this sink.
  Status MergeFromFile(const std::string& path);

  /// Snapshots for in-process consumers (bench top-counter blocks, tests).
  std::map<std::string, uint64_t> Counters() const;
  std::map<std::string, LatencyHistogram> Histograms() const;

 private:
  SweepTelemetry() = default;

  std::atomic<bool> enabled_{false};
  mutable Mutex mu_;
  std::map<std::string, uint64_t, std::less<>> counters_ GUARDED_BY(mu_);
  std::map<std::string, LatencyHistogram, std::less<>> histograms_
      GUARDED_BY(mu_);
};

/// A parsed telemetry.json — the read side shared by `map_cat
/// --telemetry`, `SweepTelemetry::MergeFromFile`, and tests.
struct TelemetryData {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, LatencyHistogram> histograms;
};

Result<TelemetryData> ReadTelemetryFile(const std::string& path);

}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_SWEEP_TELEMETRY_H_
