#include "core/sweep_telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/minijson.h"

namespace robustmap {

namespace {

/// %.17g round-trips every double exactly, keeping the file deterministic
/// for equal measured values without dragging 17 digits through the
/// common all-integer case.
std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that still parses back equal.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, v);
    double back = 0;
    std::sscanf(shorter, "%lf", &back);
    if (back == v) return shorter;
  }
  return buf;
}

Result<LatencyHistogram> HistogramFromJson(const std::string& path,
                                           const std::string& name,
                                           const JsonValue& h) {
  const auto fail = [&](const std::string& what) {
    return Status::Corruption(path + ": histogram '" + name + "' " + what);
  };
  if (!h.is_object()) return fail("is not an object");
  const JsonValue* buckets = h.Find("buckets");
  const JsonValue* count = h.Find("count");
  const JsonValue* sum = h.Find("sum_seconds");
  if (buckets == nullptr || !buckets->is_array() || count == nullptr ||
      !count->is_number() || sum == nullptr || !sum->is_number()) {
    return fail("is missing buckets/count/sum_seconds");
  }
  LatencyHistogram out;
  if (buckets->items().size() != out.buckets.size()) {
    return fail("has " + std::to_string(buckets->items().size()) +
                " buckets (want " + std::to_string(out.buckets.size()) +
                "; the bucket ladder is fixed so merges never rebin)");
  }
  for (size_t i = 0; i < out.buckets.size(); ++i) {
    const JsonValue& b = buckets->items()[i];
    if (!b.is_number()) return fail("has a non-numeric bucket");
    out.buckets[i] = static_cast<uint64_t>(b.number_value());
  }
  out.count = static_cast<uint64_t>(count->number_value());
  out.sum_seconds = sum->number_value();
  if (const JsonValue* v = h.Find("min_seconds"); v && v->is_number()) {
    out.min_seconds = v->number_value();
  }
  if (const JsonValue* v = h.Find("max_seconds"); v && v->is_number()) {
    out.max_seconds = v->number_value();
  }
  return out;
}

}  // namespace

const std::vector<double>& LatencyHistogram::Bounds() {
  // The 1-2-5 ladder, 1 µs .. 100 s. Static-local so the vector is built
  // once; the bounds are part of the file format (see HistogramFromJson).
  static const std::vector<double>* bounds = [] {
    auto* b = new std::vector<double>();
    for (int decade = -6; decade <= 1; ++decade) {
      for (const double mantissa : {1.0, 2.0, 5.0}) {
        b->push_back(mantissa * std::pow(10.0, decade));
      }
    }
    b->push_back(1e2);
    return b;
  }();
  return *bounds;
}

LatencyHistogram::LatencyHistogram() : buckets(Bounds().size() + 1, 0) {}

void LatencyHistogram::Record(double seconds) {
  const std::vector<double>& bounds = Bounds();
  const auto it =
      std::lower_bound(bounds.begin(), bounds.end(), seconds);
  const size_t bucket = static_cast<size_t>(it - bounds.begin());
  ++buckets[bucket];  // bounds.size() == the overflow slot
  if (count == 0 || seconds < min_seconds) min_seconds = seconds;
  if (count == 0 || seconds > max_seconds) max_seconds = seconds;
  ++count;
  sum_seconds += seconds;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
  if (other.count > 0) {
    if (count == 0 || other.min_seconds < min_seconds) {
      min_seconds = other.min_seconds;
    }
    if (count == 0 || other.max_seconds > max_seconds) {
      max_seconds = other.max_seconds;
    }
  }
  count += other.count;
  sum_seconds += other.sum_seconds;
}

SweepTelemetry& SweepTelemetry::Get() {
  // Leaked, same as Tracer: record calls may arrive from detached-thread
  // teardown paths after main returns.
  static SweepTelemetry* sink = new SweepTelemetry();
  return *sink;
}

namespace {

/// `map[name]` for a heterogeneous-lookup map: finds by view, allocating
/// the key only on first insertion.
template <typename Map>
typename Map::mapped_type& Slot(Map* map, std::string_view name) {
  auto it = map->find(name);
  if (it == map->end()) {
    it = map->emplace(std::string(name), typename Map::mapped_type()).first;
  }
  return it->second;
}

}  // namespace

void SweepTelemetry::AddCounter(std::string_view name, uint64_t delta) {
  if (!enabled()) return;
  MutexLock lock(&mu_);
  Slot(&counters_, name) += delta;
}

void SweepTelemetry::RecordLatency(std::string_view name, double seconds) {
  if (!enabled()) return;
  MutexLock lock(&mu_);
  Slot(&histograms_, name).Record(seconds);
}

void SweepTelemetry::Reset() {
  MutexLock lock(&mu_);
  counters_.clear();
  histograms_.clear();
}

Status SweepTelemetry::WriteFile(const std::string& path) const {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, LatencyHistogram> histograms;
  {
    MutexLock lock(&mu_);
    counters.insert(counters_.begin(), counters_.end());
    histograms.insert(histograms_.begin(), histograms_.end());
  }
  // std::map iteration gives the deterministic key order the format
  // promises: equal measurements serialize to equal bytes.
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": {\n";
    out += "      \"count\": " + std::to_string(h.count) + ",\n";
    out += "      \"sum_seconds\": " + FormatDouble(h.sum_seconds) + ",\n";
    out += "      \"min_seconds\": " + FormatDouble(h.min_seconds) + ",\n";
    out += "      \"max_seconds\": " + FormatDouble(h.max_seconds) + ",\n";
    out += "      \"bounds_seconds\": [";
    for (size_t i = 0; i < LatencyHistogram::Bounds().size(); ++i) {
      if (i != 0) out += ',';
      out += FormatDouble(LatencyHistogram::Bounds()[i]);
    }
    out += "],\n      \"buckets\": [";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(h.buckets[i]);
    }
    out += "]\n    }";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  std::ofstream f(path, std::ios::trunc | std::ios::binary);
  if (!f.is_open()) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  f << out;
  f.flush();
  if (!f.good()) return Status::Internal("error writing " + path);
  return Status::OK();
}

Status SweepTelemetry::MergeFromFile(const std::string& path) {
  auto data = ReadTelemetryFile(path);
  RM_RETURN_IF_ERROR(data.status());
  MutexLock lock(&mu_);
  for (const auto& [name, value] : data.value().counters) {
    counters_[name] += value;
  }
  for (const auto& [name, h] : data.value().histograms) {
    histograms_[name].Merge(h);
  }
  return Status::OK();
}

std::map<std::string, uint64_t> SweepTelemetry::Counters() const {
  MutexLock lock(&mu_);
  return {counters_.begin(), counters_.end()};
}

std::map<std::string, LatencyHistogram> SweepTelemetry::Histograms() const {
  MutexLock lock(&mu_);
  return {histograms_.begin(), histograms_.end()};
}

Result<TelemetryData> ReadTelemetryFile(const std::string& path) {
  auto doc = ParseJsonFile(path);
  RM_RETURN_IF_ERROR(doc.status());
  if (!doc.value().is_object()) {
    return Status::Corruption(path + ": telemetry root is not an object");
  }
  TelemetryData out;
  if (const JsonValue* counters = doc.value().Find("counters")) {
    if (!counters->is_object()) {
      return Status::Corruption(path + ": counters is not an object");
    }
    for (const auto& [name, value] : counters->members()) {
      if (!value.is_number()) {
        return Status::Corruption(path + ": counter '" + name +
                                  "' is not a number");
      }
      out.counters[name] = static_cast<uint64_t>(value.number_value());
    }
  }
  if (const JsonValue* histograms = doc.value().Find("histograms")) {
    if (!histograms->is_object()) {
      return Status::Corruption(path + ": histograms is not an object");
    }
    for (const auto& [name, h] : histograms->members()) {
      auto parsed = HistogramFromJson(path, name, h);
      RM_RETURN_IF_ERROR(parsed.status());
      out.histograms[name] = std::move(parsed).value();
    }
  }
  return out;
}

}  // namespace robustmap
