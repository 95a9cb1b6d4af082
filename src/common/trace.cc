#include "common/trace.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "common/minijson.h"

namespace robustmap {

int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Serializes one event as a single JSON object line. `ts`/`dur` are
/// microseconds (Chrome trace convention), epoch-relative.
void AppendEventJson(const TraceEvent& e, uint32_t default_pid,
                     int64_t epoch_ns, std::string* out) {
  char buf[160];
  const uint32_t pid = e.pid != 0 ? e.pid : default_pid;
  const double ts_us = static_cast<double>(e.ts_ns - epoch_ns) / 1000.0;
  *out += "{\"name\":\"";
  *out += JsonEscape(e.name);
  *out += "\",\"cat\":\"";
  *out += JsonEscape(e.category);
  *out += "\",";
  std::snprintf(buf, sizeof(buf),
                "\"ph\":\"X\",\"pid\":%u,\"tid\":%u,\"ts\":%.3f,"
                "\"dur\":%.3f}",
                pid, e.tid, ts_us, static_cast<double>(e.dur_ns) / 1000.0);
  *out += buf;
}

}  // namespace

Tracer& Tracer::Get() {
  // Leaked on purpose: thread_local destructors retire their buffers here
  // at thread exit, which must never race program-exit destruction.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable() {
  if (epoch_ns() == 0) SetEpochNs(MonotonicNowNs());
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_relaxed); }

/// Owns one thread's buffer registration: constructed lazily on the
/// thread's first record, retires the buffer into the tracer on thread
/// exit so the events survive the thread.
class TracerThreadOwner {
 public:
  explicit TracerThreadOwner(Tracer* tracer)
      : tracer_(tracer), buffer_(new Tracer::ThreadBuffer()) {
    MutexLock lock(&tracer_->mu_);
    buffer_->tid = ++tracer_->next_tid_;
    tracer_->threads_.push_back(buffer_.get());
  }

  ~TracerThreadOwner() { tracer_->RetireThread(buffer_.get()); }

  TracerThreadOwner(const TracerThreadOwner&) = delete;
  TracerThreadOwner& operator=(const TracerThreadOwner&) = delete;

  Tracer::ThreadBuffer* buffer() { return buffer_.get(); }

 private:
  Tracer* tracer_;
  std::unique_ptr<Tracer::ThreadBuffer> buffer_;
};

Tracer::ThreadBuffer* Tracer::ThisThreadBuffer() {
  thread_local TracerThreadOwner owner(this);
  return owner.buffer();
}

void Tracer::RetireThread(ThreadBuffer* buffer) {
  MutexLock lock(&mu_);
  threads_.erase(std::remove(threads_.begin(), threads_.end(), buffer),
                 threads_.end());
  MutexLock buffer_lock(&buffer->mu);
  retired_.insert(retired_.end(),
                  std::make_move_iterator(buffer->events.begin()),
                  std::make_move_iterator(buffer->events.end()));
  buffer->events.clear();
}

void Tracer::AddComplete(std::string name, std::string category,
                         int64_t start_ns, int64_t dur_ns) {
  if (!enabled()) return;
  ThreadBuffer* buffer = ThisThreadBuffer();
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.tid = buffer->tid;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns;
  MutexLock lock(&buffer->mu);
  buffer->events.push_back(std::move(e));
}

std::vector<TraceEvent> Tracer::SnapshotEvents() {
  MutexLock lock(&mu_);
  std::vector<TraceEvent> all = retired_;
  for (ThreadBuffer* buffer : threads_) {
    MutexLock buffer_lock(&buffer->mu);
    all.insert(all.end(), buffer->events.begin(), buffer->events.end());
  }
  // Stable output order — by origin then start time — so a rerun of the
  // same sweep produces a structurally comparable file (timestamps still
  // differ; traces are wall-clock sidecars, never determinism-checked).
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts_ns < b.ts_ns;
                   });
  return all;
}

Status Tracer::WriteFile(const std::string& path) {
  const std::vector<TraceEvent> events = SnapshotEvents();
  const int64_t epoch = epoch_ns();
  const uint32_t pid = static_cast<uint32_t>(::getpid());
  std::string out = "{\"traceEvents\":[\n";
  for (size_t i = 0; i < events.size(); ++i) {
    AppendEventJson(events[i], pid, epoch, &out);
    if (i + 1 < events.size()) out += ',';
    out += '\n';
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  std::ofstream f(path, std::ios::trunc | std::ios::binary);
  if (!f.is_open()) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  f << out;
  f.flush();
  if (!f.good()) return Status::Internal("error writing " + path);
  return Status::OK();
}

Status Tracer::MergeFromFile(const std::string& path) {
  auto doc = ParseJsonFile(path);
  RM_RETURN_IF_ERROR(doc.status());
  const JsonValue* events = doc.value().Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::Corruption(path + ": no traceEvents array");
  }
  const int64_t epoch = epoch_ns();
  std::vector<TraceEvent> merged;
  merged.reserve(events->items().size());
  for (const JsonValue& ev : events->items()) {
    if (!ev.is_object()) {
      return Status::Corruption(path + ": non-object trace event");
    }
    const JsonValue* name = ev.Find("name");
    const JsonValue* ts = ev.Find("ts");
    const JsonValue* pid = ev.Find("pid");
    if (name == nullptr || !name->is_string() || ts == nullptr ||
        !ts->is_number() || pid == nullptr || !pid->is_number()) {
      return Status::Corruption(path + ": trace event missing name/ts/pid");
    }
    TraceEvent e;
    e.name = name->string_value();
    if (const JsonValue* cat = ev.Find("cat"); cat && cat->is_string()) {
      e.category = cat->string_value();
    }
    e.pid = static_cast<uint32_t>(pid->number_value());
    if (const JsonValue* tid = ev.Find("tid"); tid && tid->is_number()) {
      e.tid = static_cast<uint32_t>(tid->number_value());
    }
    // File timestamps are epoch-relative microseconds; store them back as
    // raw nanoseconds so serialization's epoch subtraction round-trips.
    e.ts_ns = epoch + static_cast<int64_t>(ts->number_value() * 1000.0);
    if (const JsonValue* dur = ev.Find("dur"); dur && dur->is_number()) {
      e.dur_ns = static_cast<int64_t>(dur->number_value() * 1000.0);
    }
    merged.push_back(std::move(e));
  }
  MutexLock lock(&mu_);
  retired_.insert(retired_.end(), std::make_move_iterator(merged.begin()),
                  std::make_move_iterator(merged.end()));
  return Status::OK();
}

void Tracer::Reset() {
  MutexLock lock(&mu_);
  retired_.clear();
  for (ThreadBuffer* buffer : threads_) {
    MutexLock buffer_lock(&buffer->mu);
    buffer->events.clear();
  }
  SetEpochNs(0);
}

size_t Tracer::event_count() {
  MutexLock lock(&mu_);
  size_t n = retired_.size();
  for (ThreadBuffer* buffer : threads_) {
    MutexLock buffer_lock(&buffer->mu);
    n += buffer->events.size();
  }
  return n;
}

}  // namespace robustmap
