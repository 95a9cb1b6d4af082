#include "ledger.h"

#include <cstdio>

#include "common/trace.h"

namespace mapbench {

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();
  return *log;
}

SpanLog::ThreadBuffer* SpanLog::Local() {
  // The owning thread is the only writer of its buffer; the registry owns
  // the storage so spans survive the sweep worker threads that made them.
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (epoch_ns_ == 0) epoch_ns_ = robustmap::MonotonicNowNs();
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->tid = next_tid_++;
    local = buffers_.back().get();
  }
  return local;
}

int32_t SpanLog::Open(const char* name) {
  ThreadBuffer* b = Local();
  const int32_t parent = b->open.empty() ? -1 : b->open.back();
  b->spans.push_back(SpanRecord{name, robustmap::MonotonicNowNs(), 0, parent,
                                request_});
  const auto index = static_cast<int32_t>(b->spans.size() - 1);
  b->open.push_back(index);
  return index;
}

void SpanLog::Close(int32_t index) {
  ThreadBuffer* b = Local();
  b->spans[static_cast<size_t>(index)].end_ns = robustmap::MonotonicNowNs();
  b->open.pop_back();
}

LayerSample SpanLog::Collect(size_t keep_limit) {
  ThreadBuffer* self = Local();
  LayerSample out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (const SpanRecord& s : b->spans) {
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      out.self_s[s.name] += dur;
      out.total_s[s.name] += dur;
      if (s.parent >= 0) {
        out.self_s[b->spans[static_cast<size_t>(s.parent)].name] -= dur;
      } else if (b.get() != self) {
        out.worker_busy_s += dur;
      }
      if (kept_.size() < keep_limit) kept_.emplace_back(b->tid, s);
    }
  }
  // Other threads have exited (their sweep joined them); only the caller's
  // buffer lives on, emptied for the next request.
  std::vector<std::unique_ptr<ThreadBuffer>> survivors;
  for (auto& b : buffers_) {
    if (b.get() == self) survivors.push_back(std::move(b));
  }
  buffers_ = std::move(survivors);
  self->spans.clear();
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < kept_.size(); ++i) {
    const auto& [tid, s] = kept_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%u}}%s\n",
                 s.name, tid, static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.request,
                 i + 1 < kept_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace mapbench
