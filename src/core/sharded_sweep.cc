#include "core/sharded_sweep.h"

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/trace.h"
#include "core/sweep_telemetry.h"

namespace robustmap {

std::string TileFileName(size_t shard_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "tile_%04zu.rmt", shard_id);
  return buf;
}

std::string TileErrFileName(const std::string& tile_path) {
  return tile_path + ".err";
}

void WriteTileErrFile(const std::string& tile_path, const Status& s) {
  std::ofstream f(TileErrFileName(tile_path), std::ios::trunc);
  f << s.ToString();
}

std::string TileTraceFileName(const std::string& tile_path) {
  return tile_path + ".trace.json";
}

std::string TileTelemetryFileName(const std::string& tile_path) {
  return tile_path + ".telemetry.json";
}

ssize_t ReadMessage(int fd, void* buf, size_t n) {
  ssize_t r = 0;
  do {
    r = ::read(fd, buf, n);
  } while (r < 0 && errno == EINTR);
  return r;
}

bool WriteMessage(int fd, const void* buf, size_t n) {
  sigset_t sigpipe{};
  sigset_t old_mask{};
  sigset_t pending{};
  sigemptyset(&sigpipe);
  sigaddset(&sigpipe, SIGPIPE);
  sigpending(&pending);
  const bool was_pending = sigismember(&pending, SIGPIPE) == 1;
  pthread_sigmask(SIG_BLOCK, &sigpipe, &old_mask);
  ssize_t w = 0;
  do {
    w = ::write(fd, buf, n);
  } while (w < 0 && errno == EINTR);
  if (w < 0 && errno == EPIPE && !was_pending) {
    const timespec zero{0, 0};
    int sig = 0;
    do {
      sig = sigtimedwait(&sigpipe, nullptr, &zero);
    } while (sig < 0 && errno == EINTR);
  }
  pthread_sigmask(SIG_SETMASK, &old_mask, nullptr);
  return w == static_cast<ssize_t>(n);
}

Status EnsureDirectory(const std::string& path) {
  // Create each prefix in turn, tolerating the ones that already exist.
  for (size_t pos = 0; pos != std::string::npos;) {
    pos = path.find('/', pos + 1);
    std::string prefix = path.substr(0, pos);
    if (prefix.empty()) continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal("cannot create directory " + prefix + ": " +
                              ErrnoString(errno));
    }
  }
  return Status::OK();
}

namespace {

/// One request line of `ServeTiles`: sweeps the tile it names and writes
/// it atomically — one cell layer per study output (named per
/// `StudyLayerNames`), stamped with the sweep's wall-clock seconds — plus
/// its observability sidecars. A failure after the shard id is read is
/// returned with `*path` set, for the tile's .err file.
Status ServeTile(const std::string& line, RunContext* ctx,
                 const Executor& executor, const SweepRequest& req,
                 std::string* path) {
  const size_t sep = line.find(' ');
  const std::string id = line.substr(0, sep);
  if (sep == std::string::npos || id.empty() ||
      id.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument("tile request '" + line +
                                   "' is not '<shard_id> <x0:x1:y0:y1>'");
  }
  TileSpec tile;
  tile.shard_id = static_cast<size_t>(std::strtoull(id.c_str(), nullptr, 10));
  *path = req.sharded.tile_dir + "/" + TileFileName(tile.shard_id);
  const std::string rect = line.substr(sep + 1);
  if (!ParseRectSpec(rect, &tile)) {
    return Status::InvalidArgument("rect " + rect +
                                   " is not X0:X1:Y0:Y1 grid indices");
  }
  auto sub = SliceSpace(req.space, tile);
  RM_RETURN_IF_ERROR(sub.status());
  // A forked worker inherited the parent's buffered events, and every
  // worker has since recorded its previous tile's; drop them (keeping the
  // shared epoch) so the sidecars report only this tile's work.
  if (Tracer::Get().enabled()) {
    const int64_t epoch = Tracer::Get().epoch_ns();
    Tracer::Get().Reset();
    Tracer::Get().SetEpochNs(epoch);
  }
  if (SweepTelemetry::Get().enabled()) SweepTelemetry::Get().Reset();
  SweepRequest tile_req;
  tile_req.plans = req.plans;
  tile_req.space = std::move(sub).value();
  tile_req.study = req.study;
  tile_req.backend = BackendKind::kThreaded;
  tile_req.warm_policy = req.warm_policy;
  tile_req.sweep.num_threads = std::max(1u, req.sharded.threads_per_worker);
  tile_req.cell_cache = req.cell_cache;
  const int64_t start_ns = MonotonicNowNs();
  Result<SweepOutcome> outcome = [&] {
    TraceSpan span("tile.compute");
    return SweepEngine::Run(ctx, executor, tile_req);
  }();
  RM_RETURN_IF_ERROR(outcome.status());
  const double wall_seconds =
      static_cast<double>(MonotonicNowNs() - start_ns) * 1e-9;
  SweepTelemetry::Get().RecordLatency("tile.compute_seconds", wall_seconds);
  std::vector<RobustnessMap>& layers = outcome.value().layers;
  MapTile out{tile, req.space, std::move(layers.front()), wall_seconds};
  out.layer_names = StudyLayerNames(req.study);
  out.extra_layers.assign(std::make_move_iterator(layers.begin() + 1),
                          std::make_move_iterator(layers.end()));
  const int64_t write_ns = MonotonicNowNs();
  Status written = [&] {
    TraceSpan span("tile.serialize");
    return WriteMapTileFile(*path, out);
  }();
  SweepTelemetry::Get().RecordLatency(
      "tile.serialize_seconds",
      static_cast<double>(MonotonicNowNs() - write_ns) * 1e-9);
  RM_RETURN_IF_ERROR(written);
  // Sidecars are best-effort: a failed observability write degrades the
  // trace, never the tile the coordinator is waiting on.
  const auto sidecar = [&](auto& sink, const std::string& file,
                           const char* what) {
    if (!sink.enabled()) return;
    if (Status s = sink.WriteFile(file); !s.ok()) {
      std::fprintf(stderr, "  shard: tile %zu %s sidecar: %s\n",
                   tile.shard_id, what, s.ToString().c_str());
    }
  };
  sidecar(Tracer::Get(), TileTraceFileName(*path), "trace");
  sidecar(SweepTelemetry::Get(), TileTelemetryFileName(*path), "telemetry");
  return Status::OK();
}

}  // namespace

std::string TileRequestLine(const TileSpec& tile) {
  return std::to_string(tile.shard_id) + " " + RectSpecString(tile) + "\n";
}

void ServeTiles(int in_fd, int out_fd, RunContext* ctx,
                const Executor& executor, const SweepRequest& req) {
  std::string line;
  char c = 0;
  while (ReadMessage(in_fd, &c, 1) == 1) {
    if (c != '\n') {
      line += c;
      continue;
    }
    std::string path;
    const Status s = ServeTile(line, ctx, executor, req, &path);
    line.clear();
    if (!s.ok() && path.empty()) {
      std::fprintf(stderr, "sweep worker: %s\n", s.ToString().c_str());
    } else if (!s.ok()) {
      WriteTileErrFile(path, s);
    }
    const char answer = s.ok() ? '0' : '1';
    if (!WriteMessage(out_fd, &answer, 1)) return;
  }
}

Result<RobustnessMap> RunShardedSweep(RunContext* ctx,
                                      const Executor& executor,
                                      const std::vector<PlanKind>& plans,
                                      const ParameterSpace& space,
                                      const ShardedSweepOptions& opts,
                                      ShardedSweepStats* stats) {
  SweepRequest req;
  req.plans = plans;
  req.space = space;
  req.study = StudyKind::kPlainMap;
  req.backend = BackendKind::kShardedProcess;
  req.sharded = opts;
  auto out = SweepEngine::Run(ctx, executor, req);
  RM_RETURN_IF_ERROR(out.status());
  if (stats != nullptr) *stats = std::move(out.value().sharded_stats);
  return std::move(out.value().layers.front());
}

}  // namespace robustmap
