#include "core/sharded_sweep.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/trace.h"
#include "core/cell_cache.h"
#include "core/sweep_telemetry.h"
#include "core/wire_format.h"

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
  tile_req.backend = BackendKind::kSerial;
  tile_req.warm_policy = req.warm_policy;
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

namespace {

/// The worker processes of one sharded sweep, one per lane; a lane is the
/// unit `worker_busy_seconds` reports. Every worker, forked or exec'd,
/// runs `ServeTiles`: it reads tile requests from its command pipe and
/// answers each with one byte on its result pipe, so the coordinator
/// blocks in poll() on the result pipes, and EOF on one means that
/// worker is gone.
///
/// The destructor cleans up on every exit path. It closes the command
/// pipes, so an idle worker sees EOF and exits, and a busy one exits
/// after its current tile. Then it reaps each lane's known pid — never
/// waitpid(-1), which would steal the exit status of an embedding
/// application's own children.
class WorkerLanes {
 public:
  static constexpr size_t kIdle = static_cast<size_t>(-1);
  struct Lane {
    pid_t pid = -1;          ///< -1: no live process
    int cmd_fd = -1;         ///< command pipe, write end
    int result_fd = -1;      ///< result pipe, read end
    size_t tile = kIdle;     ///< todo index in flight
    int64_t started_ns = 0;  ///< dispatch time of `tile`
  };

  explicit WorkerLanes(size_t n) : lanes_(n) {}
  WorkerLanes(const WorkerLanes&) = delete;
  WorkerLanes& operator=(const WorkerLanes&) = delete;
  ~WorkerLanes() {
    for (size_t i = 0; i < lanes_.size(); ++i) CloseCommand(i);
    for (size_t i = 0; i < lanes_.size(); ++i) (void)Reap(i);
  }

  Lane& operator[](size_t i) { return lanes_[i]; }
  size_t size() const { return lanes_.size(); }

  /// Closes a lane's command pipe: its worker exits once idle.
  void CloseCommand(size_t i) {
    if (lanes_[i].cmd_fd >= 0) ::close(lanes_[i].cmd_fd);
    lanes_[i].cmd_fd = -1;
  }

  /// Waits for a lane's process to exit and closes its result pipe. The
  /// lane is empty afterwards even when waitpid fails.
  Status Reap(size_t i) {
    Lane& lane = lanes_[i];
    pid_t r = 0;
    if (lane.pid > 0) {
      do {
        r = ::waitpid(lane.pid, nullptr, 0);
      } while (r < 0 && errno == EINTR);
    }
    const int err = errno;
    if (lane.result_fd >= 0) ::close(lane.result_fd);
    lane.pid = -1;
    lane.result_fd = -1;
    if (r < 0) return Status::Internal("waitpid failed: " + ErrnoString(err));
    return Status::OK();
  }

  /// For a freshly forked worker: closes every coordinator-side pipe end
  /// it inherited. A worker still holding another worker's command write
  /// end (or its own) would keep that pipe from ever reaching EOF.
  void CloseCoordinatorEnds() {
    for (Lane& lane : lanes_) {
      if (lane.cmd_fd >= 0) ::close(lane.cmd_fd);
      if (lane.result_fd >= 0) ::close(lane.result_fd);
    }
  }

 private:
  std::vector<Lane> lanes_;
};

/// The argv of an exec-mode worker: the command prefix plus this sweep's
/// session flags. Tiles themselves arrive as request lines, so the
/// coordinator's exact (possibly cost-weighted) cuts are the contract.
/// The study and its warmup policy (the warm layer's for a warm-cold
/// study, the context's own for a plain study measured warm) complete
/// it: a worker computing a different study under the right tile name
/// would poison the merge.
std::vector<std::string> WorkerArgs(const RunContext& ctx,
                                    const SweepRequest& req,
                                    size_t stride) {
  const ShardedSweepOptions& opts = req.sharded;
  std::vector<std::string> args = opts.worker_command;
  const WarmupPolicy& policy =
      req.study == StudyKind::kWarmColdDelta ? req.warm_policy : ctx.warmup;
  args.push_back("--tile-dir=" + opts.tile_dir);
  args.push_back("--study=" + std::string(StudyKindName(req.study)));
  if (!policy.is_cold()) args.push_back("--warmup=" + policy.ToSpec());
  // Progressive coarse levels sweep a sublattice; the worker must
  // subsample its reconstructed grid the same way before slicing.
  if (stride > 1) {
    args.push_back("--stride=" + std::to_string(stride));
  }
  // A persistent cache rides along read-only (flushed by the coordinator
  // before dispatch); workers publish only in memory and the coordinator
  // re-publishes the merged cells itself.
  if (req.cell_cache != nullptr && req.cell_cache->attached()) {
    const std::string& cache_file = req.cell_cache->path();
    args.push_back("--cache-dir=" +
                   cache_file.substr(0, cache_file.rfind('/')));
  }
  // Observability rides along only when the coordinator itself is
  // collecting: the worker traces against the coordinator's epoch into
  // per-tile sidecars merged as each tile completes.
  if (Tracer::Get().enabled()) {
    args.push_back("--trace-epoch=" +
                   std::to_string(Tracer::Get().epoch_ns()));
  }
  if (SweepTelemetry::Get().enabled()) args.push_back("--telemetry");
  return args;
}

Result<std::string> ReadErrFile(const std::string& tile_path) {
  std::string reason;
  RM_RETURN_IF_ERROR(
      wire::ReadFileBytes(TileErrFileName(tile_path), "error file", &reason));
  return reason;
}

}  // namespace

Status DispatchTiles(RunContext* ctx, const Executor& executor,
                     const SweepRequest& req,
                     const std::vector<TileSpec>& todo, size_t stride,
                     ShardedSweepStats* stats,
                     const std::function<Status(size_t todo_idx)>& ingest) {
  const ShardedSweepOptions& opts = req.sharded;
  const auto tile_path = [&](size_t idx) {
    return opts.tile_dir + "/" + TileFileName(todo[idx].shard_id);
  };
  // A stale error file from an aborted run must never be reported as this
  // run's failure. Removed here, before any worker starts, and not at
  // dispatch: an exec child that cannot exec leaves its reason in the
  // error file of the tile its lane is dispatched next, and dispatch runs
  // after the fork.
  for (size_t idx = 0; idx < todo.size(); ++idx) {
    std::remove(TileErrFileName(tile_path(idx)).c_str());
  }
  // At most num_workers lanes, each holding one tile at a time. stdio is
  // flushed first so forked children do not replay the parent's buffered
  // output. Per-lane busy time, from dispatch to result, is what the
  // balance metrics report.
  TraceSpan dispatch_span("shard.dispatch", "shard");
  std::fflush(stdout);
  std::fflush(stderr);
  const bool exec_mode = !opts.worker_command.empty();
  std::vector<std::string> worker_args;
  std::vector<char*> worker_argv;
  if (exec_mode) {
    worker_args = WorkerArgs(*ctx, req, stride);
    for (std::string& a : worker_args) worker_argv.push_back(a.data());
    worker_argv.push_back(nullptr);
  }

  WorkerLanes lanes(stats->workers_spawned);
  stats->worker_busy_seconds.assign(lanes.size(), 0.0);

  // Starts a worker in an empty lane, wired to two fresh pipes: a forked
  // child that serves tiles itself, or the worker command exec'd with the
  // pipes as its stdin and stdout. Either way a coordinator that dies
  // closes the command pipe too, so an orphaned worker exits after its
  // current tile.
  size_t next = 0;
  const auto spawn_worker = [&](size_t lane) -> Status {
    int cmd[2] = {-1, -1};
    int result[2] = {-1, -1};
    const bool piped =
        ::pipe2(cmd, O_CLOEXEC) == 0 && ::pipe2(result, O_CLOEXEC) == 0;
    const pid_t pid = piped ? ::fork() : -1;
    if (pid < 0) {
      const int err = errno;
      for (int fd : {cmd[0], cmd[1], result[0], result[1]}) {
        if (fd >= 0) ::close(fd);
      }
      return Status::Internal(std::string(piped ? "fork" : "pipe") +
                              " failed: " + ErrnoString(err));
    }
    if (pid == 0) {
      if (!exec_mode) {
        lanes.CloseCoordinatorEnds();
        ::close(cmd[1]);
        ::close(result[0]);
        ServeTiles(cmd[0], result[1], ctx, executor, req);
        ::_exit(0);
      }
      // dup2 clears O_CLOEXEC on the copies: exactly fds 0 and 1 of the
      // two pipes survive the exec.
      ::dup2(cmd[0], STDIN_FILENO);
      ::dup2(result[1], STDOUT_FILENO);
      ::execvp(worker_argv[0], worker_argv.data());
      // The tile dispatched to this lane next fails with the reason.
      const int err = errno;
      WriteTileErrFile(tile_path(next),
                       Status::Internal("cannot exec " + worker_args[0] +
                                        ": " + ErrnoString(err)));
      ::_exit(127);
    }
    ::close(cmd[0]);
    ::close(result[1]);
    lanes[lane].pid = pid;
    lanes[lane].cmd_fd = cmd[1];
    lanes[lane].result_fd = result[0];
    return Status::OK();
  };

  // Hands an idle lane the heaviest pending tile as one request line. A
  // worker that died meanwhile surfaces as EOF on its result pipe, failing
  // this tile there.
  const auto dispatch = [&](size_t lane) {
    const size_t idx = next++;
    const std::string path = tile_path(idx);
    // A stale sidecar from an aborted run must never merge as if this
    // dispatch produced it.
    std::remove(TileTraceFileName(path).c_str());
    std::remove(TileTelemetryFileName(path).c_str());
    lanes[lane].tile = idx;
    lanes[lane].started_ns = MonotonicNowNs();
    const std::string request = TileRequestLine(todo[idx]);
    (void)WriteMessage(lanes[lane].cmd_fd, request.data(), request.size());
    SweepTelemetry::Get().AddCounter("shard.tiles_dispatched", 1);
  };

  // Accounts a lane's tile as finished: busy time, its span, and either
  // the worker's sidecars and a place in the ingest queue, or a failure.
  std::vector<size_t> failed;
  std::vector<size_t> answered;
  size_t computed_done = 0;
  const auto finish = [&](size_t lane, bool ok) {
    const size_t idx = lanes[lane].tile;
    const int64_t started_ns = lanes[lane].started_ns;
    lanes[lane].tile = WorkerLanes::kIdle;
    const int64_t now_ns = MonotonicNowNs();
    const double tile_wall_seconds =
        static_cast<double>(now_ns - started_ns) * 1e-9;
    stats->worker_busy_seconds[lane] += tile_wall_seconds;
    const size_t shard_id = todo[idx].shard_id;
    if (Tracer::Get().enabled()) {
      // The dispatch-to-result span for this tile, on the coordinator's
      // timeline; the worker's own spans sit inside it once the sidecar
      // merges.
      Tracer::Get().AddComplete("shard.tile " + std::to_string(shard_id),
                                "shard", started_ns, now_ns - started_ns);
    }
    SweepTelemetry::Get().RecordLatency("shard.tile_wall_seconds",
                                        tile_wall_seconds);
    if (!ok) {
      SweepTelemetry::Get().AddCounter("shard.tiles_failed", 1);
      failed.push_back(idx);
      return;
    }
    ++computed_done;
    answered.push_back(idx);
    SweepTelemetry::Get().AddCounter("shard.tiles_computed", 1);
    // Fold the worker's sidecars in and drop them; a missing or unreadable
    // sidecar degrades the trace, never the sweep.
    const auto merge = [&](auto& sink, const std::string& file,
                           const char* what) {
      if (!sink.enabled()) return;
      if (Status ms = sink.MergeFromFile(file); ms.ok()) {
        std::remove(file.c_str());
      } else {
        std::fprintf(stderr, "  shard: tile %zu %s sidecar: %s\n",
                     shard_id, what, ms.ToString().c_str());
      }
    };
    merge(Tracer::Get(), TileTraceFileName(tile_path(idx)), "trace");
    merge(SweepTelemetry::Get(), TileTelemetryFileName(tile_path(idx)),
          "telemetry");
    if (req.sweep.verbose) {
      std::fprintf(stderr, "  shard: tile %zu computed (%zu/%zu done)\n",
                   shard_id, stats->tiles_reused + computed_done,
                   stats->tiles_total);
    }
  };

  for (size_t lane = 0; lane < lanes.size(); ++lane) {
    RM_RETURN_IF_ERROR(spawn_worker(lane));
    dispatch(lane);
  }
  // Block until some lane reports. An answer byte finishes the lane's
  // tile; EOF means the lane's worker is gone — told to stop, or dead
  // while holding a tile, which then fails. A lane whose worker is gone
  // gets a new one while tiles remain pending. Answered tiles are
  // ingested only once every woken lane is busy again.
  std::vector<pollfd> fds;
  std::vector<size_t> fd_lane;
  size_t ingest_failed = todo.size();
  Status ingest_status;
  for (;;) {
    fds.clear();
    fd_lane.clear();
    for (size_t lane = 0; lane < lanes.size(); ++lane) {
      if (lanes[lane].pid < 0) continue;
      fds.push_back(pollfd{lanes[lane].result_fd, POLLIN, 0});
      fd_lane.push_back(lane);
    }
    if (fds.empty()) break;
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("poll failed: " + ErrnoString(errno));
    }
    for (size_t f = 0; f < fds.size(); ++f) {
      if (fds[f].revents == 0) continue;
      const size_t lane = fd_lane[f];
      char answer = 0;
      if (ReadMessage(lanes[lane].result_fd, &answer, 1) == 1) {
        finish(lane, answer == '0');
        if (next < todo.size()) {
          dispatch(lane);
        } else {
          lanes.CloseCommand(lane);
        }
        continue;
      }
      lanes.CloseCommand(lane);
      RM_RETURN_IF_ERROR(lanes.Reap(lane));
      if (lanes[lane].tile != WorkerLanes::kIdle) finish(lane, false);
      if (next < todo.size()) {
        RM_RETURN_IF_ERROR(spawn_worker(lane));
        ++stats->workers_spawned;
        dispatch(lane);
      }
    }
    for (size_t idx : answered) {
      TraceSpan ingest_span("shard.ingest", "shard");
      Status s = ingest(idx);
      if (!s.ok() && idx < ingest_failed) {
        ingest_failed = idx;
        ingest_status = std::move(s);
      }
    }
    answered.clear();
  }
  if (failed.empty()) return ingest_status;

  // Report the failure of the lowest shard id — stable whatever dispatch
  // order the cost model produced — with the worker's own Status when it
  // managed to leave one. Completed tiles stay on disk, so the rerun that
  // follows a fix resumes instead of restarting.
  size_t worst = failed.front();
  for (size_t idx : failed) {
    if (todo[idx].shard_id < todo[worst].shard_id) worst = idx;
  }
  auto msg = ReadErrFile(tile_path(worst));
  return Status::Internal(
      "sweep worker for tile " + std::to_string(todo[worst].shard_id) +
      " failed" +
      (msg.ok() ? ": " + msg.value()
                : " without leaving an error file (killed?)"));
}

}  // namespace robustmap
