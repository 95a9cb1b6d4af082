#ifndef ROBUSTMAP_CORE_SHARDED_SWEEP_H_
#define ROBUSTMAP_CORE_SHARDED_SWEEP_H_

#include <sys/types.h>

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/map_io.h"
#include "core/shard_planner.h"
#include "core/sweep.h"
#include "core/sweep_engine.h"

namespace robustmap {

// `ShardedSweepOptions` and `ShardedSweepStats` live in core/sweep_engine.h
// (the sharded-process backend is one axis of the engine) and its planner
// in core/shard_planner.h; this header holds both ends of the worker
// protocol: the serve loop every worker runs and the coordinator's
// dispatcher.

/// Checkpoint file name for a shard, e.g. "tile_0007.rmt".
std::string TileFileName(size_t shard_id);

/// Sidecar file a failed worker leaves its Status message in — the one
/// channel an exit code cannot carry across the process boundary. Part of
/// the worker contract: coordinators read it back, so workers (including
/// external `sweep_worker` binaries) must write exactly this path.
std::string TileErrFileName(const std::string& tile_path);

/// Writes the sidecar (overwriting any stale one) — the one writer both
/// the built-in workers and external worker binaries share.
void WriteTileErrFile(const std::string& tile_path, const Status& s);

/// Observability sidecars a worker leaves next to a tile it computed while
/// the coordinator traces or collects telemetry; the coordinator merges
/// and deletes them as the tile completes.
std::string TileTraceFileName(const std::string& tile_path);
std::string TileTelemetryFileName(const std::string& tile_path);

/// read(2) retrying EINTR: the byte count, 0 on EOF (every write end
/// closed), -1 on error.
ssize_t ReadMessage(int fd, void* buf, size_t n);

/// write(2) of one pipe message (below PIPE_BUF, so it lands whole) whose
/// reader may be gone. SIGPIPE, whose default action would kill the whole
/// process, is held blocked for the call and a raise it caused is
/// consumed, so a vanished reader is just a false return.
bool WriteMessage(int fd, const void* buf, size_t n);

/// mkdir -p: creates `path` and any missing parents, tolerating ones that
/// already exist.
Status EnsureDirectory(const std::string& path);

/// The request line that asks a `ServeTiles` worker for `tile`:
/// "<shard_id> <x0:x1:y0:y1>\n" (the `RectSpecString` grammar).
std::string TileRequestLine(const TileSpec& tile);

/// The serve loop every sharded worker runs, forked or exec'd. Reads tile
/// requests from `in_fd` until EOF, one `TileRequestLine` each. Each tile
/// of `req.space` is swept on the serial backend (req's plans, study,
/// warm policy and cell cache), written atomically to
/// `req.sharded.tile_dir + "/" + TileFileName(shard_id)` with its sweep's
/// wall-clock seconds as metadata, and answered with one byte on
/// `out_fd`: '0' when the tile file was written, '1' when its Status is in
/// `TileErrFileName(path)` instead. A request that does not parse or does
/// not fit the grid is answered '1' as well; its reason goes to the .err
/// file when the shard id is readable, to stderr when it is not. While the
/// tracer or telemetry is enabled, each written tile also gets its
/// observability sidecars, holding that tile's events only. Returns on EOF
/// or when an answer cannot be written.
void ServeTiles(int in_fd, int out_fd, RunContext* ctx,
                const Executor& executor, const SweepRequest& req);

/// The coordinator end of the `ServeTiles` protocol: computes the planned
/// `todo` tiles (heaviest first) on `stats->workers_spawned` lanes, each a
/// persistent worker — a forked child, or `req.sharded.worker_command`
/// exec'd with the sweep's session flags ("--stride=<stride>" on a
/// progressive sweep's coarse levels) — pulling the next pending tile as
/// soon as it answers. A worker that dies is replaced while tiles remain;
/// a failed tile fails the sweep once every worker has finished. Records
/// lane busy times and replacement workers in `*stats`.
///
/// `ingest(todo_idx)` runs for each tile whose worker answered '0', while
/// the other lanes compute: after the answering lane — and every other
/// lane the same poll() woke — holds its next request. An ingest error
/// stops nothing; every worker still finishes. The result is the failure
/// of the lowest failed shard id when any worker failed, else the ingest
/// error of the lowest `todo` index, else OK.
Status DispatchTiles(RunContext* ctx, const Executor& executor,
                     const SweepRequest& req,
                     const std::vector<TileSpec>& todo, size_t stride,
                     ShardedSweepStats* stats,
                     const std::function<Status(size_t todo_idx)>& ingest);

}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_SHARDED_SWEEP_H_
