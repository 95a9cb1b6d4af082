#ifndef ROBUSTMAP_CORE_SHARD_PLANNER_H_
#define ROBUSTMAP_CORE_SHARD_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/map_io.h"
#include "core/parameter_space.h"
#include "core/sweep_cost.h"
#include "core/sweep_engine.h"

namespace robustmap {

/// Partitions sweep grids into rectangular tiles for sharded execution.
class ShardPlanner {
 public:
  /// Splits `space` into at most `max_tiles` rectangular tiles that cover
  /// every grid point exactly once. The y axis is split first (rows are the
  /// outer dimension of the row-major linearization), then x if more tiles
  /// are wanted than there are rows; a 1-D space splits along x. Returns
  /// fewer than `max_tiles` tiles when the grid is too small or the counts
  /// do not divide evenly. Shard ids are assigned row-major over the tile
  /// grid, so the same (space, max_tiles) request always yields the same
  /// tiles with the same ids — the property checkpoint/resume relies on.
  /// Rejects empty grids (either axis with no values).
  static Result<std::vector<TileSpec>> Partition(const ParameterSpace& space,
                                                 size_t max_tiles);

  /// Cost-balanced partition: the same tile-grid shape (and therefore the
  /// same tile count) as `Partition`, but band boundaries are placed by
  /// cumulative cost under `model` instead of by cell count — row bands
  /// each carry ~1/gy of the total cost, and each band's x cuts carry
  /// ~1/gx of that band's. Where cost is skewed the expensive corner gets
  /// geometrically finer tiles, which is what lets equal-cost tiles exist
  /// at all. Shard ids stay row-major over the tile grid (stable for a
  /// given space, max_tiles, and model — checkpoint/resume still works),
  /// but tiles are *emitted* in snake order (alternate bands reversed), so
  /// consecutive work units stay spatially adjacent. `model` must be built
  /// over exactly `space`.
  static Result<std::vector<TileSpec>> PartitionWeighted(
      const ParameterSpace& space, size_t max_tiles,
      const CellCostModel& model);
};

/// The sharded coordinator's planning-time view of the cell cache: the
/// fingerprint of every (stored layer, plan, point) of the study, and
/// which points are cached in every stored layer of every plan. Stored
/// layers are what tiles persist directly from measurements — the plain
/// map's one sweep, or the warm-cold study's cold and warm halves; the
/// delta layer is derived at merge time and never cached.
class ShardCacheView {
 public:
  ShardCacheView(CellResultCache* cache, const RunContext& ctx,
                 int64_t domain, const SweepRequest& req,
                 const std::vector<std::string>& labels);

  size_t num_layers() const { return num_layers_; }
  CellResultCache* cache() const { return cache_; }

  uint64_t fp(size_t layer, size_t plan, size_t pt) const {
    return fps_[(layer * num_plans_ + plan) * space_.num_points() + pt];
  }

  /// Row-major per-point flags for `CellCostModel::WithDiscountedCells`:
  /// 1 where every stored layer of every plan is cached.
  const std::vector<uint8_t>& cached_flags() const { return cached_; }

  /// True when `t` is non-empty and every one of its points is cached.
  bool TileCached(const TileSpec& t) const;

  /// Publishes every cell of the merged stored layers back into the cache
  /// (insert-if-absent), returning how many entries were new.
  uint64_t PublishLayers(const std::vector<RobustnessMap>& merged,
                         const char* study) const;

 private:
  CellResultCache* cache_;
  const ParameterSpace& space_;
  const size_t num_plans_;
  size_t num_layers_ = 0;
  std::vector<uint64_t> fps_;    ///< [layer][plan][point], row-major
  std::vector<uint8_t> cached_;  ///< [point]
};

/// The scheduling model of a sharded sweep under `req.sharded.cost_model`,
/// with cached cells (when `cache_view` is set) discounted to a vanishing
/// epsilon so weighted tiles are cut around the cells still to measure.
/// Measured mode reads the tile directory's per-tile wall times (and
/// degrades to the analytic prior when none are usable); when resuming,
/// the tiles it read are handed back in `*preloaded`, keyed by path, so
/// `PlanShards` need not read and checksum them a second time.
Result<CellCostModel> ShardCostModel(const SweepRequest& req,
                                     const ShardCacheView* cache_view,
                                     std::map<std::string, MapTile>* preloaded);

/// What a sharded sweep has to do, decided before any worker starts.
struct ShardPlan {
  /// Tiles whose layers are already known: valid checkpoints, adopted
  /// pieces of a split tile, and tiles materialized from the cell cache.
  std::vector<MapTile> loaded;

  /// Tiles for workers to compute, heaviest first under the cost model:
  /// planned tiles plus, under fresh synthetic shard ids, coverage
  /// remainders and straggler pieces.
  std::vector<TileSpec> todo;

  /// tiles_total, tiles_reused, tiles_split, tiles_computed, and the
  /// planned workers_spawned (one per lane).
  ShardedSweepStats stats;
};

/// Plans a sharded sweep of `req` under `model` without starting a process
/// or writing a file: reuses valid checkpoints (when resuming) and fully
/// cached tiles, adopts on-disk pieces of planned tiles, and queues the
/// rest heaviest first, straggler-split when workers would idle. The same
/// directory and cache state always yields the same plan.
Result<ShardPlan> PlanShards(const SweepRequest& req,
                             const std::vector<std::string>& labels,
                             const CellCostModel& model,
                             const ShardCacheView* cache_view,
                             std::map<std::string, MapTile> preloaded = {});

}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_SHARD_PLANNER_H_
