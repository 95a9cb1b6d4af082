#ifndef ROBUSTMAP_CORE_SHARD_PLANNER_H_
#define ROBUSTMAP_CORE_SHARD_PLANNER_H_

#include <cstddef>
#include <cstdint>
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
  /// every grid point exactly once, cut so the tiles carry about equal
  /// cost under `model`. The tile grid is gy row bands (gy = min(max_tiles,
  /// rows)) of gx tiles each (gx = min(max_tiles / gy, columns)); a 1-D
  /// space splits along x. Fewer than `max_tiles` tiles come back when the
  /// grid is too small or the counts do not divide evenly. Row bands each
  /// carry ~1/gy of the total cost and each band's x cuts ~1/gx of that
  /// band's, so where cost is skewed the expensive corner gets
  /// geometrically finer tiles. Shard ids are row-major over the tile grid
  /// and stable for a given (space, max_tiles, model) — the property
  /// checkpoint/resume relies on — but tiles are *emitted* in snake order
  /// (alternate bands reversed), so consecutive work units stay spatially
  /// adjacent. Rejects 0 tiles, an empty grid, and a `model` built over
  /// any grid but `space`.
  static Result<std::vector<TileSpec>> Partition(const ParameterSpace& space,
                                                 size_t max_tiles,
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

/// Plans a sharded sweep of `req` without starting a process or writing a
/// file. Tiles are cut and ordered by the analytic prior
/// (`CellCostModel::Analytic`), with cached cells (when `cache_view` is
/// set) discounted to a vanishing epsilon so tiles are cut around the
/// cells still to measure. The plan reuses valid checkpoints (when
/// resuming) and fully cached tiles, adopts on-disk pieces of planned
/// tiles, and queues the rest heaviest first, straggler-split when workers
/// would idle. The same directory and cache state always yields the same
/// plan.
Result<ShardPlan> PlanShards(const SweepRequest& req,
                             const std::vector<std::string>& labels,
                             const ShardCacheView* cache_view);

}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_SHARD_PLANNER_H_
