#include "core/shard_planner.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <utility>

#include "common/trace.h"
#include "core/cell_cache.h"
#include "core/sharded_sweep.h"
#include "core/sweep_telemetry.h"

namespace robustmap {

namespace {

/// Cuts [0, costs.size()) into `count` contiguous bands whose cumulative
/// costs are as equal as a prefix walk can make them: boundary b lands at
/// the first index whose prefix reaches b/count of the total, clamped so
/// every band keeps at least one element. Returns the count+1 boundary
/// indices.
std::vector<size_t> CostCuts(const std::vector<double>& costs, size_t count) {
  const size_t size = costs.size();
  double total = 0;
  for (double c : costs) total += c;
  std::vector<size_t> cuts(count + 1, 0);
  cuts[count] = size;
  double prefix = 0;
  size_t index = 0;
  for (size_t b = 1; b < count; ++b) {
    const double target = total * static_cast<double>(b) /
                          static_cast<double>(count);
    // Stop where the boundary is nearest the target: take one more element
    // only while more than half of it still fits under the target.
    while (index < size && prefix + costs[index] / 2 < target) {
      prefix += costs[index];
      ++index;
    }
    // Each band keeps ≥1 element, and every later band must also get one;
    // keep `prefix` equal to sum(costs[0..index)) while clamping.
    while (index < cuts[b - 1] + 1) {
      prefix += costs[index];
      ++index;
    }
    while (index > size - (count - b)) {
      --index;
      prefix -= costs[index];
    }
    cuts[b] = index;
  }
  return cuts;
}

}  // namespace

Result<std::vector<TileSpec>> ShardPlanner::Partition(
    const ParameterSpace& space, size_t max_tiles,
    const CellCostModel& model) {
  if (max_tiles == 0) {
    return Status::InvalidArgument("cannot partition a sweep into 0 tiles");
  }
  if (space.num_points() == 0) {
    return Status::InvalidArgument(
        "cannot partition an empty grid (an axis has no values)");
  }
  if (!(model.space() == space)) {
    return Status::InvalidArgument(
        "cost model was built over a different grid than the one being "
        "partitioned");
  }
  const size_t x_size = space.x_size();
  const size_t y_size = space.y_size();
  // Rows first: a row band keeps cells that are adjacent in the row-major
  // linearization together. Only when more tiles are wanted than there are
  // rows does each row band also split along x. Both counts are capped by
  // the axis length, so every tile is non-empty, and gx*gy <= max_tiles
  // because gx <= max_tiles / gy. The shape depends on the grid alone, so
  // a (space, max_tiles) request yields the same tile count and the same
  // dense row-major ids under any model.
  const size_t gy = std::min(max_tiles, y_size);
  const size_t gx = std::min(std::max<size_t>(1, max_tiles / gy), x_size);

  std::vector<double> row_costs(y_size, 0.0);
  for (size_t yi = 0; yi < y_size; ++yi) {
    for (size_t xi = 0; xi < x_size; ++xi) {
      row_costs[yi] += model.CellCost(xi, yi);
    }
  }
  const std::vector<size_t> y_cuts = CostCuts(row_costs, gy);

  std::vector<TileSpec> tiles;
  tiles.reserve(gx * gy);
  for (size_t by = 0; by < gy; ++by) {
    const size_t y0 = y_cuts[by];
    const size_t y1 = y_cuts[by + 1];
    // x cuts balance the cost *within this band*: a band hugging sel=1 is
    // cut much finer toward its expensive end than a cheap band is.
    std::vector<double> col_costs(x_size, 0.0);
    for (size_t xi = 0; xi < x_size; ++xi) {
      for (size_t yi = y0; yi < y1; ++yi) {
        col_costs[xi] += model.CellCost(xi, yi);
      }
    }
    const std::vector<size_t> x_cuts = CostCuts(col_costs, gx);
    // Snake emission: odd bands run right-to-left, so consecutive tiles in
    // the returned order are spatially adjacent. Ids stay row-major.
    for (size_t i = 0; i < gx; ++i) {
      const size_t bx = (by % 2 == 0) ? i : gx - 1 - i;
      TileSpec t;
      t.shard_id = by * gx + bx;
      t.x_begin = x_cuts[bx];
      t.x_end = x_cuts[bx + 1];
      t.y_begin = y0;
      t.y_end = y1;
      tiles.push_back(t);
    }
  }
  return tiles;
}

namespace {

/// A checkpoint is reusable only if it parses, its checksum holds, and it
/// describes exactly the tile the current plan expects — same rectangle,
/// same parent grid, same plans, same study layers. Anything else (a tile
/// from an older configuration, a plain tile in a warm-cold directory, a
/// damaged file) must be recomputed.
Result<MapTile> LoadValidTile(const std::string& path,
                              const TileSpec& expected,
                              const ParameterSpace& space,
                              const std::vector<std::string>& labels,
                              StudyKind study) {
  auto tile = ReadMapTileFile(path);
  RM_RETURN_IF_ERROR(tile.status());
  const MapTile& t = tile.value();
  if (!(t.spec == expected) || !(t.parent_space == space) ||
      t.map.plan_labels() != labels) {
    return Status::InvalidArgument(
        path + " describes a different tile, grid, or plan set");
  }
  if (t.num_layers() != StudyLayerCount(study) ||
      t.layer_names != StudyLayerNames(study)) {
    return Status::InvalidArgument(
        path + " carries a different study's layers");
  }
  return tile;
}

/// True when `inner`'s (non-empty) rectangle lies entirely inside
/// `outer`'s. Shard ids play no part: a cell's value is a deterministic
/// function of (space, plans, study), so *any* valid tile covering the
/// right cells carries the right bytes whatever id computed it.
bool RectContains(const TileSpec& outer, const TileSpec& inner) {
  return inner.num_points() > 0 && inner.x_begin >= outer.x_begin &&
         inner.x_end <= outer.x_end && inner.y_begin >= outer.y_begin &&
         inner.y_end <= outer.y_end;
}

/// Appends `outer` minus `inner` (which must nest inside `outer`) as up to
/// four disjoint rectangles — the guillotine cut: full-height left and
/// right strips, then the bottom and top slabs of the middle column. The
/// pieces' shard ids are left for the caller to assign.
void SubtractRect(const TileSpec& outer, const TileSpec& inner,
                  std::vector<TileSpec>* out) {
  auto push = [out](size_t x0, size_t x1, size_t y0, size_t y1) {
    if (x0 >= x1 || y0 >= y1) return;
    TileSpec piece;
    piece.x_begin = x0;
    piece.x_end = x1;
    piece.y_begin = y0;
    piece.y_end = y1;
    out->push_back(piece);
  };
  push(outer.x_begin, inner.x_begin, outer.y_begin, outer.y_end);
  push(inner.x_end, outer.x_end, outer.y_begin, outer.y_end);
  push(inner.x_begin, inner.x_end, outer.y_begin, inner.y_begin);
  push(inner.x_begin, inner.x_end, inner.y_end, outer.y_end);
}

/// Cuts `t` in two at its cost midpoint along the longer axis: the cut
/// lands at the first slice boundary where the accumulated cost reaches
/// half the tile's, clamped so both halves are non-empty. `t` must span
/// more than one point. Purely a function of (tile, model) — the
/// determinism of straggler splitting rests on this.
std::pair<TileSpec, TileSpec> SplitTileAtCostMidpoint(
    const TileSpec& t, const CellCostModel& model) {
  const bool cut_x = t.x_size() >= t.y_size() ? t.x_size() > 1 : false;
  const size_t begin = cut_x ? t.x_begin : t.y_begin;
  const size_t end = cut_x ? t.x_end : t.y_end;
  const double total = model.TileCost(t);
  size_t cut = end - 1;
  double acc = 0;
  for (size_t i = begin; i < end; ++i) {
    TileSpec slice = t;
    if (cut_x) {
      slice.x_begin = i;
      slice.x_end = i + 1;
    } else {
      slice.y_begin = i;
      slice.y_end = i + 1;
    }
    acc += model.TileCost(slice);
    if (acc * 2 >= total) {
      cut = i + 1;
      break;
    }
  }
  cut = std::max(begin + 1, std::min(cut, end - 1));
  TileSpec a = t;
  TileSpec b = t;
  if (cut_x) {
    a.x_end = cut;
    b.x_begin = cut;
  } else {
    a.y_end = cut;
    b.y_begin = cut;
  }
  return {a, b};
}

/// Builds the tile a worker would have computed for a fully-cached
/// rectangle straight from the cache: per-layer cell copies, the derived
/// delta for a warm-cold study, wall_seconds 0 (nothing was measured —
/// the same stamp merged artifacts carry). Byte-equivalence holds because
/// hits return the exact Measurement a fresh run would have produced.
Result<MapTile> MaterializeCachedTile(const ShardCacheView& view,
                                      const SweepRequest& req,
                                      const std::vector<std::string>& labels,
                                      const TileSpec& t) {
  auto sub = SliceSpace(req.space, t);
  RM_RETURN_IF_ERROR(sub.status());
  std::vector<RobustnessMap> layers;
  for (size_t layer = 0; layer < view.num_layers(); ++layer) {
    RobustnessMap map(sub.value(), labels);
    for (size_t plan = 0; plan < labels.size(); ++plan) {
      for (size_t syi = 0; syi < sub.value().y_size(); ++syi) {
        for (size_t sxi = 0; sxi < sub.value().x_size(); ++sxi) {
          const size_t parent_pt =
              req.space.IndexOf(t.x_begin + sxi, t.y_begin + syi);
          Measurement m;
          if (!view.cache()->Lookup(view.fp(layer, plan, parent_pt), &m)) {
            return Status::Internal(
                "cell vanished from the cache while planning tile " +
                std::to_string(t.shard_id));
          }
          map.Set(plan, sub.value().IndexOf(sxi, syi), std::move(m));
        }
      }
    }
    layers.push_back(std::move(map));
  }
  if (req.study == StudyKind::kWarmColdDelta) {
    auto delta = DiffMaps(layers[1], layers[0]);
    RM_RETURN_IF_ERROR(delta.status());
    layers.push_back(std::move(delta).value());
  }
  MapTile out{t, req.space, std::move(layers.front()), 0.0};
  out.layer_names = StudyLayerNames(req.study);
  out.extra_layers.assign(std::make_move_iterator(layers.begin() + 1),
                          std::make_move_iterator(layers.end()));
  return out;
}

}  // namespace

ShardCacheView::ShardCacheView(CellResultCache* cache, const RunContext& ctx,
                               int64_t domain, const SweepRequest& req,
                               const std::vector<std::string>& labels)
    : cache_(cache), space_(req.space), num_plans_(labels.size()) {
  const uint64_t env = EnvironmentFingerprint(ctx, domain);
  const char* study = StudyKindName(req.study);
  const std::vector<std::string> specs =
      req.study == StudyKind::kWarmColdDelta
          ? std::vector<std::string>{WarmupPolicy::Cold().ToSpec(),
                                     req.warm_policy.ToSpec()}
          : std::vector<std::string>{ctx.warmup.ToSpec()};
  num_layers_ = specs.size();
  const size_t points = space_.num_points();
  fps_.reserve(num_layers_ * num_plans_ * points);
  for (const std::string& spec : specs) {
    for (const std::string& label : labels) {
      const CellKeyer keyer(env, study, spec, label);
      for (size_t pt = 0; pt < points; ++pt) {
        fps_.push_back(keyer.Key(space_.x_value(pt), space_.y_value(pt)));
      }
    }
  }
  cached_.assign(points, 1);
  for (size_t pt = 0; pt < points; ++pt) {
    for (size_t cell = pt; cached_[pt] && cell < fps_.size();
         cell += points) {
      cached_[pt] = cache_->Contains(fps_[cell]) ? 1 : 0;
    }
  }
}

bool ShardCacheView::TileCached(const TileSpec& t) const {
  for (size_t yi = t.y_begin; yi < t.y_end; ++yi) {
    for (size_t xi = t.x_begin; xi < t.x_end; ++xi) {
      if (!cached_[space_.IndexOf(xi, yi)]) return false;
    }
  }
  return t.num_points() > 0;
}

uint64_t ShardCacheView::PublishLayers(
    const std::vector<RobustnessMap>& merged, const char* study) const {
  uint64_t published = 0;
  for (size_t layer = 0; layer < num_layers_; ++layer) {
    for (size_t plan = 0; plan < num_plans_; ++plan) {
      for (size_t pt = 0; pt < space_.num_points(); ++pt) {
        if (cache_->Publish(fp(layer, plan, pt), study,
                            merged[layer].At(plan, pt))) {
          ++published;
        }
      }
    }
  }
  return published;
}

Result<ShardPlan> PlanShards(const SweepRequest& req,
                             const std::vector<std::string>& labels,
                             const ShardCacheView* cache_view) {
  const ShardedSweepOptions& opts = req.sharded;
  const ParameterSpace& space = req.space;
  auto prior = CellCostModel::Analytic(space);
  RM_RETURN_IF_ERROR(prior.status());
  // Cached cells are hits, not measurements: costed at a vanishing
  // epsilon, the partition cuts its tiles around the cells that still
  // need measuring.
  const CellCostModel model =
      cache_view == nullptr
          ? std::move(prior).value()
          : prior.value().WithDiscountedCells(cache_view->cached_flags());
  const unsigned num_workers = ResolveParallelism(opts.num_workers);
  const size_t num_tiles =
      opts.num_tiles == 0 ? num_workers : opts.num_tiles;
  auto tiles = ShardPlanner::Partition(space, num_tiles, model);
  RM_RETURN_IF_ERROR(tiles.status());
  TraceSpan scan_span("shard.scan", "shard");

  // Synthetic shard ids — straggler pieces and coverage remainders below —
  // must collide neither with a planned id nor with any tile file already
  // in the directory, so both are folded into the counter before any id is
  // handed out.
  const std::vector<std::string> disk_tiles = SortedTileFiles(opts.tile_dir);
  size_t next_shard_id = 0;
  for (const TileSpec& t : tiles.value()) {
    next_shard_id = std::max(next_shard_id, t.shard_id + 1);
  }
  for (const std::string& name : disk_tiles) {
    size_t id = 0;
    if (std::sscanf(name.c_str(), "tile_%zu.rmt", &id) == 1) {
      next_shard_id = std::max(next_shard_id, id + 1);
    }
  }

  // The coverage-adoption candidate pool: every valid on-disk tile of this
  // exact study (grid, plans, layers — shard id deliberately ignored, any
  // valid tile for this study carries the right bytes for its rectangle).
  // Read lazily: the pool is only needed when a planned tile's own file is
  // missing or invalid, i.e. when a previous run was killed or damaged.
  std::optional<std::vector<std::pair<std::string, MapTile>>> candidates;
  const auto load_candidates = [&] {
    if (candidates.has_value()) return;
    candidates.emplace();
    for (const std::string& name : disk_tiles) {
      auto tile = ReadMapTileFile(opts.tile_dir + "/" + name);
      if (!tile.ok()) continue;  // damaged or foreign file: not a candidate
      const MapTile& t = tile.value();
      if (!(t.parent_space == space) || t.map.plan_labels() != labels ||
          t.num_layers() != StudyLayerCount(req.study) ||
          t.layer_names != StudyLayerNames(req.study)) {
        continue;
      }
      candidates->emplace_back(name, std::move(tile).value());
    }
  };

  // Valid tiles are carried over in memory, the rest queue for workers. A
  // planned tile whose own file is gone may still be partially covered by
  // tiles a killed run left behind — most importantly the pieces of a
  // straggler split — so those are adopted and only the uncovered
  // remainder rectangles queue (as fresh synthetic tiles).
  ShardPlan plan;
  std::vector<TileSpec>& todo = plan.todo;
  std::vector<bool> candidate_used;
  for (const TileSpec& t : tiles.value()) {
    const std::string path = opts.tile_dir + "/" + TileFileName(t.shard_id);
    auto tile = opts.resume
                    ? LoadValidTile(path, t, space, labels, req.study)
                    : Result<MapTile>(Status::NotFound("resume disabled"));
    if (tile.ok()) {
      plan.loaded.push_back(std::move(tile).value());
      SweepTelemetry::Get().AddCounter("shard.tiles_resumed", 1);
      if (req.sweep.verbose) {
        std::fprintf(stderr, "  shard: tile %zu valid on disk, reused\n",
                     t.shard_id);
      }
      continue;
    }
    // A tile whose every cell is already cached never reaches a worker:
    // its layers are materialized from the cache right here.
    if (cache_view != nullptr && cache_view->TileCached(t)) {
      auto mem = MaterializeCachedTile(*cache_view, req, labels, t);
      RM_RETURN_IF_ERROR(mem.status());
      plan.loaded.push_back(std::move(mem).value());
      SweepTelemetry::Get().AddCounter("shard.tiles_from_cache", 1);
      // The per-cell hit counters the lookup path would have bumped had
      // the tile been dispatched — a warm rerun's telemetry shows
      // cache.hits == cells either way. Stored layers only: a warm-cold
      // delta is derived, not looked up.
      const size_t tile_cells =
          cache_view->num_layers() * labels.size() * t.num_points();
      SweepTelemetry::Get().AddCounter("cache.hits", tile_cells);
      SweepTelemetry::Get().AddCounter("sweep.cells_reused", tile_cells);
      if (req.sweep.verbose) {
        std::fprintf(stderr,
                     "  shard: tile %zu fully cached, not dispatched\n",
                     t.shard_id);
      }
      continue;
    }
    std::vector<TileSpec> remainders{t};
    bool adopted_any = false;
    if (opts.resume) {
      load_candidates();
      candidate_used.resize(candidates->size(), false);
      for (size_t ci = 0; ci < candidates->size(); ++ci) {
        if (candidate_used[ci]) continue;
        auto& [name, cand] = (*candidates)[ci];
        // Adopt only a candidate nesting inside one current remainder
        // piece; anything straddling a cut is simply recomputed — the
        // coordinator's TileStitcher, which rejects overlaps and gaps,
        // stays the safety net.
        const auto host =
            std::find_if(remainders.begin(), remainders.end(),
                         [&](const TileSpec& r) {
                           return RectContains(r, cand.spec);
                         });
        if (host == remainders.end()) continue;
        const TileSpec hole = *host;
        remainders.erase(host);
        SubtractRect(hole, cand.spec, &remainders);
        candidate_used[ci] = true;
        adopted_any = true;
        plan.loaded.push_back(std::move(cand));
        SweepTelemetry::Get().AddCounter("shard.tiles_adopted", 1);
        if (req.sweep.verbose) {
          std::fprintf(stderr,
                       "  shard: tile %zu partially covered by %s, "
                       "adopted\n",
                       t.shard_id, name.c_str());
        }
      }
    }
    if (!adopted_any) {
      todo.push_back(t);
      continue;
    }
    for (TileSpec r : remainders) {
      r.shard_id = next_shard_id++;
      todo.push_back(r);
    }
  }
  SweepTelemetry::Get().AddCounter("shard.tiles_queued", todo.size());

  // Pull-based dispatch: the pending queue is ordered heaviest-first under
  // the cost model (LPT — the classic makespan heuristic), and every time
  // a worker frees up it pulls the head of the queue. The expensive
  // corner tiles start immediately; the cheap tail fills in around them
  // instead of everyone waiting on a monster tile scheduled last.
  SortTilesHeaviestFirst(&todo, model);
  plan.stats.tiles_total = tiles.value().size();
  plan.stats.tiles_reused = plan.loaded.size();

  // Straggler splitting, decided purely from the cost model before any
  // dispatch (never from mid-run wall-clock observations — reap timing
  // would make the tile set, the stats, and the verbose output depend on
  // scheduling luck): with idle workers guaranteed — fewer pending tiles
  // than workers, the resume-two-damaged-tiles-on-a-big-box shape — any
  // pending tile still holding more than 1.25× a worker's fair share of
  // the pending cost is cut at its cost midpoint, repeatedly, until the
  // heaviest pending tile fits or is a single cell. Tiles are keyed by
  // cell ranges, so the merged bytes cannot change; only the checkpoint
  // granularity does.
  if (num_workers > 1 && !todo.empty() && todo.size() < num_workers) {
    double pending_total = 0;
    for (const TileSpec& t : todo) pending_total += model.TileCost(t);
    const double threshold =
        1.25 * pending_total / static_cast<double>(num_workers);
    while (todo.front().num_points() > 1 &&
           model.TileCost(todo.front()) > threshold) {
      const TileSpec head = todo.front();
      todo.erase(todo.begin());
      auto [a, b] = SplitTileAtCostMidpoint(head, model);
      a.shard_id = next_shard_id++;
      b.shard_id = next_shard_id++;
      for (const TileSpec& child : {a, b}) {
        const double child_cost = model.TileCost(child);
        const auto pos = std::find_if(
            todo.begin(), todo.end(), [&](const TileSpec& u) {
              return model.TileCost(u) < child_cost;
            });
        todo.insert(pos, child);
      }
      ++plan.stats.tiles_split;
      SweepTelemetry::Get().AddCounter("shard.tiles_split", 1);
      if (req.sweep.verbose) {
        std::fprintf(stderr,
                     "  shard: straggler tile %zu split into %zu + %zu\n",
                     head.shard_id, a.shard_id, b.shard_id);
      }
    }
  }

  plan.stats.tiles_computed = todo.size();
  plan.stats.workers_spawned =
      static_cast<unsigned>(std::min<size_t>(num_workers, todo.size()));
  if (req.sweep.verbose && !todo.empty()) {
    std::fprintf(stderr,
                 "  shard: %s study, %zu pending tiles "
                 "(heaviest %.3g, lightest %.3g relative cost)\n",
                 StudyKindName(req.study), todo.size(),
                 model.TileCost(todo.front()), model.TileCost(todo.back()));
  }
  return plan;
}

}  // namespace robustmap
