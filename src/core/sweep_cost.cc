#include "core/sweep_cost.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

#include "core/map_io.h"

namespace robustmap {

namespace {

/// Axis values normalized to [0, 1] relative weights. Selectivity axes are
/// positive and ascending, so v / max is the natural "fraction of rows
/// touched"; a degenerate axis (all equal, or a generic axis straddling
/// zero) normalizes by position in the ordered grid instead, and a
/// single-value axis weighs nothing.
std::vector<double> NormalizedAxis(const std::vector<double>& values) {
  std::vector<double> out(values.size(), 0.0);
  if (values.size() < 2) return out;
  const double lo = values.front();
  const double hi = values.back();
  if (lo > 0 && hi > lo) {
    for (size_t i = 0; i < values.size(); ++i) out[i] = values[i] / hi;
    return out;
  }
  if (hi > lo) {
    for (size_t i = 0; i < values.size(); ++i) {
      out[i] = (values[i] - lo) / (hi - lo);
    }
    return out;
  }
  return out;  // all values equal: no skew to model
}

Status RejectEmpty(const ParameterSpace& space) {
  if (space.num_points() == 0) {
    return Status::InvalidArgument(
        "cannot build a cost model over an empty grid");
  }
  return Status::OK();
}

}  // namespace

Result<CostModelKind> CostModelKindFromString(const std::string& name) {
  if (name == "uniform") return CostModelKind::kUniform;
  if (name == "analytic") return CostModelKind::kAnalytic;
  if (name == "measured") return CostModelKind::kMeasured;
  return Status::InvalidArgument("unknown cost model \"" + name +
                                 "\" (want uniform, analytic, or measured)");
}

const char* CostModelKindName(CostModelKind kind) {
  switch (kind) {
    case CostModelKind::kUniform:
      return "uniform";
    case CostModelKind::kAnalytic:
      return "analytic";
    case CostModelKind::kMeasured:
      return "measured";
  }
  return "?";
}

CellCostModel::CellCostModel(ParameterSpace space, std::vector<double> weights)
    : space_(std::move(space)),
      weights_(std::move(weights)),
      total_(std::accumulate(weights_.begin(), weights_.end(), 0.0)) {}

CellCostModel CellCostModel::WithDiscountedCells(
    const std::vector<uint8_t>& cached) const {
  assert(cached.size() == weights_.size());
  double min_weight = weights_.empty() ? 1.0 : weights_[0];
  for (double w : weights_) min_weight = std::min(min_weight, w);
  // Small enough that a fully-cached tile never outweighs a single real
  // measurement, large enough to keep every weight strictly positive.
  const double discount = min_weight * 1e-6;
  std::vector<double> weights = weights_;
  for (size_t i = 0; i < weights.size() && i < cached.size(); ++i) {
    if (cached[i]) weights[i] = discount;
  }
  return CellCostModel(space_, std::move(weights));
}

Result<CellCostModel> CellCostModel::Uniform(const ParameterSpace& space) {
  RM_RETURN_IF_ERROR(RejectEmpty(space));
  return CellCostModel(space, std::vector<double>(space.num_points(), 1.0));
}

Result<CellCostModel> CellCostModel::Analytic(const ParameterSpace& space) {
  RM_RETURN_IF_ERROR(RejectEmpty(space));
  const std::vector<double> xn = NormalizedAxis(space.x().values);
  const std::vector<double> yn = space.is_2d()
                                     ? NormalizedAxis(space.y().values)
                                     : std::vector<double>(1, 0.0);
  std::vector<double> weights(space.num_points());
  for (size_t yi = 0; yi < space.y_size(); ++yi) {
    for (size_t xi = 0; xi < space.x_size(); ++xi) {
      weights[yi * space.x_size() + xi] =
          0.25 + xn[xi] + yn[yi] + 2.0 * xn[xi] * yn[yi];
    }
  }
  return CellCostModel(space, std::move(weights));
}

Result<CellCostModel> CellCostModel::FromMeasuredTiles(
    const ParameterSpace& space, const std::vector<TileCostRecord>& records) {
  auto prior = Analytic(space);
  RM_RETURN_IF_ERROR(prior.status());

  // Paint each record's mean per-cell density over its rectangle. Records
  // are applied in order, so where rectangles overlap the later (presumed
  // fresher) observation wins.
  std::vector<double> measured(space.num_points(), 0.0);
  std::vector<uint8_t> covered(space.num_points(), 0);
  for (const TileCostRecord& r : records) {
    if (r.seconds <= 0 || r.spec.num_points() == 0) continue;
    if (r.spec.x_end > space.x_size() || r.spec.y_end > space.y_size()) {
      return Status::InvalidArgument(
          "measured tile record lies outside the grid");
    }
    const double density =
        r.seconds / static_cast<double>(r.spec.num_points());
    for (size_t yi = r.spec.y_begin; yi < r.spec.y_end; ++yi) {
      for (size_t xi = r.spec.x_begin; xi < r.spec.x_end; ++xi) {
        measured[yi * space.x_size() + xi] = density;
        covered[yi * space.x_size() + xi] = 1;
      }
    }
  }

  double measured_sum = 0, prior_sum_covered = 0;
  size_t covered_cells = 0;
  for (size_t pt = 0; pt < measured.size(); ++pt) {
    if (covered[pt] == 0) continue;
    ++covered_cells;
    measured_sum += measured[pt];
    const auto [xi, yi] = space.CoordsOf(pt);
    prior_sum_covered += prior.value().CellCost(xi, yi);
  }
  if (covered_cells == 0 || measured_sum <= 0) {
    return prior;  // nothing measured yet: schedule by the prior alone
  }

  // Unmeasured cells fall back to the prior, rescaled so that over the
  // measured cells the prior and the observations agree on the mean —
  // otherwise a half-measured directory would systematically over- or
  // under-weigh the unmeasured half.
  const double scale =
      prior_sum_covered > 0 ? measured_sum / prior_sum_covered : 1.0;
  std::vector<double> weights(space.num_points());
  for (size_t pt = 0; pt < weights.size(); ++pt) {
    const auto [xi, yi] = space.CoordsOf(pt);
    weights[pt] = covered[pt] != 0 ? measured[pt]
                                   : prior.value().CellCost(xi, yi) * scale;
    // Zero-cost cells would let the planner cut zero-width bands; floor at
    // a sliver of the mean measured density instead.
    if (weights[pt] <= 0) {
      weights[pt] =
          1e-6 * measured_sum / static_cast<double>(covered_cells);
    }
  }
  return CellCostModel(space, std::move(weights));
}

double CellCostModel::TileCost(const TileSpec& tile) const {
  double sum = 0;
  for (size_t yi = tile.y_begin; yi < tile.y_end; ++yi) {
    for (size_t xi = tile.x_begin; xi < tile.x_end; ++xi) {
      sum += CellCost(xi, yi);
    }
  }
  return sum;
}

Result<CellCostModel> MeasuredCostModelFromDir(
    const std::string& tile_dir, const ParameterSpace& space,
    std::map<std::string, MapTile>* tiles_out) {
  std::vector<TileCostRecord> records;
  for (const std::string& name : SortedTileFiles(tile_dir)) {
    const std::string path = tile_dir + "/" + name;
    auto tile = ReadMapTileFile(path);
    if (!tile.ok()) continue;  // damaged or foreign file: no signal
    if (!(tile.value().parent_space == space)) continue;
    if (tile.value().wall_seconds > 0) {
      records.push_back(
          TileCostRecord{tile.value().spec, tile.value().wall_seconds});
    }
    if (tiles_out != nullptr) {
      tiles_out->emplace(path, std::move(tile).value());
    }
  }
  return CellCostModel::FromMeasuredTiles(space, records);
}

void SortTilesHeaviestFirst(std::vector<TileSpec>* tiles,
                            const CellCostModel& model) {
  std::stable_sort(tiles->begin(), tiles->end(),
                   [&](const TileSpec& a, const TileSpec& b) {
                     return model.TileCost(a) > model.TileCost(b);
                   });
}

}  // namespace robustmap
