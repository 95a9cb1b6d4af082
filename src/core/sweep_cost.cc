#include "core/sweep_cost.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

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

}  // namespace

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

Result<CellCostModel> CellCostModel::Analytic(const ParameterSpace& space) {
  if (space.num_points() == 0) {
    return Status::InvalidArgument(
        "cannot build a cost model over an empty grid");
  }
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

double CellCostModel::TileCost(const TileSpec& tile) const {
  double sum = 0;
  for (size_t yi = tile.y_begin; yi < tile.y_end; ++yi) {
    for (size_t xi = tile.x_begin; xi < tile.x_end; ++xi) {
      sum += CellCost(xi, yi);
    }
  }
  return sum;
}

void SortTilesHeaviestFirst(std::vector<TileSpec>* tiles,
                            const CellCostModel& model) {
  std::stable_sort(tiles->begin(), tiles->end(),
                   [&](const TileSpec& a, const TileSpec& b) {
                     return model.TileCost(a) > model.TileCost(b);
                   });
}

}  // namespace robustmap
