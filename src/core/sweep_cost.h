#ifndef ROBUSTMAP_CORE_SWEEP_COST_H_
#define ROBUSTMAP_CORE_SWEEP_COST_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/parameter_space.h"

namespace robustmap {

/// Relative cost of every cell of a sweep grid, the one currency all
/// scheduling layers trade in: the shard planner sizes tiles by it, the
/// coordinator dispatches the heaviest pending tile first, and
/// the parallel cell loop batches cells into equal-cost blocks. Weights are
/// relative — only ratios matter — and strictly positive, so every tile and
/// block has nonzero cost and weighted partitions can never produce an
/// empty band.
class CellCostModel {
 public:
  /// The grid-position prior: cell cost rises with the normalized axis
  /// values (selectivity sweeps touch more rows toward 1.0, and joint
  /// high-selectivity corners pay both predicates), floored well above
  /// zero because constant-cost plans (table scan) run in every cell:
  ///
  ///   weight = 1/4 + xn + yn + 2 * xn * yn,  xn = x / max(x), etc.
  ///
  /// On a geometric selectivity axis the top octave therefore outweighs
  /// the entire tail — exactly the skew ROADMAP observed.
  static Result<CellCostModel> Analytic(const ParameterSpace& space);

  double CellCost(size_t xi, size_t yi) const {
    return weights_[yi * space_.x_size() + xi];
  }

  /// A copy of this model with the flagged cells (row-major, same layout
  /// as the weights) costed at a vanishing fraction of the cheapest cell:
  /// how a cache-aware coordinator tells the planner "these cells are
  /// free — a hit, not a measurement" while preserving the all-positive
  /// invariant weighted partitioning relies on. `cached.size()` must be
  /// `space().num_points()`.
  CellCostModel WithDiscountedCells(const std::vector<uint8_t>& cached) const;
  double TileCost(const TileSpec& tile) const;
  double TotalCost() const { return total_; }
  const ParameterSpace& space() const { return space_; }

 private:
  CellCostModel(ParameterSpace space, std::vector<double> weights);

  ParameterSpace space_;
  std::vector<double> weights_;  ///< row-major [yi * x_size + xi], all > 0
  double total_ = 0;
};

/// Reorders tiles heaviest-first under `model` (stable, so equal-cost
/// tiles keep their snake adjacency) — the LPT dispatch order that lets a
/// pull-based worker queue finish its big rocks before its sand.
void SortTilesHeaviestFirst(std::vector<TileSpec>* tiles,
                            const CellCostModel& model);

}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_SWEEP_COST_H_
