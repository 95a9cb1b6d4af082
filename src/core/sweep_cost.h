#ifndef ROBUSTMAP_CORE_SWEEP_COST_H_
#define ROBUSTMAP_CORE_SWEEP_COST_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/map_io.h"
#include "core/parameter_space.h"

namespace robustmap {

/// How a sweep estimates per-cell cost for scheduling. Cost never changes
/// *what* is measured — every cell is still an independent cold
/// measurement — only how cells are grouped into tiles / blocks and the
/// order workers pick them up.
enum class CostModelKind {
  kUniform,   ///< every cell costs the same (the pre-cost-layer behavior)
  kAnalytic,  ///< grid-position prior: cost grows with the axis values
  kMeasured,  ///< rebuilt from per-tile wall times recorded on disk,
              ///< falling back to the analytic prior where unmeasured
};

/// "uniform" / "analytic" / "measured" — the spelling of the
/// REPRO_COST_MODEL knob and the --cost-model flag.
Result<CostModelKind> CostModelKindFromString(const std::string& name);
const char* CostModelKindName(CostModelKind kind);

/// One prior observation for the measured model: a tile rectangle and the
/// wall-clock seconds its sweep took (from v2 tile metadata).
struct TileCostRecord {
  TileSpec spec;
  double seconds = 0;
};

/// Relative cost of every cell of a sweep grid, the one currency all
/// scheduling layers trade in: the shard planner sizes tiles by it, the
/// coordinator dispatches the heaviest pending tile first, and
/// the parallel cell loop batches cells into equal-cost blocks. Weights are
/// relative — only ratios matter — and strictly positive, so every tile and
/// block has nonzero cost and weighted partitions can never produce an
/// empty band.
class CellCostModel {
 public:
  /// Every cell weighs 1 — reproduces uniform tiles exactly.
  static Result<CellCostModel> Uniform(const ParameterSpace& space);

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

  /// The measured model: each record's seconds are spread evenly over its
  /// rectangle's cells (later records overwrite earlier ones where they
  /// overlap). Cells no record covers fall back to the analytic prior,
  /// rescaled so its mean over the *measured* cells matches the measured
  /// mean — the two regimes stay in one currency. With no usable records
  /// this is exactly `Analytic(space)`.
  static Result<CellCostModel> FromMeasuredTiles(
      const ParameterSpace& space, const std::vector<TileCostRecord>& records);

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

/// Builds the measured model from the tile files of a prior sweep: every
/// `*.rmt` in `tile_dir` that parses, describes `space`, and carries a
/// positive wall time becomes a record (anything else — other grids,
/// unreadable files, merged full-grid artifacts written with
/// wall_seconds = 0 — is skipped). An unreadable or empty directory is not
/// an error: the result is then the pure analytic prior, which is exactly
/// what a first-ever run should schedule by.
///
/// With `tiles_out` set, every tile of `space` the scan parsed (timed or
/// not) is also moved out, keyed by path, so a resuming caller can
/// validate checkpoints against the bytes already read instead of reading
/// and checksumming every file a second time.
Result<CellCostModel> MeasuredCostModelFromDir(
    const std::string& tile_dir, const ParameterSpace& space,
    std::map<std::string, MapTile>* tiles_out = nullptr);

/// Reorders tiles heaviest-first under `model` (stable, so equal-cost
/// tiles keep their snake adjacency) — the LPT dispatch order that lets a
/// pull-based worker queue finish its big rocks before its sand.
void SortTilesHeaviestFirst(std::vector<TileSpec>* tiles,
                            const CellCostModel& model);

}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_SWEEP_COST_H_
