#ifndef ROBUSTMAP_CORE_PARAMETER_SPACE_H_
#define ROBUSTMAP_CORE_PARAMETER_SPACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace robustmap {

/// One run-time-condition axis of a robustness map (e.g. a predicate's
/// selectivity, or work memory).
struct Axis {
  std::string name;
  std::vector<double> values;  ///< ascending

  /// Log₂ selectivity grid 2^min_log2 .. 2^max_log2, one point per power of
  /// two — the paper's "result sizes differ by a factor of 2 between data
  /// points".
  static Axis Selectivity(const std::string& name, int min_log2,
                          int max_log2);

  /// Geometric grid with `steps_per_octave` points per factor of two.
  static Axis SelectivityFine(const std::string& name, int min_log2,
                              int max_log2, int steps_per_octave);

  size_t size() const { return values.size(); }

  bool operator==(const Axis&) const = default;
};

/// A 1-D or 2-D parameter space — "the human limit to three-dimensional
/// perception and the one dimension required for performance restrict
/// effective visualizations to two-dimensional parameter spaces" (§3).
class ParameterSpace {
 public:
  static ParameterSpace OneD(Axis x);
  static ParameterSpace TwoD(Axis x, Axis y);

  bool is_2d() const { return is_2d_; }
  const Axis& x() const { return x_; }
  const Axis& y() const { return y_; }

  size_t x_size() const { return x_.size(); }
  size_t y_size() const { return is_2d_ ? y_.size() : 1; }
  size_t num_points() const { return x_size() * y_size(); }

  /// Row-major linearization: index = yi * x_size + xi.
  size_t IndexOf(size_t xi, size_t yi) const { return yi * x_size() + xi; }
  std::pair<size_t, size_t> CoordsOf(size_t index) const {
    return {index % x_size(), index / x_size()};
  }

  double x_value(size_t index) const {
    return x_.values[CoordsOf(index).first];
  }
  /// Returns -1 for 1-D spaces (the second parameter is absent).
  double y_value(size_t index) const {
    return is_2d_ ? y_.values[CoordsOf(index).second] : -1.0;
  }

  /// Same dimensionality, axis names, and grid values — the precondition
  /// for comparing two maps cell by cell (delta maps, warm/cold CSVs).
  bool operator==(const ParameterSpace&) const = default;

 private:
  bool is_2d_ = false;
  Axis x_;
  Axis y_;
};

/// The stride-k sublattice of `space`: every axis keeps the values at
/// indices 0, k, 2k, ... (names unchanged). A progressive sweep measures
/// these coarse lattices first; because the sublattice carries the *same
/// axis values* as the full grid, its cells fingerprint identically to the
/// full grid's and every coarse measurement is reusable at every finer
/// level. `stride == 1` returns `space` unchanged; the first value of each
/// axis is always kept, so the result is never empty.
ParameterSpace SubsampleSpace(const ParameterSpace& space, size_t stride);

/// One rectangular tile of a sweep grid: the half-open cell ranges
/// [x_begin, x_end) × [y_begin, y_end) in *grid indices* of the parent
/// space. A tile covers every plan over its rectangle — sharding splits the
/// grid, never the plan list, so each tile file is a complete miniature map
/// and merging is a pure copy.
struct TileSpec {
  size_t shard_id = 0;  ///< stable for a given (space, max_tiles) pair
  size_t x_begin = 0;
  size_t x_end = 0;
  size_t y_begin = 0;
  size_t y_end = 0;  ///< {0, 1} for 1-D spaces

  size_t x_size() const { return x_end - x_begin; }
  size_t y_size() const { return y_end - y_begin; }
  size_t num_points() const { return x_size() * y_size(); }

  bool operator==(const TileSpec&) const = default;
};

/// The sub-space a tile sweeps: the parent's axes restricted to the tile's
/// index ranges (axis names preserved, 1-D stays 1-D). Rejects rectangles
/// that are empty or fall outside the parent grid.
Result<ParameterSpace> SliceSpace(const ParameterSpace& parent,
                                  const TileSpec& tile);

/// The "X0:X1:Y0:Y1" rectangle spelling of a tile request line
/// (half-open grid-index ranges). One formatter and one parser, shared by
/// the coordinator that writes requests and the worker that reads them, so
/// the two can never drift on the grammar.
std::string RectSpecString(const TileSpec& tile);

/// Parses a rect spec into the four rectangle fields of `*tile` (the
/// shard id is untouched). Returns false — leaving `*tile` unspecified —
/// for anything that is not exactly four ':'-separated non-negative
/// integers. Range validation against a concrete grid is `SliceSpace`'s
/// job, not the parser's.
bool ParseRectSpec(const std::string& raw, TileSpec* tile);

}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_PARAMETER_SPACE_H_
