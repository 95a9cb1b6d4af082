#include "common/math_util.h"

#include <cassert>
#include <cmath>

namespace robustmap {

std::vector<double> Log2Grid(int min_log2, int max_log2) {
  return Log2GridFine(min_log2, max_log2, 1);
}

std::vector<double> Log2GridFine(int min_log2, int max_log2,
                                 int steps_per_octave) {
  assert(min_log2 <= max_log2);
  assert(steps_per_octave >= 1);
  std::vector<double> grid;
  int total_steps = (max_log2 - min_log2) * steps_per_octave;
  grid.reserve(static_cast<size_t>(total_steps) + 1);
  for (int i = 0; i <= total_steps; ++i) {
    double exponent = min_log2 + static_cast<double>(i) /
                                     static_cast<double>(steps_per_octave);
    grid.push_back(std::exp2(exponent));
  }
  return grid;
}

double GeometricMean(const std::vector<double>& values) {
  assert(!values.empty());
  double log_sum = 0;
  for (double v : values) {
    assert(v > 0);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace robustmap
