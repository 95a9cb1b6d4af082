#ifndef ROBUSTMAP_COMMON_MATH_UTIL_H_
#define ROBUSTMAP_COMMON_MATH_UTIL_H_

#include <vector>

namespace robustmap {

/// Builds a geometric grid of selectivities 2^min_log2 .. 2^max_log2
/// (inclusive), one point per power of two. Used for the paper's log-scale
/// parameter axes ("result sizes differ by a factor of 2 between data
/// points"). min_log2 <= max_log2 <= 0.
std::vector<double> Log2Grid(int min_log2, int max_log2);

/// Geometric grid with `steps_per_octave` points per factor-of-two.
std::vector<double> Log2GridFine(int min_log2, int max_log2,
                                 int steps_per_octave);

/// Geometric mean of a non-empty vector of positive values.
double GeometricMean(const std::vector<double>& values);

}  // namespace robustmap

#endif  // ROBUSTMAP_COMMON_MATH_UTIL_H_
