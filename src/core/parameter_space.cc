#include "core/parameter_space.h"

#include <cassert>
#include <cstdlib>
#include <utility>

#include "common/math_util.h"

namespace robustmap {

Axis Axis::Selectivity(const std::string& name, int min_log2, int max_log2) {
  return Axis{name, Log2Grid(min_log2, max_log2)};
}

Axis Axis::SelectivityFine(const std::string& name, int min_log2,
                           int max_log2, int steps_per_octave) {
  return Axis{name, Log2GridFine(min_log2, max_log2, steps_per_octave)};
}

ParameterSpace ParameterSpace::OneD(Axis x) {
  assert(!x.values.empty());
  ParameterSpace s;
  s.is_2d_ = false;
  s.x_ = std::move(x);
  return s;
}

ParameterSpace ParameterSpace::TwoD(Axis x, Axis y) {
  assert(!x.values.empty() && !y.values.empty());
  ParameterSpace s;
  s.is_2d_ = true;
  s.x_ = std::move(x);
  s.y_ = std::move(y);
  return s;
}

namespace {

Axis SubsampleAxis(const Axis& axis, size_t stride) {
  Axis out;
  out.name = axis.name;
  for (size_t i = 0; i < axis.values.size(); i += stride) {
    out.values.push_back(axis.values[i]);
  }
  return out;
}

}  // namespace

ParameterSpace SubsampleSpace(const ParameterSpace& space, size_t stride) {
  assert(stride >= 1);
  if (stride <= 1) return space;
  if (!space.is_2d()) {
    return ParameterSpace::OneD(SubsampleAxis(space.x(), stride));
  }
  return ParameterSpace::TwoD(SubsampleAxis(space.x(), stride),
                              SubsampleAxis(space.y(), stride));
}

Result<ParameterSpace> SliceSpace(const ParameterSpace& parent,
                                  const TileSpec& tile) {
  if (tile.x_begin >= tile.x_end || tile.y_begin >= tile.y_end ||
      tile.x_end > parent.x_size() || tile.y_end > parent.y_size()) {
    return Status::InvalidArgument(
        "tile rectangle [" + std::to_string(tile.x_begin) + "," +
        std::to_string(tile.x_end) + ")x[" + std::to_string(tile.y_begin) +
        "," + std::to_string(tile.y_end) + ") is empty or outside the " +
        std::to_string(parent.x_size()) + "x" +
        std::to_string(parent.y_size()) + " grid");
  }
  Axis x;
  x.name = parent.x().name;
  x.values.assign(parent.x().values.begin() + tile.x_begin,
                  parent.x().values.begin() + tile.x_end);
  if (!parent.is_2d()) {
    return ParameterSpace::OneD(std::move(x));
  }
  Axis y;
  y.name = parent.y().name;
  y.values.assign(parent.y().values.begin() + tile.y_begin,
                  parent.y().values.begin() + tile.y_end);
  return ParameterSpace::TwoD(std::move(x), std::move(y));
}

std::string RectSpecString(const TileSpec& tile) {
  return std::to_string(tile.x_begin) + ":" + std::to_string(tile.x_end) +
         ":" + std::to_string(tile.y_begin) + ":" +
         std::to_string(tile.y_end);
}

bool ParseRectSpec(const std::string& raw, TileSpec* tile) {
  size_t* fields[4] = {&tile->x_begin, &tile->x_end, &tile->y_begin,
                       &tile->y_end};
  size_t pos = 0;
  for (int f = 0; f < 4; ++f) {
    const size_t colon = raw.find(':', pos);
    const std::string part = raw.substr(
        pos, colon == std::string::npos ? std::string::npos : colon - pos);
    char* end = nullptr;
    const unsigned long long v = std::strtoull(part.c_str(), &end, 10);
    if (part.empty() || end == part.c_str() || *end != '\0') return false;
    *fields[f] = static_cast<size_t>(v);
    if (f < 3) {
      if (colon == std::string::npos) return false;
      pos = colon + 1;
    } else if (colon != std::string::npos) {
      return false;  // trailing fifth field
    }
  }
  return true;
}

}  // namespace robustmap
