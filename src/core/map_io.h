#ifndef ROBUSTMAP_CORE_MAP_IO_H_
#define ROBUSTMAP_CORE_MAP_IO_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/robustness_map.h"
#include "core/parameter_space.h"

namespace robustmap {

/// Current version of the binary tile format. Readers accept this version
/// only and reject any other outright as `NotSupported`: the format
/// carries measured data between processes (and potentially machines), so
/// silent misinterpretation is never an acceptable failure mode. A resuming
/// sweep recomputes a tile of another version like any other invalid tile.
inline constexpr uint32_t kMapTileFormatVersion = 4;

/// One serialized unit of a sharded sweep: one `RobustnessMap` per study
/// output layer over a rectangular slice of a parent grid, together with
/// everything a coordinator needs to validate and merge it — the full
/// parent space, the tile rectangle, and the plan labels. A plain map is
/// the single-layer case; a warm-cold study's tiles carry three layers
/// (cold, warm, delta) over the same rectangle and plan set. A tile whose
/// rectangle covers the whole parent grid doubles as the serialized form
/// of a complete map.
struct MapTile {
  TileSpec spec;
  ParameterSpace parent_space;  ///< the grid the tile is a slice of
  RobustnessMap map;            ///< layer 0 over SliceSpace(parent_space, spec)

  /// Wall-clock seconds the sweep that produced this tile took; 0 when
  /// unknown (an artifact that was merged rather than measured).
  /// Observability metadata only: it never participates in bit-identity
  /// comparisons of the *map*, and merged/reference artifacts write 0 so
  /// equal maps still serialize to equal bytes.
  double wall_seconds = 0;

  /// Layer names, one per layer when non-empty (e.g. {"cold", "warm",
  /// "delta"}). May only be empty for single-layer tiles: the plain map,
  /// whose one layer is written with the name "".
  std::vector<std::string> layer_names{};

  /// Layers beyond `map`, in study order; every layer must cover the same
  /// slice with the same plan labels as `map`.
  std::vector<RobustnessMap> extra_layers{};

  size_t num_layers() const { return 1 + extra_layers.size(); }
  const RobustnessMap& layer(size_t i) const {
    return i == 0 ? map : extra_layers[i - 1];
  }
  RobustnessMap& layer(size_t i) {
    return i == 0 ? map : extra_layers[i - 1];
  }
  /// The name of layer `i`; "" when this tile carries no names.
  std::string layer_name(size_t i) const {
    return i < layer_names.size() ? layer_names[i] : std::string();
  }
};

/// Serializes a tile. The on-disk layout is:
///
///   magic "RMAPTILE" | u32 version | f64 wall_seconds | u64 layer_count
///   | u64 shard_id, x_begin, x_end, y_begin, y_end, is_2d
///   | axes (name, u64 count, values) | u64 plan count + plan labels
///   | one name per layer
///   | cells: per layer, per plan, per point, one 72-byte measurement
///   | u64 FNV-1a checksum over everything before it
///
/// All integers little-endian, doubles as IEEE-754 bit patterns, strings
/// length-prefixed — fully deterministic, so equal tiles serialize to equal
/// bytes (the CI byte-for-byte diff relies on this). A plan's label is
/// written once, in the header; a cell is only its measured values. The
/// one layer of an unnamed single-layer tile is named "". Rejects tiles
/// whose layers disagree with each other or whose map space is not the
/// slice of `parent_space` at `spec`, and multi-layer tiles without one
/// name per layer.
Result<std::string> EncodeMapTile(const MapTile& tile);

/// `EncodeMapTile`, written to `os`.
Status WriteMapTile(std::ostream& os, const MapTile& tile);

/// Writes atomically: to `path` + a ".tmp" suffix, then rename(2), so a
/// crash mid-write never leaves a plausible-looking partial tile behind.
Status WriteMapTileFile(const std::string& path, const MapTile& tile);

/// Deserializes a tile from the whole of its bytes, with distinct errors
/// for the three failure modes: not-a-tile / truncated file and checksum
/// mismatch are `Corruption` (saying which), an unknown format version is
/// `NotSupported`. The one decoder; `ReadMapTileFile` prefixes its errors
/// with the path.
Result<MapTile> ParseMapTile(std::string_view bytes);
Result<MapTile> ReadMapTileFile(const std::string& path);

/// The `.rmt` file names in `dir`, sorted (empty when `dir` cannot be
/// read). readdir order is filesystem-dependent; every decision made from
/// a directory scan must come from the sorted list, so a given directory
/// state always yields the same shard plan.
std::vector<std::string> SortedTileFiles(const std::string& dir);

/// Reassembles a full map per layer from tiles added one at a time, in
/// any order — the one merge implementation. Every tile must sweep the
/// stitcher's grid, carry its plan labels and its layers (one per name in
/// `layer_names`, or a single unnamed one when it is empty), lie inside
/// the grid, and cover no point another tile already covered; once every
/// tile is in, the rectangles must cover every point. Any gap, overlap,
/// or axis/layer disagreement is an `InvalidArgument`. Each merged layer
/// is a pure cell copy, so it is bit-identical to the map a single sweep
/// of the parent grid would have produced for that layer.
class TileStitcher {
 public:
  TileStitcher(ParameterSpace space, std::vector<std::string> plan_labels,
               std::vector<std::string> layer_names);

  /// Checks `tile` and moves its cells into the output maps; a rejected
  /// tile changes nothing. The output maps are allocated by the first
  /// call, so a caller that forks can create them after its children.
  Status Add(MapTile&& tile);

  /// The merged layers, or the first uncovered grid point (row-major).
  Result<std::vector<RobustnessMap>> Finish() &&;

 private:
  void Allocate();

  const ParameterSpace space_;
  const std::vector<std::string> plan_labels_;
  const std::vector<std::string> layer_names_;
  const size_t num_layers_;
  std::vector<RobustnessMap> merged_;  ///< empty until the first tile
  std::vector<uint8_t> covered_;       ///< [point], 1 once stitched
};

}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_MAP_IO_H_
