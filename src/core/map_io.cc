#include "core/map_io.h"

#include <dirent.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <ostream>
#include <utility>

#include "core/wire_format.h"

namespace robustmap {

namespace {

using wire::Cursor;
using wire::Fnv1a64;
using wire::GetMeasurement;
using wire::kMeasurementFixedBytes;
using wire::MeasurementBytes;
using wire::PutDouble;
using wire::PutString;
using wire::PutU32;
using wire::PutU64;
using wire::StoreMeasurement;
using wire::StoreString;
using wire::StringBytes;

constexpr char kMagic[8] = {'R', 'M', 'A', 'P', 'T', 'I', 'L', 'E'};
constexpr size_t kMagicSize = sizeof(kMagic);
constexpr size_t kVersionOffset = kMagicSize;
constexpr size_t kChecksumSize = sizeof(uint64_t);
// Magic + version + trailing checksum: the least any tile file can be.
constexpr size_t kMinFileSize = kMagicSize + sizeof(uint32_t) + kChecksumSize;

// The artifact name Cursor errors lead with ("truncated map tile: ...").
constexpr char kWhat[] = "map tile";

size_t AxisBytes(const Axis& axis) {
  return StringBytes(axis.name) + sizeof(uint64_t) +
         axis.values.size() * sizeof(double);
}

void PutAxis(std::string* out, const Axis& axis) {
  PutString(out, axis.name);
  PutU64(out, axis.values.size());
  for (double v : axis.values) PutDouble(out, v);
}

Status GetAxis(Cursor* c, Axis* axis) {
  RM_RETURN_IF_ERROR(c->GetString(&axis->name));
  uint64_t n = 0;
  RM_RETURN_IF_ERROR(c->GetU64(&n));
  // Bound the count by the bytes that could back it *before* allocating:
  // a damaged (but checksum-valid, i.e. crafted) count must surface as
  // Corruption, not as a multi-terabyte resize throwing bad_alloc.
  if (n > c->remaining() / sizeof(uint64_t)) {
    return Status::Corruption("map tile axis claims " + std::to_string(n) +
                              " values but only " +
                              std::to_string(c->remaining()) +
                              " bytes remain");
  }
  axis->values.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    RM_RETURN_IF_ERROR(c->GetDouble(&axis->values[i]));
  }
  return Status::OK();
}

}  // namespace

/// The one tile encoder: validates the tile and returns its bytes.
Result<std::string> EncodeMapTile(const MapTile& tile) {
  auto expected = SliceSpace(tile.parent_space, tile.spec);
  RM_RETURN_IF_ERROR(expected.status());
  if (!(tile.map.space() == expected.value())) {
    return Status::InvalidArgument(
        "tile map's space is not the slice of the parent grid its spec "
        "names");
  }
  for (const RobustnessMap& extra : tile.extra_layers) {
    if (!(extra.space() == tile.map.space()) ||
        extra.plan_labels() != tile.map.plan_labels()) {
      return Status::InvalidArgument(
          "every tile layer must cover the same slice with the same plan "
          "labels as layer 0");
    }
  }
  const size_t num_layers = tile.num_layers();
  // Multi-layer tiles must be self-describing (one name per layer, the
  // merge keys on them); a single unnamed layer is the classic plain tile
  // and stays on the v2 byte stream so artifacts remain byte-comparable.
  const bool v3 = num_layers > 1 || !tile.layer_names.empty();
  if (v3 && tile.layer_names.size() != num_layers) {
    return Status::InvalidArgument(
        "multi-layer tile needs one name per layer (have " +
        std::to_string(tile.layer_names.size()) + " names for " +
        std::to_string(num_layers) + " layers)");
  }

  // Sized once: the header is appended into the reserved buffer, then the
  // cells are stored straight into the rest of it.
  size_t header_bytes = kMagicSize + sizeof(uint32_t) + sizeof(double) +
                        (v3 ? sizeof(uint64_t) : 0) + 7 * sizeof(uint64_t) +
                        AxisBytes(tile.parent_space.x());
  if (tile.parent_space.is_2d()) {
    header_bytes += AxisBytes(tile.parent_space.y());
  }
  for (const std::string& label : tile.map.plan_labels()) {
    header_bytes += StringBytes(label);
  }
  size_t body_bytes = 0;
  for (size_t li = 0; li < num_layers; ++li) {
    if (v3) body_bytes += StringBytes(tile.layer_names[li]);
    const RobustnessMap& layer = tile.layer(li);
    for (size_t plan = 0; plan < layer.num_plans(); ++plan) {
      for (size_t pt = 0; pt < layer.space().num_points(); ++pt) {
        body_bytes += MeasurementBytes(layer.At(plan, pt));
      }
    }
  }

  std::string buf;
  buf.reserve(header_bytes + body_bytes + kChecksumSize);
  buf.append(kMagic, kMagicSize);
  PutU32(&buf, v3 ? 3 : 2);
  PutDouble(&buf, tile.wall_seconds);
  if (v3) PutU64(&buf, num_layers);
  PutU64(&buf, tile.spec.shard_id);
  PutU64(&buf, tile.spec.x_begin);
  PutU64(&buf, tile.spec.x_end);
  PutU64(&buf, tile.spec.y_begin);
  PutU64(&buf, tile.spec.y_end);
  PutU64(&buf, tile.parent_space.is_2d() ? 1 : 0);
  PutAxis(&buf, tile.parent_space.x());
  if (tile.parent_space.is_2d()) PutAxis(&buf, tile.parent_space.y());
  PutU64(&buf, tile.map.num_plans());
  for (const std::string& label : tile.map.plan_labels()) {
    PutString(&buf, label);
  }
  buf.resize(header_bytes + body_bytes);
  char* p = buf.data() + header_bytes;
  for (size_t li = 0; li < num_layers; ++li) {
    if (v3) p = StoreString(p, tile.layer_names[li]);
    const RobustnessMap& layer = tile.layer(li);
    for (size_t plan = 0; plan < layer.num_plans(); ++plan) {
      for (size_t pt = 0; pt < layer.space().num_points(); ++pt) {
        p = StoreMeasurement(p, layer.At(plan, pt));
      }
    }
  }
  PutU64(&buf, Fnv1a64(buf.data(), buf.size()));
  return buf;
}

Status WriteMapTile(std::ostream& os, const MapTile& tile) {
  auto buf = EncodeMapTile(tile);
  RM_RETURN_IF_ERROR(buf.status());
  os.write(buf.value().data(),
           static_cast<std::streamsize>(buf.value().size()));
  if (!os.good()) return Status::Internal("map tile write failed");
  return Status::OK();
}

Status WriteMapTileFile(const std::string& path, const MapTile& tile) {
  // Readers (and resuming coordinators) only ever see either no tile or a
  // complete one.
  auto buf = EncodeMapTile(tile);
  RM_RETURN_IF_ERROR(buf.status());
  return wire::WriteFileAtomically(path, buf.value(), kWhat);
}

Result<MapTile> ParseMapTile(std::string_view buf) {
  if (buf.size() < kMinFileSize) {
    return Status::Corruption("truncated map tile: " +
                              std::to_string(buf.size()) +
                              " bytes is smaller than any valid tile");
  }
  if (std::memcmp(buf.data(), kMagic, kMagicSize) != 0) {
    return Status::Corruption("not a map tile (bad magic)");
  }
  // Version gates everything else: an unknown version may checksum or lay
  // out its payload differently, so it is the one error reported before the
  // integrity check.
  Cursor header(buf.data() + kVersionOffset, buf.size() - kVersionOffset,
                kWhat);
  uint32_t version = 0;
  RM_RETURN_IF_ERROR(header.GetU32(&version));
  if (version < kMinReadableMapTileFormatVersion ||
      version > kMapTileFormatVersion) {
    return Status::NotSupported(
        "map tile format version " + std::to_string(version) +
        " (this build reads versions " +
        std::to_string(kMinReadableMapTileFormatVersion) + ".." +
        std::to_string(kMapTileFormatVersion) + ")");
  }
  const size_t payload_size = buf.size() - kChecksumSize;
  Cursor trailer(buf.data() + payload_size, kChecksumSize, kWhat);
  uint64_t stored = 0;
  RM_RETURN_IF_ERROR(trailer.GetU64(&stored));
  const uint64_t computed = Fnv1a64(buf.data(), payload_size);
  if (stored != computed) {
    return Status::Corruption("map tile checksum mismatch (file damaged or "
                              "cut short)");
  }

  Cursor c(buf.data() + kVersionOffset + sizeof(uint32_t),
           payload_size - kVersionOffset - sizeof(uint32_t), kWhat);
  // The tile sweep's wall time follows the version. v3 adds the layer
  // count; v2 is by definition single-layer.
  double wall_seconds = 0;
  RM_RETURN_IF_ERROR(c.GetDouble(&wall_seconds));
  uint64_t num_layers = 1;
  if (version >= 3) {
    RM_RETURN_IF_ERROR(c.GetU64(&num_layers));
    // Each layer needs at least a name length and one cell; bound the
    // count by the bytes that could back it before it sizes anything.
    if (num_layers == 0 || num_layers > c.remaining() / sizeof(uint32_t)) {
      return Status::Corruption("map tile claims " +
                                std::to_string(num_layers) +
                                " layers but only " +
                                std::to_string(c.remaining()) +
                                " bytes remain");
    }
  }
  TileSpec spec;
  uint64_t v = 0;
  RM_RETURN_IF_ERROR(c.GetU64(&v));
  spec.shard_id = v;
  RM_RETURN_IF_ERROR(c.GetU64(&v));
  spec.x_begin = v;
  RM_RETURN_IF_ERROR(c.GetU64(&v));
  spec.x_end = v;
  RM_RETURN_IF_ERROR(c.GetU64(&v));
  spec.y_begin = v;
  RM_RETURN_IF_ERROR(c.GetU64(&v));
  spec.y_end = v;
  uint64_t is_2d = 0;
  RM_RETURN_IF_ERROR(c.GetU64(&is_2d));
  Axis x;
  RM_RETURN_IF_ERROR(GetAxis(&c, &x));
  ParameterSpace parent;
  if (is_2d != 0) {
    Axis y;
    RM_RETURN_IF_ERROR(GetAxis(&c, &y));
    parent = ParameterSpace::TwoD(std::move(x), std::move(y));
  } else {
    parent = ParameterSpace::OneD(std::move(x));
  }
  auto sub = SliceSpace(parent, spec);
  if (!sub.ok()) {
    return Status::Corruption("map tile rectangle inconsistent with its "
                              "axes: " + sub.status().message());
  }
  uint64_t num_plans = 0;
  RM_RETURN_IF_ERROR(c.GetU64(&num_plans));
  if (num_plans > c.remaining() / sizeof(uint32_t)) {
    return Status::Corruption("map tile claims " +
                              std::to_string(num_plans) +
                              " plans but only " +
                              std::to_string(c.remaining()) +
                              " bytes remain");
  }
  std::vector<std::string> labels(num_plans);
  for (uint64_t i = 0; i < num_plans; ++i) {
    RM_RETURN_IF_ERROR(c.GetString(&labels[i]));
  }
  // Every cell occupies at least its measurement's fixed part; reject
  // plan x point x layer products the remaining bytes cannot possibly back
  // before sizing the maps (divisions, so the product cannot overflow).
  const size_t points = sub.value().num_points();
  const size_t max_cells = c.remaining() / kMeasurementFixedBytes;
  if (num_plans != 0 && max_cells / num_plans / num_layers < points) {
    return Status::Corruption(
        "map tile claims more cells than its bytes can hold");
  }
  std::vector<std::string> layer_names;
  std::vector<RobustnessMap> layers;
  layers.reserve(num_layers);
  for (uint64_t li = 0; li < num_layers; ++li) {
    if (version >= 3) {
      std::string name;
      RM_RETURN_IF_ERROR(c.GetString(&name));
      layer_names.push_back(std::move(name));
    }
    RobustnessMap layer(sub.value(), labels);
    for (size_t plan = 0; plan < layer.num_plans(); ++plan) {
      for (size_t pt = 0; pt < layer.space().num_points(); ++pt) {
        Measurement m;
        RM_RETURN_IF_ERROR(GetMeasurement(&c, &m));
        layer.Set(plan, pt, std::move(m));
      }
    }
    layers.push_back(std::move(layer));
  }
  if (c.remaining() != 0) {
    return Status::Corruption("map tile has " +
                              std::to_string(c.remaining()) +
                              " trailing bytes past its declared cells");
  }
  MapTile tile{spec, std::move(parent), std::move(layers.front()),
               wall_seconds};
  tile.layer_names = std::move(layer_names);
  tile.extra_layers.assign(std::make_move_iterator(layers.begin() + 1),
                           std::make_move_iterator(layers.end()));
  return tile;
}

Result<MapTile> ReadMapTileFile(const std::string& path) {
  std::string buf;
  RM_RETURN_IF_ERROR(wire::ReadFileBytes(path, kWhat, &buf));
  auto tile = ParseMapTile(buf);
  if (!tile.ok()) {
    if (tile.status().IsNotSupported()) {
      return Status::NotSupported(path + ": " + tile.status().message());
    }
    return Status::Corruption(path + ": " + tile.status().message());
  }
  return tile;
}

std::vector<std::string> SortedTileFiles(const std::string& dir) {
  std::vector<std::string> names;
  if (DIR* d = ::opendir(dir.c_str()); d != nullptr) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name.size() > 4 && name.rfind(".rmt") == name.size() - 4) {
        names.push_back(name);
      }
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
  }
  return names;
}

TileStitcher::TileStitcher(ParameterSpace space,
                           std::vector<std::string> plan_labels,
                           std::vector<std::string> layer_names)
    : space_(std::move(space)),
      plan_labels_(std::move(plan_labels)),
      layer_names_(std::move(layer_names)),
      num_layers_(std::max<size_t>(1, layer_names_.size())) {}

void TileStitcher::Allocate() {
  merged_.reserve(num_layers_);
  for (size_t li = 0; li < num_layers_; ++li) {
    merged_.emplace_back(space_, plan_labels_);
  }
  covered_.assign(space_.num_points(), 0);
}

Status TileStitcher::Add(MapTile&& tile) {
  const std::string name = "tile " + std::to_string(tile.spec.shard_id);
  if (!(tile.parent_space == space_)) {
    return Status::InvalidArgument(
        name + " was swept over a different grid (axis names or values "
               "disagree); refusing to merge");
  }
  if (tile.map.plan_labels() != plan_labels_) {
    return Status::InvalidArgument(
        name + " covers a different plan set; refusing to merge");
  }
  // Layers are merged positionally, so tiles must agree on the study
  // shape exactly — a plain tile in a warm-cold merge (or layers in a
  // different order) is a configuration mix-up, not mergeable data.
  if (tile.num_layers() != num_layers_ || tile.layer_names != layer_names_) {
    return Status::InvalidArgument(
        name + " carries different layers than its siblings; refusing to "
               "merge");
  }
  // ParseMapTile-produced tiles satisfy this by construction, but the
  // stitcher must not trust its caller: an out-of-grid rectangle or a map
  // smaller than its claimed rectangle would index out of bounds below.
  auto sub = SliceSpace(space_, tile.spec);
  if (!sub.ok()) {
    return Status::InvalidArgument(name + ": " + sub.status().message());
  }
  for (size_t li = 0; li < num_layers_; ++li) {
    if (!(tile.layer(li).space() == sub.value()) ||
        tile.layer(li).plan_labels() != plan_labels_) {
      return Status::InvalidArgument(
          name + "'s map does not cover the rectangle its spec names");
    }
  }
  if (merged_.empty()) Allocate();
  const TileSpec& spec = tile.spec;
  for (size_t yi = spec.y_begin; yi < spec.y_end; ++yi) {
    for (size_t xi = spec.x_begin; xi < spec.x_end; ++xi) {
      if (covered_[space_.IndexOf(xi, yi)] != 0) {
        return Status::InvalidArgument(
            "tiles overlap at grid point (" + std::to_string(xi) + "," +
            std::to_string(yi) + ")");
      }
    }
  }
  for (size_t yi = spec.y_begin; yi < spec.y_end; ++yi) {
    const size_t row = space_.IndexOf(spec.x_begin, yi);
    std::fill_n(covered_.begin() + row, spec.x_size(), 1);
  }
  for (size_t li = 0; li < num_layers_; ++li) {
    RobustnessMap& layer = tile.layer(li);
    for (size_t plan = 0; plan < plan_labels_.size(); ++plan) {
      size_t tile_pt = 0;
      for (size_t yi = spec.y_begin; yi < spec.y_end; ++yi) {
        const size_t row = space_.IndexOf(spec.x_begin, yi);
        for (size_t dx = 0; dx < spec.x_size(); ++dx) {
          merged_[li].Set(plan, row + dx, layer.Take(plan, tile_pt++));
        }
      }
    }
  }
  return Status::OK();
}

Result<std::vector<RobustnessMap>> TileStitcher::Finish() && {
  if (merged_.empty()) Allocate();
  for (size_t pt = 0; pt < covered_.size(); ++pt) {
    if (covered_[pt] == 0) {
      const auto [xi, yi] = space_.CoordsOf(pt);
      return Status::InvalidArgument("no tile covers grid point (" +
                                     std::to_string(xi) + "," +
                                     std::to_string(yi) + ")");
    }
  }
  return std::move(merged_);
}

}  // namespace robustmap
