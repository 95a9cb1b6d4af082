#include "core/map_io.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/wire_format.h"

namespace robustmap {

namespace {

using wire::Cursor;
using wire::Fnv1a64;
using wire::GetMeasurement;
using wire::PutDouble;
using wire::PutMeasurement;
using wire::PutString;
using wire::PutU32;
using wire::PutU64;

constexpr char kMagic[8] = {'R', 'M', 'A', 'P', 'T', 'I', 'L', 'E'};
constexpr size_t kMagicSize = sizeof(kMagic);
constexpr size_t kVersionOffset = kMagicSize;
constexpr size_t kChecksumSize = sizeof(uint64_t);
// Magic + version + trailing checksum: the least any tile file can be.
constexpr size_t kMinFileSize = kMagicSize + sizeof(uint32_t) + kChecksumSize;

// The artifact name Cursor errors lead with ("truncated map tile: ...").
constexpr char kWhat[] = "map tile";

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

Status WriteMapTile(std::ostream& os, const MapTile& tile) {
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

  std::string buf;
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
  for (size_t li = 0; li < num_layers; ++li) {
    if (v3) PutString(&buf, tile.layer_names[li]);
    const RobustnessMap& layer = tile.layer(li);
    for (size_t plan = 0; plan < layer.num_plans(); ++plan) {
      for (size_t pt = 0; pt < layer.space().num_points(); ++pt) {
        PutMeasurement(&buf, layer.At(plan, pt));
      }
    }
  }
  PutU64(&buf, Fnv1a64(buf.data(), buf.size()));

  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!os.good()) return Status::Internal("map tile write failed");
  return Status::OK();
}

Status WriteMapTileFile(const std::string& path, const MapTile& tile) {
  // Write-then-rename: readers (and resuming coordinators) only ever see
  // either no file or a complete one. The temp name carries the writer's
  // address so concurrent workers never clobber each other's in-flight
  // writes.
  const std::string tmp =
      path + ".tmp." + std::to_string(reinterpret_cast<uintptr_t>(&tile)) +
      "." + std::to_string(static_cast<unsigned long>(::getpid()));
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f.is_open()) {
      return Status::Internal("cannot open " + tmp + " for writing");
    }
    Status s = WriteMapTile(f, tile);
    if (!s.ok()) {
      f.close();
      std::remove(tmp.c_str());
      return s;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

namespace {

/// Decodes a whole tile file's bytes; the one parser behind both readers.
Result<MapTile> ParseMapTile(const std::string& buf) {
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
  // v2 carries the tile sweep's wall time right after the version; a v1
  // file simply has no timing signal, which downstream cost models treat
  // as "unmeasured", never as an error. v3 adds the layer count; earlier
  // versions are by definition single-layer.
  double wall_seconds = 0;
  if (version >= 2) {
    RM_RETURN_IF_ERROR(c.GetDouble(&wall_seconds));
  }
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
  // Every cell occupies at least 9 u64-sized fields plus a label length;
  // reject plan x point x layer products the remaining bytes cannot
  // possibly back before sizing the maps (divisions, so the product cannot
  // overflow).
  constexpr size_t kMinCellBytes = 9 * sizeof(uint64_t) + sizeof(uint32_t);
  const size_t points = sub.value().num_points();
  if (num_plans != 0 &&
      c.remaining() / kMinCellBytes / num_plans / num_layers < points) {
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

}  // namespace

Result<MapTile> ReadMapTile(std::istream& is) {
  return ParseMapTile(std::string((std::istreambuf_iterator<char>(is)),
                                  std::istreambuf_iterator<char>()));
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

Result<std::vector<RobustnessMap>> MergeTileLayers(
    const ParameterSpace& space, const std::vector<std::string>& plan_labels,
    const std::vector<MapTile>& tiles) {
  const size_t num_layers = tiles.empty() ? 1 : tiles.front().num_layers();
  std::vector<RobustnessMap> merged;
  merged.reserve(num_layers);
  for (size_t li = 0; li < num_layers; ++li) {
    merged.emplace_back(space, plan_labels);
  }
  std::vector<uint8_t> covered(space.num_points(), 0);
  for (const MapTile& tile : tiles) {
    if (!(tile.parent_space == space)) {
      return Status::InvalidArgument(
          "tile " + std::to_string(tile.spec.shard_id) +
          " was swept over a different grid (axis names or values "
          "disagree); refusing to merge");
    }
    if (tile.map.plan_labels() != plan_labels) {
      return Status::InvalidArgument(
          "tile " + std::to_string(tile.spec.shard_id) +
          " covers a different plan set; refusing to merge");
    }
    // Layers are merged positionally, so tiles must agree on the study
    // shape exactly — a plain tile in a warm-cold merge (or layers in a
    // different order) is a configuration mix-up, not mergeable data.
    if (tile.num_layers() != num_layers ||
        tile.layer_names != tiles.front().layer_names) {
      return Status::InvalidArgument(
          "tile " + std::to_string(tile.spec.shard_id) +
          " carries different layers than its siblings; refusing to merge");
    }
    // ReadMapTile-produced tiles satisfy this by construction, but merge
    // must not trust its caller: an out-of-grid rectangle or a map smaller
    // than its claimed rectangle would index out of bounds below.
    auto sub = SliceSpace(space, tile.spec);
    if (!sub.ok()) {
      return Status::InvalidArgument(
          "tile " + std::to_string(tile.spec.shard_id) + ": " +
          sub.status().message());
    }
    for (size_t li = 0; li < num_layers; ++li) {
      if (!(tile.layer(li).space() == sub.value()) ||
          tile.layer(li).plan_labels() != plan_labels) {
        return Status::InvalidArgument(
            "tile " + std::to_string(tile.spec.shard_id) +
            "'s map does not cover the rectangle its spec names");
      }
    }
    for (size_t yi = tile.spec.y_begin; yi < tile.spec.y_end; ++yi) {
      for (size_t xi = tile.spec.x_begin; xi < tile.spec.x_end; ++xi) {
        const size_t parent_pt = space.IndexOf(xi, yi);
        if (covered[parent_pt] != 0) {
          return Status::InvalidArgument(
              "tiles overlap at grid point (" + std::to_string(xi) + "," +
              std::to_string(yi) + ")");
        }
        covered[parent_pt] = 1;
        const size_t tile_pt =
            (yi - tile.spec.y_begin) * tile.spec.x_size() +
            (xi - tile.spec.x_begin);
        for (size_t li = 0; li < num_layers; ++li) {
          for (size_t plan = 0; plan < plan_labels.size(); ++plan) {
            merged[li].Set(plan, parent_pt, tile.layer(li).At(plan, tile_pt));
          }
        }
      }
    }
  }
  for (size_t pt = 0; pt < covered.size(); ++pt) {
    if (covered[pt] == 0) {
      const auto [xi, yi] = space.CoordsOf(pt);
      return Status::InvalidArgument("no tile covers grid point (" +
                                     std::to_string(xi) + "," +
                                     std::to_string(yi) + ")");
    }
  }
  return merged;
}

Result<RobustnessMap> MergeTiles(const ParameterSpace& space,
                                 const std::vector<std::string>& plan_labels,
                                 const std::vector<MapTile>& tiles) {
  for (const MapTile& tile : tiles) {
    if (tile.num_layers() != 1) {
      return Status::InvalidArgument(
          "tile " + std::to_string(tile.spec.shard_id) + " carries " +
          std::to_string(tile.num_layers()) +
          " layers; use MergeTileLayers for multi-layer tiles");
    }
  }
  auto merged = MergeTileLayers(space, plan_labels, tiles);
  RM_RETURN_IF_ERROR(merged.status());
  return std::move(merged.value().front());
}

}  // namespace robustmap
