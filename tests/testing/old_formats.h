#ifndef ROBUSTMAP_TESTS_TESTING_OLD_FORMATS_H_
#define ROBUSTMAP_TESTS_TESTING_OLD_FORMATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/cell_cache.h"
#include "core/map_io.h"
#include "core/wire_format.h"

namespace robustmap::testing {

/// The byte streams of formats this build no longer reads, written out
/// field by field so the readers' rejection of them is tested against
/// real old bytes without checking binary blobs into the repo. Both older
/// formats stored the plan label in every cell, after its measurement.

/// One cell as the v3 tile and the v1 cell cache stored it.
inline void PutLabeledMeasurement(std::string* out, const Measurement& m,
                                  const std::string& label) {
  wire::PutMeasurement(out, m);
  wire::PutString(out, label);
}

/// `tile` as tile format v3 wrote it: the layer count after the wall time
/// and, after the plan labels, one named cell block per layer. Layer names
/// are `tile.layer_name(li)`.
inline std::string EncodeMapTileV3(const MapTile& tile) {
  std::string buf = "RMAPTILE";
  wire::PutU32(&buf, 3);
  wire::PutDouble(&buf, tile.wall_seconds);
  wire::PutU64(&buf, tile.num_layers());
  for (const uint64_t v : {tile.spec.shard_id, tile.spec.x_begin,
                           tile.spec.x_end, tile.spec.y_begin,
                           tile.spec.y_end}) {
    wire::PutU64(&buf, v);
  }
  const ParameterSpace& space = tile.parent_space;
  wire::PutU64(&buf, space.is_2d() ? 1 : 0);
  const auto put_axis = [&buf](const Axis& axis) {
    wire::PutString(&buf, axis.name);
    wire::PutU64(&buf, axis.values.size());
    for (const double v : axis.values) wire::PutDouble(&buf, v);
  };
  put_axis(space.x());
  if (space.is_2d()) put_axis(space.y());
  const std::vector<std::string>& labels = tile.map.plan_labels();
  wire::PutU64(&buf, labels.size());
  for (const std::string& label : labels) wire::PutString(&buf, label);
  for (size_t li = 0; li < tile.num_layers(); ++li) {
    wire::PutString(&buf, tile.layer_name(li));
    const RobustnessMap& layer = tile.layer(li);
    for (size_t plan = 0; plan < labels.size(); ++plan) {
      for (size_t pt = 0; pt < layer.space().num_points(); ++pt) {
        PutLabeledMeasurement(&buf, layer.At(plan, pt), labels[plan]);
      }
    }
  }
  wire::PutU64(&buf, wire::Fnv1a64(buf.data(), buf.size()));
  return buf;
}

/// One v1 cell-cache entry: its key, study, measurement and plan label.
struct CellCacheEntryV1 {
  uint64_t fingerprint = 0;
  std::string study;
  Measurement m;
  std::string label;
};

/// A compacted v1 `cells.rmc` of `entries`, which must ascend by
/// fingerprint.
inline std::string EncodeCellCacheV1(
    const std::vector<CellCacheEntryV1>& entries) {
  std::string buf = "RMCCACHE";
  wire::PutU32(&buf, 1);
  wire::PutU32(&buf, kCellCacheFingerprintSchemaVersion);
  wire::PutU64(&buf, entries.size());
  for (const CellCacheEntryV1& e : entries) {
    wire::PutU64(&buf, e.fingerprint);
    wire::PutString(&buf, e.study);
    PutLabeledMeasurement(&buf, e.m, e.label);
  }
  wire::PutU64(&buf, wire::Fnv1a64(buf.data(), buf.size()));
  return buf;
}

}  // namespace robustmap::testing

#endif  // ROBUSTMAP_TESTS_TESTING_OLD_FORMATS_H_
