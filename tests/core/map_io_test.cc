#include "core/map_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/shard_planner.h"
#include "core/wire_format.h"
#include "engine/plan.h"
#include "testing/counting_new.h"
#include "testing/map_expect.h"
#include "testing/old_formats.h"

namespace robustmap {
namespace {

using ::robustmap::testing::EncodeMapTileV3;
using ::robustmap::testing::ExpectMapsBitIdentical;
using ::robustmap::testing::HeapAllocations;

ParameterSpace SmallSpace() {
  return ParameterSpace::TwoD(Axis::Selectivity("sel(a)", -3, 0),
                              Axis::Selectivity("sel(b)", -2, 0));
}

/// A map with distinctive, per-cell-unique values in every field, so any
/// mix-up of cells or fields during (de)serialization shows.
RobustnessMap FillMap(const ParameterSpace& space,
                      const std::vector<std::string>& labels) {
  RobustnessMap map(space, labels);
  for (size_t pl = 0; pl < labels.size(); ++pl) {
    for (size_t pt = 0; pt < space.num_points(); ++pt) {
      Measurement m;
      m.seconds = 0.125 * static_cast<double>(pl * 100 + pt) + 1e-9;
      m.output_rows = pl * 1000 + pt;
      m.io.sequential_reads = pt + 1;
      m.io.skip_reads = pt + 2;
      m.io.random_reads = pt + 3;
      m.io.writes = pl;
      m.io.buffer_hits = pl + pt;
      m.io.bytes_read = (pt + 1) * 8192;
      m.io.bytes_written = pl * 8192;
      map.Set(pl, pt, std::move(m));
    }
  }
  return map;
}

MapTile FullTile(const ParameterSpace& space,
                 const std::vector<std::string>& labels) {
  TileSpec spec;
  spec.shard_id = 7;
  spec.x_begin = 0;
  spec.x_end = space.x_size();
  spec.y_begin = 0;
  spec.y_end = space.y_size();
  return MapTile{spec, space, FillMap(space, labels)};
}

std::string Serialize(const MapTile& tile) {
  std::ostringstream os;
  EXPECT_TRUE(WriteMapTile(os, tile).ok());
  return os.str();
}

Result<MapTile> Deserialize(const std::string& bytes) {
  return ParseMapTile(bytes);
}

TEST(MapIoTest, RoundTripsFullTile) {
  ParameterSpace space = SmallSpace();
  MapTile tile = FullTile(space, {"scan", "idx.a"});
  auto back = Deserialize(Serialize(tile)).ValueOrDie();
  EXPECT_EQ(back.spec, tile.spec);
  EXPECT_TRUE(back.parent_space == space);
  ExpectMapsBitIdentical(back.map, tile.map);
}

TEST(MapIoTest, RoundTripsSubRectangleTileAndOneD) {
  ParameterSpace space = SmallSpace();
  TileSpec spec;
  spec.shard_id = 3;
  spec.x_begin = 1;
  spec.x_end = 3;
  spec.y_begin = 0;
  spec.y_end = 2;
  ParameterSpace sub = SliceSpace(space, spec).ValueOrDie();
  MapTile tile{spec, space, FillMap(sub, {"p"})};
  auto back = Deserialize(Serialize(tile)).ValueOrDie();
  EXPECT_EQ(back.spec, tile.spec);
  ExpectMapsBitIdentical(back.map, tile.map);

  ParameterSpace line = ParameterSpace::OneD(Axis::Selectivity("a", -4, 0));
  TileSpec lspec;
  lspec.x_begin = 0;
  lspec.x_end = line.x_size();
  lspec.y_begin = 0;
  lspec.y_end = 1;
  MapTile ltile{lspec, line, FillMap(line, {"p", "q"})};
  auto lback = Deserialize(Serialize(ltile)).ValueOrDie();
  EXPECT_FALSE(lback.parent_space.is_2d());
  ExpectMapsBitIdentical(lback.map, ltile.map);
}

TEST(MapIoTest, WallSecondsMetadataRoundTrips) {
  MapTile tile = FullTile(SmallSpace(), {"scan"});
  tile.wall_seconds = 12.375;
  auto back = Deserialize(Serialize(tile)).ValueOrDie();
  EXPECT_DOUBLE_EQ(back.wall_seconds, 12.375);
  ExpectMapsBitIdentical(back.map, tile.map);

  // The default is "unrecorded": maps merged rather than measured must
  // serialize with wall 0, keeping equal maps byte-equal across runs.
  MapTile untimed = FullTile(SmallSpace(), {"scan"});
  EXPECT_DOUBLE_EQ(Deserialize(Serialize(untimed)).ValueOrDie().wall_seconds,
                   0.0);
}

TEST(MapIoTest, TruncationInsideWallMetadataIsCorruption) {
  std::string bytes = Serialize(FullTile(SmallSpace(), {"scan"}));
  // Cut mid-way through the wall_seconds field (starts at byte 12).
  auto r = Deserialize(bytes.substr(0, 15));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(MapIoTest, SerializationIsDeterministic) {
  // The CI workflow diffs merged maps byte for byte; that only means
  // something if equal tiles serialize to equal bytes.
  MapTile tile = FullTile(SmallSpace(), {"scan"});
  EXPECT_EQ(Serialize(tile), Serialize(tile));
}

TEST(MapIoTest, RejectsMapNotMatchingItsRectangle) {
  ParameterSpace space = SmallSpace();
  TileSpec spec;  // claims a 2x1 rectangle, map covers the full space
  spec.x_begin = 0;
  spec.x_end = 2;
  spec.y_begin = 0;
  spec.y_end = 1;
  MapTile tile{spec, space, FillMap(space, {"p"})};
  std::ostringstream os;
  Status s = WriteMapTile(os, tile);
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST(MapIoTest, TruncatedFileIsCorruption) {
  std::string bytes = Serialize(FullTile(SmallSpace(), {"scan", "idx.a"}));
  for (size_t keep : {size_t{5}, bytes.size() / 2, bytes.size() - 1}) {
    auto r = Deserialize(bytes.substr(0, keep));
    ASSERT_FALSE(r.ok()) << "kept " << keep;
    EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  }
}

TEST(MapIoTest, FlippedByteIsCorruption) {
  std::string bytes = Serialize(FullTile(SmallSpace(), {"scan"}));
  // Flip one byte mid-payload (past magic and version, before the
  // checksum): the checksum must catch it.
  std::string damaged = bytes;
  damaged[damaged.size() / 2] ^= 0x01;
  auto r = Deserialize(damaged);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos);
}

TEST(MapIoTest, FlippedChecksumByteIsCorruption) {
  std::string bytes = Serialize(FullTile(SmallSpace(), {"scan"}));
  std::string damaged = bytes;
  damaged[damaged.size() - 1] ^= 0x80;  // inside the stored checksum itself
  auto r = Deserialize(damaged);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(MapIoTest, WrongVersionIsNotSupported) {
  std::string bytes = Serialize(FullTile(SmallSpace(), {"scan"}));
  std::string future = bytes;
  future[8] = 99;  // version field follows the 8-byte magic, little-endian
  auto r = Deserialize(future);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotSupported());
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
}

TEST(MapIoTest, BadMagicIsCorruption) {
  std::string bytes = Serialize(FullTile(SmallSpace(), {"scan"}));
  bytes[0] = 'X';
  auto r = Deserialize(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(MapIoTest, FileRoundTripAndMissingFile) {
  std::string path = ::testing::TempDir() + "/map_io_roundtrip.rmt";
  MapTile tile = FullTile(SmallSpace(), {"scan", "idx.a"});
  ASSERT_TRUE(WriteMapTileFile(path, tile).ok());
  auto back = ReadMapTileFile(path).ValueOrDie();
  ExpectMapsBitIdentical(back.map, tile.map);
  std::remove(path.c_str());
  EXPECT_TRUE(ReadMapTileFile(path).status().IsNotFound());
}

/// A three-layer warm-cold-shaped tile: layer 0 plus two derived layers
/// over the same slice and plan set, all named.
MapTile MultiLayerTile(const ParameterSpace& space,
                       const std::vector<std::string>& labels) {
  MapTile tile = FullTile(space, labels);
  tile.layer_names = {"cold", "warm", "delta"};
  RobustnessMap warm = tile.map;
  RobustnessMap delta = tile.map;
  for (size_t pl = 0; pl < warm.num_plans(); ++pl) {
    for (size_t pt = 0; pt < warm.space().num_points(); ++pt) {
      Measurement w = warm.At(pl, pt);
      w.seconds *= 0.25;
      warm.Set(pl, pt, std::move(w));
      Measurement d = delta.At(pl, pt);
      d.seconds *= -0.75;
      delta.Set(pl, pt, std::move(d));
    }
  }
  tile.extra_layers = {std::move(warm), std::move(delta)};
  return tile;
}

TEST(MapIoTest, MultiLayerTileRoundTrips) {
  ParameterSpace space = SmallSpace();
  MapTile tile = MultiLayerTile(space, {"scan", "idx.a"});
  tile.wall_seconds = 4.5;
  const std::string bytes = Serialize(tile);
  // The version word follows the 8-byte magic, little-endian.
  EXPECT_EQ(bytes[8], static_cast<char>(kMapTileFormatVersion));
  auto back = Deserialize(bytes).ValueOrDie();
  ASSERT_EQ(back.num_layers(), 3u);
  EXPECT_EQ(back.layer_names, tile.layer_names);
  EXPECT_DOUBLE_EQ(back.wall_seconds, 4.5);
  for (size_t li = 0; li < 3; ++li) {
    SCOPED_TRACE(li);
    ExpectMapsBitIdentical(back.layer(li), tile.layer(li));
  }
  // Deterministic bytes, layer cells included — the per-layer CI byte
  // diffs rely on this exactly as the single-layer ones do.
  EXPECT_EQ(bytes, Serialize(tile));
}

TEST(MapIoTest, SingleLayerTilesRoundTripTheirName) {
  // One layout for every tile: a plain map's tile (no names, as mapbench
  // and the plain study build it) writes its one layer named "" and reads
  // back with no names; a single named layer keeps its name.
  const MapTile plain = FullTile(SmallSpace(), {"scan"});
  const std::string bytes = Serialize(plain);
  EXPECT_EQ(bytes[8], static_cast<char>(kMapTileFormatVersion));
  auto back = Deserialize(bytes).ValueOrDie();
  EXPECT_EQ(back.num_layers(), 1u);
  EXPECT_TRUE(back.layer_names.empty());
  ExpectMapsBitIdentical(back.map, plain.map);

  MapTile named = plain;
  named.layer_names = {"cold"};
  auto named_back = Deserialize(Serialize(named)).ValueOrDie();
  EXPECT_EQ(named_back.layer_names, named.layer_names);
}

TEST(MapIoTest, CellsAreExactlyTheRestOfThePayload) {
  // Every cell is 72 bytes, so the reader checks the cell block's length
  // exactly: one cell more or less than plans x points x layers, with a
  // valid checksum, is Corruption.
  const std::string bytes = Serialize(FullTile(SmallSpace(), {"scan"}));
  const std::string payload = bytes.substr(0, bytes.size() - 8);
  const std::string one_more = payload + std::string(72, '\0');
  const std::string one_less = payload.substr(0, payload.size() - 72);
  for (const std::string& cells : {one_more, one_less}) {
    std::string damaged = cells;
    wire::PutU64(&damaged, wire::Fnv1a64(damaged.data(), damaged.size()));
    auto r = Deserialize(damaged);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  }
}

TEST(MapIoTest, MultiLayerTruncationAndCorruptionStayDistinct) {
  const std::string bytes =
      Serialize(MultiLayerTile(SmallSpace(), {"scan"}));
  for (size_t keep : {size_t{13}, bytes.size() / 2, bytes.size() - 1}) {
    auto r = Deserialize(bytes.substr(0, keep));
    ASSERT_FALSE(r.ok()) << "kept " << keep;
    EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  }
  std::string damaged = bytes;
  damaged[damaged.size() / 2] ^= 0x01;
  auto r = Deserialize(damaged);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos);
}

TEST(MapIoTest, WriterRejectsMalformedLayerSets) {
  ParameterSpace space = SmallSpace();
  // Multi-layer without names: the merge keys on layer names, so an
  // anonymous multi-layer tile is unwritable by construction.
  MapTile unnamed = MultiLayerTile(space, {"scan"});
  unnamed.layer_names.clear();
  std::ostringstream os;
  EXPECT_TRUE(WriteMapTile(os, unnamed).IsInvalidArgument());

  // One name too few.
  MapTile short_names = MultiLayerTile(space, {"scan"});
  short_names.layer_names.pop_back();
  EXPECT_TRUE(WriteMapTile(os, short_names).IsInvalidArgument());

  // A layer over a different plan set than layer 0.
  MapTile mixed = MultiLayerTile(space, {"scan"});
  mixed.extra_layers[0] = FillMap(mixed.map.space(), {"other"});
  EXPECT_TRUE(WriteMapTile(os, mixed).IsInvalidArgument());
}

TEST(MapIoTest, RejectsVersionThreeFiles) {
  // v3 (a plan label in every cell) is not this build's version: a
  // well-formed, checksum-valid v3 byte stream is NotSupported, never
  // misread as v4.
  const std::string v3 =
      EncodeMapTileV3(MultiLayerTile(SmallSpace(), {"scan", "idx.a"}));
  auto r = Deserialize(v3);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotSupported()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("version 3"), std::string::npos)
      << r.status().ToString();
}

/// A whole sharded_tiles-shaped map as one tile: the 12 index plans with
/// their real labels over a `side` x `side` grid.
MapTile IndexPlansTile(size_t side) {
  const ParameterSpace space = ParameterSpace::TwoD(
      Axis::SelectivityFine("a", -16, -8, static_cast<int>(side - 1) / 8),
      Axis::SelectivityFine("b", -16, -8, static_cast<int>(side - 1) / 8));
  std::vector<std::string> labels;
  for (PlanKind kind : AllStudyPlans()) {
    if (kind != PlanKind::kTableScan) labels.push_back(PlanKindLabel(kind));
  }
  return FullTile(space, labels);
}

TEST(MapIoTest, ParseAllocatesPerPlanNotPerCell) {
  // A cell is plain numbers, so parsing a whole map allocates for its
  // header (axes, labels) and one cell array per plan and layer, never per
  // cell: a grid with 52 times the cells parses with as many allocations.
  const auto parse_allocations = [](const std::string& bytes) {
    const uint64_t before = HeapAllocations();
    auto tile = ParseMapTile(bytes);
    const uint64_t allocs = HeapAllocations() - before;
    EXPECT_TRUE(tile.ok()) << tile.status().ToString();
    return allocs;
  };
  const MapTile small = IndexPlansTile(9);
  const MapTile large = IndexPlansTile(65);
  ASSERT_EQ(small.map.num_plans(), 12u);
  ASSERT_EQ(large.map.space().num_points(), 65u * 65u);
  const uint64_t small_allocs = parse_allocations(Serialize(small));
  EXPECT_EQ(parse_allocations(Serialize(large)), small_allocs);
  EXPECT_LE(small_allocs, 4 * small.map.num_plans());
}

TEST(MergeTilesTest, MergesEveryLayerAndChecksLayerAgreement) {
  ParameterSpace space = SmallSpace();
  std::vector<std::string> labels = {"scan", "idx.a"};
  MapTile full = MultiLayerTile(space, labels);
  // Slice the three full-grid layers into per-tile pieces, then merge the
  // pieces back: every layer must reassemble bit-identically.
  auto tiles = ShardPlanner::Partition(
                   space, 4, CellCostModel::Analytic(space).ValueOrDie())
                   .ValueOrDie();
  std::vector<MapTile> pieces;
  for (const TileSpec& t : tiles) {
    ParameterSpace sub = SliceSpace(space, t).ValueOrDie();
    MapTile piece{t, space, RobustnessMap(sub, labels)};
    piece.layer_names = full.layer_names;
    piece.extra_layers = {RobustnessMap(sub, labels),
                          RobustnessMap(sub, labels)};
    for (size_t li = 0; li < 3; ++li) {
      RobustnessMap& layer =
          li == 0 ? piece.map : piece.extra_layers[li - 1];
      for (size_t pl = 0; pl < labels.size(); ++pl) {
        for (size_t yi = 0; yi < sub.y_size(); ++yi) {
          for (size_t xi = 0; xi < sub.x_size(); ++xi) {
            layer.Set(pl, sub.IndexOf(xi, yi),
                      full.layer(li).At(
                          pl, space.IndexOf(t.x_begin + xi, t.y_begin + yi)));
          }
        }
      }
    }
    pieces.push_back(std::move(piece));
  }
  TileStitcher stitcher(space, labels, full.layer_names);
  for (const MapTile& piece : pieces) {
    ASSERT_TRUE(stitcher.Add(MapTile(piece)).ok());
  }
  auto merged = std::move(stitcher).Finish().ValueOrDie();
  ASSERT_EQ(merged.size(), 3u);
  for (size_t li = 0; li < 3; ++li) {
    SCOPED_TRACE(li);
    ExpectMapsBitIdentical(merged[li], full.layer(li));
  }

  // Tiles disagreeing on the study shape never merge.
  TileStitcher mixed(space, labels, full.layer_names);
  ASSERT_TRUE(mixed.Add(std::move(pieces[0])).ok());
  Status bad = mixed.Add(MapTile{pieces[1].spec, space,
                                 std::move(pieces[1].map)});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("different layers"), std::string::npos);
}

TEST(MergeTilesTest, ReassemblesPartitionedMap) {
  ParameterSpace space = SmallSpace();
  std::vector<std::string> labels = {"scan", "idx.a", "idx.b"};
  RobustnessMap full = FillMap(space, labels);
  auto tiles = ShardPlanner::Partition(
                   space, 4, CellCostModel::Analytic(space).ValueOrDie())
                   .ValueOrDie();
  std::vector<MapTile> pieces;
  for (const TileSpec& t : tiles) {
    ParameterSpace sub = SliceSpace(space, t).ValueOrDie();
    RobustnessMap piece(sub, labels);
    for (size_t pl = 0; pl < labels.size(); ++pl) {
      for (size_t yi = 0; yi < sub.y_size(); ++yi) {
        for (size_t xi = 0; xi < sub.x_size(); ++xi) {
          piece.Set(pl, sub.IndexOf(xi, yi),
                    full.At(pl, space.IndexOf(t.x_begin + xi,
                                              t.y_begin + yi)));
        }
      }
    }
    pieces.push_back(MapTile{t, space, std::move(piece)});
  }
  TileStitcher stitcher(space, labels, {});
  for (MapTile& piece : pieces) {
    ASSERT_TRUE(stitcher.Add(std::move(piece)).ok());
  }
  auto merged = std::move(stitcher).Finish().ValueOrDie();
  ASSERT_EQ(merged.size(), 1u);
  ExpectMapsBitIdentical(merged.front(), full);
}

TEST(MergeTilesTest, RejectsMismatchedAxes) {
  ParameterSpace space = SmallSpace();
  ParameterSpace other = ParameterSpace::TwoD(
      Axis::Selectivity("sel(a)", -4, 0),  // one octave more than space
      Axis::Selectivity("sel(b)", -2, 0));
  std::vector<std::string> labels = {"scan"};
  TileStitcher stitcher(space, labels, {});
  Status s = stitcher.Add(FullTile(other, labels));
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("different grid"), std::string::npos);
}

TEST(MergeTilesTest, RejectsMismatchedPlans) {
  ParameterSpace space = SmallSpace();
  TileStitcher stitcher(space, {"scan", "idx.a"}, {});
  Status s = stitcher.Add(FullTile(space, {"scan"}));
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST(MergeTilesTest, RejectsOverlapAndGaps) {
  ParameterSpace space = SmallSpace();
  std::vector<std::string> labels = {"scan"};
  MapTile full = FullTile(space, labels);
  TileStitcher twice(space, labels, {});
  ASSERT_TRUE(twice.Add(MapTile(full)).ok());
  Status overlap = twice.Add(std::move(full));
  ASSERT_FALSE(overlap.ok());
  EXPECT_NE(overlap.message().find("overlap"), std::string::npos);

  auto gap = TileStitcher(space, labels, {}).Finish();
  ASSERT_FALSE(gap.ok());
  EXPECT_NE(gap.status().message().find("no tile covers"),
            std::string::npos);
}

TEST(TileStitcherTest, RejectedTileChangesNothing) {
  // A tile that overlaps a stitched one only in its last row is refused
  // whole: none of its earlier rows count as covered, so the tile that
  // does fit the gap still completes the map.
  ParameterSpace space = SmallSpace();
  std::vector<std::string> labels = {"scan"};
  RobustnessMap full = FillMap(space, labels);
  const auto rows = [&](size_t shard_id, size_t y_begin, size_t y_end) {
    TileSpec t;
    t.shard_id = shard_id;
    t.x_end = space.x_size();
    t.y_begin = y_begin;
    t.y_end = y_end;
    ParameterSpace sub = SliceSpace(space, t).ValueOrDie();
    RobustnessMap map(sub, labels);
    for (size_t pt = 0; pt < sub.num_points(); ++pt) {
      map.Set(0, pt, full.At(0, space.IndexOf(0, y_begin) + pt));
    }
    return MapTile{t, space, std::move(map)};
  };
  const size_t last = space.y_size() - 1;
  ASSERT_GE(last, 1u);
  TileStitcher stitcher(space, labels, {});
  ASSERT_TRUE(stitcher.Add(rows(0, last, last + 1)).ok());
  Status overlap = stitcher.Add(rows(1, 0, last + 1));
  EXPECT_TRUE(overlap.IsInvalidArgument());
  EXPECT_NE(overlap.message().find("overlap"), std::string::npos);
  ASSERT_TRUE(stitcher.Add(rows(2, 0, last)).ok());
  auto merged = std::move(stitcher).Finish();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged.value().size(), 1u);
  ExpectMapsBitIdentical(merged.value().front(), full);
}

}  // namespace
}  // namespace robustmap
