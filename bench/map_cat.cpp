// map_cat — make binary .rmt tile and merged-map files self-serving: print
// what a file contains, render it as an ASCII heatmap, convert it to CSV
// or gnuplot data, or rasterize it to the same per-plan PPM images the
// figure benches export — without re-running any sweep. With the benches
// emitting .rmt as the canonical artifact, all derived formats (CSV,
// gnuplot dat, ASCII, PPM) come from here on demand; bench .plt scripts
// pipe their data through `--dat` rather than carrying a ready-made copy.
//
// Usage:
//   map_cat [--info] FILE...        # header summary (default)
//   map_cat --ascii [--plan=K] [--layer=L] FILE...  # terminal heatmap
//   map_cat --csv [--layer=L] FILE...    # CSV on stdout (files concatenated)
//   map_cat --dat [--layer=L] FILE...    # gnuplot data on stdout
//   map_cat --ppm [--plan=K] [--layer=L] FILE...  # FILE_[layer_]planK.ppm
//   map_cat --telemetry FILE.json...  # counter table + histogram bars
//   map_cat --cache-info DIR...     # cell-result cache summary
//   map_cat --selftest              # write+read+render round trip, exit 0/1
//
// --telemetry pretty-prints the telemetry.json sidecars the sweep drivers
// write (`sweep_shard --telemetry=FILE`, REPRO_TELEMETRY): every counter
// in a table, every latency histogram as ASCII bucket bars with
// count/sum/min/max.
//
// --cache-info inspects a cell-result cache (the --cache-dir of
// `sweep_shard` / `sweep_worker`, or its cells.rmc directly): file format
// version, fingerprint schema version (flagged when this build would
// ignore it as stale), entry count, the file's layout (base entries,
// journal segments and their entries, dropped tail bytes), and a
// per-study entry breakdown.
//
// Reads any tile format version this build's reader accepts (v1/v2 files
// are single-layer; v3 files carry one named layer per study output, e.g.
// cold/warm/delta — select with --layer, default 0). A layer named "delta"
// renders on the diverging blue/white/red scale, everything else on the
// absolute scale. Errors name the failing file and are distinct for
// truncation/corruption vs. unknown version, exactly as the library
// reports them.

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/format.h"
#include "core/cell_cache.h"
#include "core/color_scale.h"
#include "core/map_io.h"
#include "core/sweep_telemetry.h"
#include "shard_cli.h"
#include "viz/ascii_heatmap.h"
#include "viz/csv_export.h"
#include "viz/gnuplot_export.h"
#include "viz/ppm_writer.h"

using namespace robustmap;
using namespace robustmap::bench;

namespace {

void PrintInfo(const std::string& path, const MapTile& tile) {
  const ParameterSpace& parent = tile.parent_space;
  std::printf("%s:\n", path.c_str());
  std::printf("  parent grid : %zux%zu (%s x %s)\n", parent.x_size(),
              parent.y_size(), parent.x().name.c_str(),
              parent.is_2d() ? parent.y().name.c_str() : "-");
  std::printf("  tile        : id %zu, cells [%zu,%zu)x[%zu,%zu) = %zu "
              "points\n",
              tile.spec.shard_id, tile.spec.x_begin, tile.spec.x_end,
              tile.spec.y_begin, tile.spec.y_end, tile.spec.num_points());
  std::printf("  wall time   : %s\n",
              tile.wall_seconds > 0
                  ? (std::to_string(tile.wall_seconds) + " s").c_str()
                  : "(unrecorded)");
  std::printf("  layers (%zu) :", tile.num_layers());
  for (size_t li = 0; li < tile.num_layers(); ++li) {
    const std::string name = tile.layer_name(li);
    std::printf(" %s", name.empty() ? "(unnamed)" : name.c_str());
  }
  std::printf("\n");
  std::printf("  plans (%zu)  :", tile.map.num_plans());
  for (const std::string& label : tile.map.plan_labels()) {
    std::printf(" %s", label.c_str());
  }
  std::printf("\n");
}

/// The scale a layer renders on: the per-cell signed delta of a warm-cold
/// study gets the diverging scale its figures use; everything else is an
/// absolute-seconds surface.
ColorScale LayerScale(const MapTile& tile, size_t layer) {
  return tile.layer_name(layer) == "delta" ? ColorScale::DivergingSeconds()
                                           : ColorScale::AbsoluteSeconds();
}

bool CheckLayer(const std::string& path, const MapTile& tile, int layer) {
  if (layer >= 0 && static_cast<size_t>(layer) < tile.num_layers()) {
    return true;
  }
  std::fprintf(stderr, "map_cat: %s has %zu layer(s); --layer=%d is out of "
               "range\n",
               path.c_str(), tile.num_layers(), layer);
  return false;
}

void PrintAscii(const MapTile& tile, size_t layer, int only_plan) {
  const RobustnessMap& map = tile.layer(layer);
  if (!map.space().is_2d()) {
    PrintCurveTable(map);
    return;
  }
  const ColorScale scale = LayerScale(tile, layer);
  for (size_t pl = 0; pl < map.num_plans(); ++pl) {
    if (only_plan >= 0 && pl != static_cast<size_t>(only_plan)) continue;
    HeatmapOptions hopts;
    hopts.title = tile.layer_name(layer).empty()
                      ? map.plan_label(pl)
                      : tile.layer_name(layer) + " / " + map.plan_label(pl);
    std::printf("%s", RenderHeatmap(map.space(), map.SecondsOfPlan(pl),
                                    scale, hopts)
                          .c_str());
  }
}

/// `--ppm`: FILE.rmt becomes FILE[_layer]_planK.ppm next to the input, on
/// the layer's scale — the same images the figure benches export.
int WritePpms(const std::string& path, const MapTile& tile, size_t layer,
              int only_plan) {
  const RobustnessMap& map = tile.layer(layer);
  if (!map.space().is_2d()) {
    std::fprintf(stderr, "map_cat: %s is 1-D; PPM rendering needs a 2-D "
                 "map (use --csv or --ascii)\n",
                 path.c_str());
    return 1;
  }
  std::string base = path;
  if (base.size() > 4 && base.substr(base.size() - 4) == ".rmt") {
    base.resize(base.size() - 4);
  }
  if (!tile.layer_name(layer).empty()) {
    base += '_';
    base += tile.layer_name(layer);
  }
  const ColorScale scale = LayerScale(tile, layer);
  for (size_t pl = 0; pl < map.num_plans(); ++pl) {
    if (only_plan >= 0 && pl != static_cast<size_t>(only_plan)) continue;
    const std::string out = base + "_plan" + std::to_string(pl) + ".ppm";
    if (Status s = WritePpm(out, map.space(), map.SecondsOfPlan(pl), scale);
        !s.ok()) {
      std::fprintf(stderr, "map_cat: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("map_cat: wrote %s\n", out.c_str());
  }
  return 0;
}

/// Engineering notation for histogram bounds: "1u" .. "500m" .. "100".
/// Seconds-scale bounds print bare; the ladder has no fractional mantissas
/// so three significant digits always suffice.
std::string BoundLabel(double seconds) {
  char buf[32];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%gu", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%gm", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%g", seconds);
  }
  return buf;
}

/// `--telemetry`: counters as a table, histograms as ASCII bucket bars
/// scaled to the fullest bucket. Empty buckets are skipped — the fixed
/// 26-slot ladder would otherwise drown every histogram in blank rows.
int PrintTelemetry(const std::string& path) {
  auto data = ReadTelemetryFile(path);
  if (!data.ok()) {
    std::fprintf(stderr, "map_cat: %s\n", data.status().ToString().c_str());
    return 1;
  }
  std::printf("%s:\n", path.c_str());
  if (!data.value().counters.empty()) {
    TextTable table({"counter", "value"});
    for (const auto& [name, value] : data.value().counters) {
      table.AddRow({name, std::to_string(value)});
    }
    std::printf("%s", table.ToString().c_str());
  }
  const std::vector<double>& bounds = LatencyHistogram::Bounds();
  for (const auto& [name, h] : data.value().histograms) {
    std::printf("\n%s: count=%llu sum=%.6gs min=%.6gs max=%.6gs\n",
                name.c_str(), static_cast<unsigned long long>(h.count),
                h.sum_seconds, h.min_seconds, h.max_seconds);
    const uint64_t fullest =
        *std::max_element(h.buckets.begin(), h.buckets.end());
    if (fullest == 0) continue;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      const std::string label =
          i < bounds.size() ? "<= " + BoundLabel(bounds[i]) + "s"
                            : " > " + BoundLabel(bounds.back()) + "s";
      const int bar = static_cast<int>(
          1 + (h.buckets[i] * 40) / fullest);  // 1..41 chars, never empty
      std::printf("  %-10s %8llu %.*s\n", label.c_str(),
                  static_cast<unsigned long long>(h.buckets[i]), bar,
                  "#########################################");
    }
  }
  return 0;
}

/// `--cache-info`: the summary of a cell-result cache. Accepts the cache
/// *directory* (what the sweep drivers take as --cache-dir) or the
/// cells.rmc inside it. The reader's distinct truncation / corruption /
/// unknown-version errors pass through verbatim; a stale fingerprint
/// schema is not an error here — the whole point of the inspector is
/// seeing what a sweep would silently start over from.
int PrintCacheInfo(const std::string& arg) {
  std::string path = arg;
  if (path.size() < 4 || path.substr(path.size() - 4) != ".rmc") {
    path = CellCacheFileName(arg);
  }
  auto data = ReadCellCacheFile(path);
  if (!data.ok()) {
    std::fprintf(stderr, "map_cat: %s\n", data.status().ToString().c_str());
    return 1;
  }
  std::printf("%s:\n", path.c_str());
  std::printf("  format version     : %u\n", kCellCacheFormatVersion);
  const std::string stale =
      data.value().fingerprint_schema == kCellCacheFingerprintSchemaVersion
          ? ""
          : " (stale; this build keys under schema " +
                std::to_string(kCellCacheFingerprintSchemaVersion) +
                " and would ignore these entries)";
  std::printf("  fingerprint schema : %u%s\n", data.value().fingerprint_schema,
              stale.c_str());
  std::printf("  entries            : %zu\n", data.value().entries.size());
  // The file's layout: a compacted base, then the journal segments that
  // flushes appended since.
  uint64_t journaled = 0;
  for (const uint64_t n : data.value().segment_entries) journaled += n;
  std::printf("  base entries       : %llu\n",
              static_cast<unsigned long long>(data.value().base_entries));
  std::printf("  journal segments   : %zu (%llu entries)\n",
              data.value().segment_entries.size(),
              static_cast<unsigned long long>(journaled));
  std::printf("  dropped tail bytes : %llu\n",
              static_cast<unsigned long long>(data.value().dropped_bytes));
  if (data.value().entries.empty()) return 0;
  std::map<std::string, size_t> by_study;
  for (const CellCacheEntry& e : data.value().entries) {
    ++by_study[e.study.empty() ? "(unnamed)" : e.study];
  }
  TextTable table({"study", "entries"});
  for (const auto& [study, count] : by_study) {
    table.AddRow({study, std::to_string(count)});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

/// The round-trip smoke test ctest runs: a synthetic sub-rectangle tile
/// with every field populated must write, read back bit-identically
/// (including wall-time metadata), convert to identical CSV, render a
/// non-empty heatmap — and the same must hold for a three-layer warm-cold
/// tile, whose layers and names must survive the trip and whose PPM
/// rendering must succeed per layer.
int SelfTest() {
  ParameterSpace space = ParameterSpace::TwoD(
      Axis::Selectivity("sel(a)", -4, 0), Axis::Selectivity("sel(b)", -3, 0));
  TileSpec spec;
  spec.shard_id = 3;
  spec.x_begin = 1;
  spec.x_end = 4;
  spec.y_begin = 0;
  spec.y_end = 3;
  ParameterSpace sub = SliceSpace(space, spec).ValueOrDie();
  RobustnessMap map(sub, {"scan", "idx.a"});
  for (size_t pl = 0; pl < map.num_plans(); ++pl) {
    for (size_t pt = 0; pt < sub.num_points(); ++pt) {
      Measurement m;
      m.seconds = 0.001 * static_cast<double>(pl * 100 + pt + 1);
      m.output_rows = pl * 10 + pt;
      m.io.sequential_reads = pt;
      m.plan_label = map.plan_label(pl);
      map.Set(pl, pt, std::move(m));
    }
  }
  MapTile tile{spec, space, std::move(map), 1.25};

  const std::string path = OutDir() + "/map_cat_selftest.rmt";
  if (Status s = WriteMapTileFile(path, tile); !s.ok()) {
    std::fprintf(stderr, "selftest: write failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  auto back = ReadMapTileFile(path);
  if (!back.ok()) {
    std::fprintf(stderr, "selftest: read failed: %s\n",
                 back.status().ToString().c_str());
    return 1;
  }
  if (!MapsBitIdentical(tile.map, back.value().map) ||
      back.value().wall_seconds != tile.wall_seconds ||
      !(back.value().spec == tile.spec)) {
    std::fprintf(stderr, "selftest: round trip not bit-identical\n");
    return 1;
  }
  std::ostringstream original, roundtrip;
  WriteMapCsv(original, tile.map);
  WriteMapCsv(roundtrip, back.value().map);
  if (original.str() != roundtrip.str() || original.str().empty()) {
    std::fprintf(stderr, "selftest: CSV conversion differs after round "
                         "trip\n");
    return 1;
  }
  std::ostringstream dat_original, dat_roundtrip;
  WriteGnuplotDat(dat_original, tile.map);
  WriteGnuplotDat(dat_roundtrip, back.value().map);
  if (dat_original.str() != dat_roundtrip.str() ||
      dat_original.str().empty()) {
    std::fprintf(stderr, "selftest: gnuplot dat conversion differs after "
                         "round trip\n");
    return 1;
  }
  HeatmapOptions hopts;
  if (RenderHeatmap(back.value().map.space(),
                    back.value().map.SecondsOfPlan(0),
                    ColorScale::AbsoluteSeconds(), hopts)
          .empty()) {
    std::fprintf(stderr, "selftest: empty heatmap render\n");
    return 1;
  }

  // Multi-layer leg: a warm-cold-shaped tile (three named layers) must
  // survive the same trip with layers, names, and per-layer cells intact,
  // and must rasterize per layer through the --ppm path.
  MapTile wc = tile;
  wc.layer_names = {"cold", "warm", "delta"};
  RobustnessMap warm = wc.map;
  for (size_t pl = 0; pl < warm.num_plans(); ++pl) {
    for (size_t pt = 0; pt < warm.space().num_points(); ++pt) {
      Measurement m = warm.At(pl, pt);
      m.seconds *= 0.5;
      warm.Set(pl, pt, std::move(m));
    }
  }
  wc.extra_layers = {warm, DiffMaps(warm, wc.map).ValueOrDie()};
  const std::string wc_path = OutDir() + "/map_cat_selftest_wc.rmt";
  if (Status s = WriteMapTileFile(wc_path, wc); !s.ok()) {
    std::fprintf(stderr, "selftest: multi-layer write failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  auto wc_back = ReadMapTileFile(wc_path);
  if (!wc_back.ok()) {
    std::fprintf(stderr, "selftest: multi-layer read failed: %s\n",
                 wc_back.status().ToString().c_str());
    return 1;
  }
  if (wc_back.value().num_layers() != 3 ||
      wc_back.value().layer_names != wc.layer_names ||
      !MapsBitIdentical(wc_back.value().layer(1), warm) ||
      !MapsBitIdentical(wc_back.value().layer(2), wc.extra_layers[1])) {
    std::fprintf(stderr, "selftest: multi-layer round trip mangled\n");
    return 1;
  }
  for (size_t li = 0; li < 3; ++li) {
    if (WritePpms(wc_path, wc_back.value(), li, /*only_plan=*/0) != 0) {
      return 1;
    }
  }
  std::remove(path.c_str());
  std::remove(wc_path.c_str());
  for (const char* layer : {"cold", "warm", "delta"}) {
    std::remove((OutDir() + "/map_cat_selftest_wc_" + layer + "_plan0.ppm")
                    .c_str());
  }

  // Telemetry leg: a sink with counters and a histogram must serialize,
  // read back equal, and pretty-print through the --telemetry path.
  SweepTelemetry& telemetry = SweepTelemetry::Get();
  telemetry.Reset();
  telemetry.Enable();
  telemetry.AddCounter("selftest.cells", 42);
  telemetry.AddCounter("selftest.hits", 7);
  telemetry.RecordLatency("selftest.cell_seconds", 3e-6);
  telemetry.RecordLatency("selftest.cell_seconds", 0.02);
  telemetry.RecordLatency("selftest.cell_seconds", 150.0);  // overflow slot
  const std::string tpath = OutDir() + "/map_cat_selftest_telemetry.json";
  if (Status s = telemetry.WriteFile(tpath); !s.ok()) {
    std::fprintf(stderr, "selftest: telemetry write failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  auto tdata = ReadTelemetryFile(tpath);
  if (!tdata.ok()) {
    std::fprintf(stderr, "selftest: telemetry read failed: %s\n",
                 tdata.status().ToString().c_str());
    return 1;
  }
  const LatencyHistogram& th =
      tdata.value().histograms["selftest.cell_seconds"];
  if (tdata.value().counters != telemetry.Counters() || th.count != 3 ||
      th.buckets.back() != 1 || th.min_seconds != 3e-6 ||
      th.max_seconds != 150.0) {
    std::fprintf(stderr, "selftest: telemetry round trip mangled\n");
    return 1;
  }
  if (PrintTelemetry(tpath) != 0) return 1;
  telemetry.Reset();
  telemetry.Disable();
  std::remove(tpath.c_str());

  // Cache-inspector leg: a small cell-result cache must round-trip with
  // its fingerprint schema and per-study entries intact, and must print
  // through the --cache-info path (here via its .rmc directly — the
  // directory form just appends the canonical file name).
  CellCacheData cdata;
  for (uint64_t i = 0; i < 3; ++i) {
    CellCacheEntry e;
    e.fingerprint = 0x1000 + i;
    e.study = i < 2 ? "plain" : "warmcold";
    e.m.seconds = 0.25 * static_cast<double>(i + 1);
    e.m.plan_label = "scan";
    cdata.entries.push_back(std::move(e));
  }
  const std::string cpath = OutDir() + "/map_cat_selftest_cells.rmc";
  if (Status s = WriteCellCacheFile(cpath, cdata); !s.ok()) {
    std::fprintf(stderr, "selftest: cache write failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  auto cback = ReadCellCacheFile(cpath);
  if (!cback.ok()) {
    std::fprintf(stderr, "selftest: cache read failed: %s\n",
                 cback.status().ToString().c_str());
    return 1;
  }
  if (cback.value().fingerprint_schema != kCellCacheFingerprintSchemaVersion ||
      cback.value().entries.size() != 3 ||
      cback.value().entries[2].study != "warmcold" ||
      cback.value().entries[1].m.seconds != 0.5) {
    std::fprintf(stderr, "selftest: cache round trip mangled\n");
    return 1;
  }
  if (PrintCacheInfo(cpath) != 0) return 1;
  std::remove(cpath.c_str());

  std::printf("map_cat selftest: write/read/csv/dat/ascii/ppm/telemetry/"
              "cache round trips OK (single and multi-layer)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode {
    kInfo,
    kAscii,
    kCsv,
    kDat,
    kPpm,
    kTelemetry,
    kCacheInfo
  } mode = Mode::kInfo;
  int only_plan = -1;
  int layer = 0;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--info") {
      mode = Mode::kInfo;
    } else if (arg == "--ascii") {
      mode = Mode::kAscii;
    } else if (arg == "--csv") {
      mode = Mode::kCsv;
    } else if (arg == "--dat") {
      mode = Mode::kDat;
    } else if (arg == "--ppm") {
      mode = Mode::kPpm;
    } else if (arg == "--telemetry") {
      mode = Mode::kTelemetry;
    } else if (arg == "--cache-info") {
      mode = Mode::kCacheInfo;
    } else if (arg == "--selftest") {
      return SelfTest();
    } else if (ParseIntFlag(arg, "plan", &only_plan)) {
      // rendered plan index for --ascii / --ppm
    } else if (ParseIntFlag(arg, "layer", &layer)) {
      // rendered layer index for multi-layer tiles
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "map_cat: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: map_cat [--info|--ascii|--csv|--dat|--ppm] "
                 "[--plan=K] [--layer=L] FILE.rmt...\n"
                 "       map_cat --telemetry FILE.json...\n"
                 "       map_cat --cache-info DIR...\n"
                 "       map_cat --selftest\n");
    return 2;
  }

  for (const std::string& path : files) {
    if (mode == Mode::kTelemetry) {
      if (PrintTelemetry(path) != 0) return 1;
      continue;
    }
    if (mode == Mode::kCacheInfo) {
      if (PrintCacheInfo(path) != 0) return 1;
      continue;
    }
    auto tile = ReadMapTileFile(path);
    if (!tile.ok()) {
      std::fprintf(stderr, "map_cat: %s\n",
                   tile.status().ToString().c_str());
      return 1;
    }
    if (mode != Mode::kInfo && !CheckLayer(path, tile.value(), layer)) {
      return 2;
    }
    switch (mode) {
      case Mode::kInfo:
        PrintInfo(path, tile.value());
        break;
      case Mode::kAscii:
        PrintInfo(path, tile.value());
        PrintAscii(tile.value(), static_cast<size_t>(layer), only_plan);
        break;
      case Mode::kCsv: {
        std::ostringstream os;
        WriteMapCsv(os, tile.value().layer(static_cast<size_t>(layer)));
        std::fputs(os.str().c_str(), stdout);
        break;
      }
      case Mode::kDat: {
        std::ostringstream os;
        WriteGnuplotDat(os, tile.value().layer(static_cast<size_t>(layer)));
        std::fputs(os.str().c_str(), stdout);
        break;
      }
      case Mode::kPpm:
        if (WritePpms(path, tile.value(), static_cast<size_t>(layer),
                      only_plan) != 0) {
          return 1;
        }
        break;
      case Mode::kTelemetry:
      case Mode::kCacheInfo:
        break;  // handled before the tile read above
    }
  }
  return 0;
}
