#include "bench_util.h"

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/format.h"
#include "shard_cli.h"
#include "core/landmarks.h"
#include "core/map_io.h"
#include "viz/gnuplot_export.h"
#include "viz/ppm_writer.h"

namespace robustmap::bench {

namespace {

/// The full-grid TileSpec of a space — how a complete map is framed as a
/// tile for serialization.
TileSpec FullGridSpec(const ParameterSpace& space) {
  TileSpec full;
  full.x_begin = 0;
  full.x_end = space.x_size();
  full.y_begin = 0;
  full.y_end = space.y_size();
  return full;
}

}  // namespace

int EnvInt(const char* name, int def, int lo, int hi) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read in single-threaded setup
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return def;
  char* end = nullptr;
  long v = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || v < lo || v > hi) {
    std::fprintf(stderr, "%s=%s ignored (want an integer in [%d, %d])\n",
                 name, raw, lo, hi);
    return def;
  }
  return static_cast<int>(v);
}

bool EnvFlag(const char* name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read in single-threaded setup
  const char* raw = std::getenv(name);
  return raw != nullptr && raw[0] == '1';
}

std::string EnvString(const char* name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read in single-threaded setup
  const char* raw = std::getenv(name);
  return raw == nullptr ? std::string() : raw;
}

StudyKind EnvStudy(StudyKind def) {
  const std::string raw = EnvString("REPRO_STUDY");
  if (raw.empty()) return def;
  auto kind = StudyKindFromString(raw);
  if (!kind.ok()) {
    std::fprintf(stderr, "REPRO_STUDY=%s ignored (%s)\n", raw.c_str(),
                 kind.status().message().c_str());
    return def;
  }
  return kind.value();
}

BenchScale ResolveScale(int default_row_bits, int default_min_log2) {
  BenchScale s;
  s.row_bits = default_row_bits;
  s.grid_min_log2 = default_min_log2;
  if (EnvFlag("REPRO_FAST")) {
    s.row_bits = 16;
    s.grid_min_log2 = -12;
  }
  if (int v = EnvInt("REPRO_ROW_BITS", s.row_bits, 12, 30); v % 2 == 0) {
    s.row_bits = v;
  }
  // Domain 2^16 gives the paper's 2^-16 finest selectivity; never exceed the
  // row count.
  s.value_bits = ValueBitsFor(s.row_bits);
  if (s.grid_min_log2 < -s.value_bits) s.grid_min_log2 = -s.value_bits;
  s.num_threads =
      static_cast<unsigned>(EnvInt("REPRO_THREADS", 0, 0, 256));
  s.num_shards = static_cast<unsigned>(EnvInt("REPRO_SHARDS", 0, 0, 256));
  s.verbose = EnvFlag("REPRO_VERBOSE");
  return s;
}

SweepRequest StudyRequest(const BenchScale& scale,
                          std::vector<PlanKind> plans,
                          ParameterSpace space) {
  SweepRequest req;
  req.plans = std::move(plans);
  req.space = std::move(space);
  req.study = StudyKind::kPlainMap;
  req.backend = BackendKind::kThreaded;
  req.sweep = SweepOpts(scale);
  req.sharded.num_workers = scale.num_shards;
  req.sharded.verbose = scale.verbose;
  return req;
}

RobustnessMap RunStudyMap(StudyEnvironment* env, std::vector<PlanKind> plans,
                          ParameterSpace space, const BenchScale& scale) {
  SweepOutcome out = SweepEngine::Run(
                         env->ctx(), env->executor(),
                         StudyRequest(scale, std::move(plans),
                                      std::move(space)))
                         .ValueOrDie();
  return std::move(out.layers.front());
}

SweepOptions SweepOpts(const BenchScale& scale) {
  SweepOptions opts;
  opts.num_threads = scale.num_threads;
  opts.verbose = scale.verbose;
  return opts;
}

std::unique_ptr<StudyEnvironment> MakeEnvironment(const BenchScale& scale) {
  StudyOptions opts;
  opts.row_bits = scale.row_bits;
  opts.value_bits = scale.value_bits;
  return StudyEnvironment::Create(opts).ValueOrDie();
}

std::string OutDir() {
  std::string dir = "bench_out";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

Status WriteMapRmt(const std::string& path, const RobustnessMap& map) {
  return WriteMapTileFile(path,
                          MapTile{FullGridSpec(map.space()), map.space(),
                                  map});
}

Status WriteWarmColdRmt(const std::string& path, const SweepOutcome& out) {
  MapTile tile{FullGridSpec(out.cold().space()), out.cold().space(),
               out.cold()};
  tile.layer_names = StudyLayerNames(StudyKind::kWarmColdDelta);
  tile.extra_layers = {out.warm(), out.delta()};
  return WriteMapTileFile(path, tile);
}

void WarnArtifact(const Status& s, const std::string& path) {
  if (!s.ok()) {
    std::fprintf(stderr, "[artifacts] %s not written: %s\n", path.c_str(),
                 s.ToString().c_str());
  }
}

void ExportMap(const std::string& figure_name, const RobustnessMap& map,
               bool relative) {
  std::string base = OutDir() + "/" + figure_name;
  WarnArtifact(WriteMapRmt(base + ".rmt", map), base + ".rmt");
  // The .plt pipes its data straight out of the canonical .rmt, so there is
  // no ready-made .csv/.dat copy to drift out of sync with it — derive
  // either on demand with `map_cat --csv` / `--dat`.
  WarnArtifact(WriteGnuplotPlt(base, map,
                               "< bench/map_cat --dat " + base + ".rmt"),
               base + ".plt");
  if (map.space().is_2d()) {
    ColorScale scale = relative ? ColorScale::RelativeFactor()
                                : ColorScale::AbsoluteSeconds();
    for (size_t pl = 0; pl < map.num_plans(); ++pl) {
      std::string path = base + "_plan" + std::to_string(pl) + ".ppm";
      WarnArtifact(WritePpm(path, map.space(), map.SecondsOfPlan(pl), scale),
                   path);
    }
  }
  std::printf("[artifacts] %s.rmt, %s.plt written (csv/dat: `map_cat "
              "--csv|--dat %s.rmt`)\n",
              base.c_str(), base.c_str(), base.c_str());
}

void ExportWarmColdMaps(const std::string& figure_name,
                        const SweepOutcome& out) {
  ExportMap(figure_name + "_cold", out.cold());
  ExportMap(figure_name + "_warm", out.warm());
  std::string base = OutDir() + "/" + figure_name;
  WarnArtifact(WriteWarmColdRmt(base + "_warmcold.rmt", out),
               base + "_warmcold.rmt");
  const RobustnessMap& delta = out.delta();
  if (delta.space().is_2d()) {
    ColorScale diverging = ColorScale::DivergingSeconds();
    for (size_t pl = 0; pl < delta.num_plans(); ++pl) {
      std::string path = base + "_delta_plan" + std::to_string(pl) + ".ppm";
      WarnArtifact(WritePpm(path, delta.space(), delta.SecondsOfPlan(pl),
                            diverging),
                   path);
    }
    WarnArtifact(WriteLegendPpm(base + "_delta_legend.ppm", diverging),
                 base + "_delta_legend.ppm");
  }
  std::printf("[artifacts] %s_warmcold.rmt%s written (per-layer csv: "
              "`map_cat --csv --layer=L`)\n",
              base.c_str(),
              delta.space().is_2d() ? ", *_delta_plan*.ppm" : "");
}

void PrintCurveTable(const RobustnessMap& map) {
  std::vector<std::string> header = {"selectivity", "rows"};
  for (const auto& label : map.plan_labels()) header.push_back(label);
  TextTable t(header);
  const ParameterSpace& space = map.space();
  for (size_t pt = 0; pt < space.num_points(); ++pt) {
    std::vector<std::string> row;
    row.push_back(FormatSelectivity(space.x_value(pt)));
    row.push_back(FormatCount(map.At(0, pt).output_rows));
    for (size_t pl = 0; pl < map.num_plans(); ++pl) {
      row.push_back(FormatSeconds(map.At(pl, pt).seconds));
    }
    t.AddRow(std::move(row));
  }
  std::printf("%s", t.ToString().c_str());
}

void PrintHeader(const std::string& figure, const std::string& claim,
                 const BenchScale& scale) {
  std::printf(
      "==============================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("Scale: 2^%d rows (%s), value domain 2^%d\n", scale.row_bits,
              FormatCount(uint64_t{1} << scale.row_bits).c_str(),
              scale.value_bits);
  std::printf(
      "==============================================================\n");
}

void PrintCurveLandmarks(const RobustnessMap& map) {
  std::printf("\nLandmark analysis (monotonicity / flattening / jumps):\n");
  for (size_t pl = 0; pl < map.num_plans(); ++pl) {
    CurveLandmarks lm =
        AnalyzeCurve(map.space().x().values, map.SecondsOfPlan(pl));
    std::printf("  %-24s", map.plan_label(pl).c_str());
    if (lm.clean()) {
      std::printf(" clean\n");
      continue;
    }
    std::printf(" mono_violations=%zu steepenings=%zu discontinuities=%zu",
                lm.monotonicity_violations.size(),
                lm.steepening_points.size(), lm.discontinuities.size());
    if (!lm.steepening_points.empty()) {
      const auto& sp = lm.steepening_points.back();
      std::printf(" (slope %.2f -> %.2f at x=%s)", sp.slope_before,
                  sp.slope_after,
                  FormatSelectivity(map.space().x().values[sp.index]).c_str());
    }
    std::printf("\n");
  }
}

bool MapsBitIdentical(const RobustnessMap& a, const RobustnessMap& b) {
  if (a.num_plans() != b.num_plans() || !(a.space() == b.space()) ||
      a.plan_labels() != b.plan_labels()) {
    return false;
  }
  for (size_t plan = 0; plan < a.num_plans(); ++plan) {
    for (size_t pt = 0; pt < a.space().num_points(); ++pt) {
      const Measurement& ma = a.At(plan, pt);
      const Measurement& mb = b.At(plan, pt);
      if (ma.seconds != mb.seconds || ma.output_rows != mb.output_rows ||
          ma.io.sequential_reads != mb.io.sequential_reads ||
          ma.io.skip_reads != mb.io.skip_reads ||
          ma.io.random_reads != mb.io.random_reads ||
          ma.io.writes != mb.io.writes ||
          ma.io.buffer_hits != mb.io.buffer_hits ||
          ma.io.bytes_read != mb.io.bytes_read ||
          ma.io.bytes_written != mb.io.bytes_written ||
          ma.plan_label != mb.plan_label) {
        return false;
      }
    }
  }
  return true;
}

double CrossoverX(const std::vector<double>& xs, const std::vector<double>& a,
                  const std::vector<double>& b) {
  for (size_t i = 0; i + 1 < xs.size(); ++i) {
    double d0 = a[i] - b[i];
    double d1 = a[i + 1] - b[i + 1];
    if (d0 == 0) return xs[i];
    if (d0 * d1 < 0) {
      // Interpolate in log space for geometric axes.
      double l0 = std::log(a[i] / b[i]);
      double l1 = std::log(a[i + 1] / b[i + 1]);
      double t = l0 / (l0 - l1);
      return std::exp(std::log(xs[i]) +
                      t * (std::log(xs[i + 1]) - std::log(xs[i])));
    }
  }
  return -1;
}

}  // namespace robustmap::bench
