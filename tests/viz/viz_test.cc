#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "viz/ascii_heatmap.h"
#include "viz/csv_export.h"
#include "viz/gnuplot_export.h"
#include "viz/legend.h"
#include "viz/ppm_writer.h"

namespace robustmap {
namespace {

RobustnessMap SmallMap(bool two_d) {
  ParameterSpace space =
      two_d ? ParameterSpace::TwoD(Axis::Selectivity("a", -2, 0),
                                   Axis::Selectivity("b", -2, 0))
            : ParameterSpace::OneD(Axis::Selectivity("a", -2, 0));
  RobustnessMap map(space, {"p0", "p1"});
  for (size_t pl = 0; pl < 2; ++pl) {
    for (size_t pt = 0; pt < space.num_points(); ++pt) {
      Measurement m;
      m.seconds = 0.01 * static_cast<double>(pt + 1) * (pl + 1);
      m.output_rows = pt;
      map.Set(pl, pt, m);
    }
  }
  return map;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(AsciiHeatmapTest, RendersGlyphGrid) {
  RobustnessMap map = SmallMap(true);
  HeatmapOptions opts;
  opts.title = "test map";
  std::string out = RenderHeatmap(map.space(), map.SecondsOfPlan(0),
                                  ColorScale::AbsoluteSeconds(), opts);
  EXPECT_NE(out.find("test map"), std::string::npos);
  EXPECT_NE(out.find("2^-2"), std::string::npos);  // axis labels
  // 3 rows of cells plus axes.
  EXPECT_GE(std::count(out.begin(), out.end(), '\n'), 5);
}

TEST(AsciiHeatmapTest, AnsiModeEmitsColor) {
  RobustnessMap map = SmallMap(true);
  HeatmapOptions opts;
  opts.ansi_color = true;
  std::string out = RenderHeatmap(map.space(), map.SecondsOfPlan(0),
                                  ColorScale::AbsoluteSeconds(), opts);
  EXPECT_NE(out.find("\x1b[48;2;"), std::string::npos);
}

TEST(ChartTest, RendersSeriesAndLegend) {
  std::vector<double> xs = {0.25, 0.5, 1.0};
  std::vector<ChartSeries> series = {{"alpha", {0.1, 0.2, 0.4}},
                                     {"beta", {1, 1, 1}}};
  ChartOptions opts;
  opts.title = "chart title";
  std::string out = RenderChart(xs, series, opts);
  EXPECT_NE(out.find("chart title"), std::string::npos);
  EXPECT_NE(out.find("a = alpha"), std::string::npos);
  EXPECT_NE(out.find("b = beta"), std::string::npos);
  EXPECT_NE(out.find('a'), std::string::npos);
}

TEST(ChartTest, EmptyInputsHandled) {
  EXPECT_NE(RenderChart({}, {}).find("empty"), std::string::npos);
}

TEST(PpmWriterTest, WritesValidHeaderAndSize) {
  RobustnessMap map = SmallMap(true);
  std::string path = TempPath("map.ppm");
  ASSERT_TRUE(WritePpm(path, map.space(), map.SecondsOfPlan(0),
                       ColorScale::AbsoluteSeconds(), 4)
                  .ok());
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.is_open());
  std::string magic;
  int w, h, maxv;
  f >> magic >> w >> h >> maxv;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, 12);  // 3 cells * 4 px
  EXPECT_EQ(h, 12);
  EXPECT_EQ(maxv, 255);
  f.get();  // single whitespace after header
  std::vector<char> pixels(static_cast<size_t>(w) * h * 3);
  f.read(pixels.data(), static_cast<std::streamsize>(pixels.size()));
  EXPECT_EQ(f.gcount(), static_cast<std::streamsize>(pixels.size()));
}

TEST(PpmWriterTest, LegendStrip) {
  std::string path = TempPath("legend.ppm");
  ASSERT_TRUE(WriteLegendPpm(path, ColorScale::RelativeFactor(), 2).ok());
  std::ifstream f(path, std::ios::binary);
  std::string magic;
  int w, h;
  f >> magic >> w >> h;
  EXPECT_EQ(w, 14);  // 7 buckets * 2 px
  EXPECT_EQ(h, 2);
}

TEST(PpmWriterTest, SizeMismatchRejected) {
  RobustnessMap map = SmallMap(true);
  std::vector<double> wrong(2, 1.0);
  EXPECT_FALSE(WritePpm(TempPath("bad.ppm"), map.space(), wrong,
                        ColorScale::AbsoluteSeconds())
                   .ok());
}

TEST(CsvExportTest, RowPerPlanPoint) {
  RobustnessMap map = SmallMap(false);
  std::ostringstream os;
  WriteMapCsv(os, map);
  std::string csv = os.str();
  // Header + 2 plans x 3 points.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 7);
  EXPECT_NE(csv.find("plan,x,y,seconds"), std::string::npos);
  EXPECT_NE(csv.find("p1,"), std::string::npos);
}

TEST(CsvExportTest, QuotesPlanLabelsContainingCommas) {
  // Real study labels like "A.mj(a,b)" embed commas; unquoted they would
  // shift every column after the first.
  ParameterSpace space = ParameterSpace::OneD(Axis::Selectivity("a", -1, 0));
  RobustnessMap map(space, {"A.mj(a,b)"});
  for (size_t pt = 0; pt < space.num_points(); ++pt) {
    Measurement m;
    m.seconds = 1.0;
    map.Set(0, pt, m);
  }
  std::ostringstream os;
  WriteMapCsv(os, map);
  EXPECT_NE(os.str().find("\"A.mj(a,b)\","), std::string::npos);
}

TEST(GnuplotExportTest, WritesDatAndPlt) {
  RobustnessMap map = SmallMap(true);
  std::string base = TempPath("fig");
  {
    std::ofstream out(base + ".dat");
    WriteGnuplotDat(out, map);
  }
  ASSERT_TRUE(WriteGnuplotPlt(base, map, base + ".dat").ok());
  std::ifstream dat(base + ".dat");
  std::ifstream plt(base + ".plt");
  ASSERT_TRUE(dat.is_open());
  ASSERT_TRUE(plt.is_open());
  std::stringstream pltc;
  pltc << plt.rdbuf();
  EXPECT_NE(pltc.str().find("pm3d"), std::string::npos);
}

TEST(GnuplotExportTest, PltCanPipeFromMapCat) {
  // The bench artifact shape: no .dat copy on disk, the .plt pipes its
  // data straight out of the canonical .rmt via `map_cat --dat`.
  RobustnessMap map = SmallMap(true);
  std::string base = TempPath("figpipe");
  const std::string pipe = "< bench/map_cat --dat " + base + ".rmt";
  ASSERT_TRUE(WriteGnuplotPlt(base, map, pipe).ok());
  std::ifstream dat(base + ".dat");
  EXPECT_FALSE(dat.is_open());
  std::ifstream plt(base + ".plt");
  ASSERT_TRUE(plt.is_open());
  std::stringstream pltc;
  pltc << plt.rdbuf();
  EXPECT_NE(pltc.str().find("'" + pipe + "'"), std::string::npos);

  // The piped data is the same bytes WriteGnuplotDat puts in a .dat
  // file.
  std::ostringstream direct;
  WriteGnuplotDat(direct, map);
  EXPECT_FALSE(direct.str().empty());
}

TEST(GnuplotExportTest, OneDUsesLinespoints) {
  RobustnessMap map = SmallMap(false);
  std::string base = TempPath("fig1d");
  ASSERT_TRUE(WriteGnuplotPlt(base, map, base + ".dat").ok());
  std::ifstream plt(base + ".plt");
  std::stringstream pltc;
  pltc << plt.rdbuf();
  EXPECT_NE(pltc.str().find("linespoints"), std::string::npos);
  EXPECT_NE(pltc.str().find("logscale xy"), std::string::npos);
}

TEST(LegendTest, ListsEveryBucket) {
  std::string legend = RenderLegend(ColorScale::AbsoluteSeconds());
  EXPECT_NE(legend.find("0.001-0.01 seconds"), std::string::npos);
  EXPECT_NE(legend.find("100-1000 seconds"), std::string::npos);
  EXPECT_EQ(std::count(legend.begin(), legend.end(), '\n'), 9);  // title + 8
}

}  // namespace
}  // namespace robustmap
