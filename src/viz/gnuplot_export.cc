#include "viz/gnuplot_export.h"

#include <fstream>
#include <ostream>

namespace robustmap {

void WriteGnuplotDat(std::ostream& os, const RobustnessMap& map) {
  const ParameterSpace& space = map.space();
  if (!space.is_2d()) {
    os << "# x";
    for (size_t pl = 0; pl < map.num_plans(); ++pl) {
      os << " \"" << map.plan_label(pl) << '"';
    }
    os << '\n';
    for (size_t pt = 0; pt < space.num_points(); ++pt) {
      os << space.x_value(pt);
      for (size_t pl = 0; pl < map.num_plans(); ++pl) {
        os << ' ' << map.At(pl, pt).seconds;
      }
      os << '\n';
    }
    return;
  }
  // pm3d blocks, one per plan, separated by two blank lines.
  for (size_t pl = 0; pl < map.num_plans(); ++pl) {
    os << "# plan " << map.plan_label(pl) << '\n';
    for (size_t yi = 0; yi < space.y_size(); ++yi) {
      for (size_t xi = 0; xi < space.x_size(); ++xi) {
        os << space.x().values[xi] << ' ' << space.y().values[yi] << ' '
           << map.AtXY(pl, xi, yi).seconds << '\n';
      }
      os << '\n';
    }
    os << '\n';
  }
}

Status WriteGnuplotPlt(const std::string& basename, const RobustnessMap& map,
                       const std::string& data_source) {
  const ParameterSpace& space = map.space();
  std::ofstream plt(basename + ".plt");
  if (!plt.is_open()) {
    return Status::Internal("cannot open " + basename + ".plt");
  }
  plt << "# gnuplot script regenerating this robustness map\n";
  if (!data_source.empty() && data_source[0] == '<') {
    plt << "# data is piped from the canonical .rmt artifact; run from the\n"
           "# build directory (or edit the pipe command's paths)\n";
  }
  plt << "set terminal pngcairo size 1000,700\n";
  if (!space.is_2d()) {
    plt << "set output '" << basename << ".png'\n";
    plt << "set logscale xy\nset xlabel '" << space.x().name
        << "'\nset ylabel 'execution time [s]'\nset key outside\n";
    plt << "plot";
    for (size_t pl = 0; pl < map.num_plans(); ++pl) {
      if (pl > 0) plt << ',';
      plt << " '" << data_source << "' using 1:" << pl + 2
          << " with linespoints title \"" << map.plan_label(pl) << '"';
    }
    plt << '\n';
  } else {
    plt << "set logscale xy\nset logscale cb\nset view map\nset pm3d at b\n";
    plt << "set xlabel '" << space.x().name << "'\nset ylabel '"
        << space.y().name << "'\n";
    plt << "set palette defined (0 'green', 1 'yellow', 2 'orange', 3 'red', "
           "4 'dark-red', 5 'black')\n";
    for (size_t pl = 0; pl < map.num_plans(); ++pl) {
      plt << "set output '" << basename << "_plan" << pl << ".png'\n";
      plt << "set title \"" << map.plan_label(pl) << "\"\n";
      plt << "splot '" << data_source << "' index " << pl
          << " using 1:2:3 with pm3d notitle\n";
    }
  }
  return Status::OK();
}

}  // namespace robustmap
