#ifndef ROBUSTMAP_VIZ_GNUPLOT_EXPORT_H_
#define ROBUSTMAP_VIZ_GNUPLOT_EXPORT_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "core/robustness_map.h"

namespace robustmap {

/// Writes the gnuplot data block for a map to `os`:
///   * 1-D maps -> one row per grid point, x then one seconds column per
///     plan (with a `# x "plan"...` header);
///   * 2-D maps -> pm3d blocks, one per plan, separated by two blank lines.
/// The format `WriteGnuplotPlt` scripts consume — from a `.dat` file or
/// piped straight out of `map_cat --dat FILE.rmt`.
void WriteGnuplotDat(std::ostream& os, const RobustnessMap& map);

/// Writes `<basename>.plt` so that `gnuplot <basename>.plt` regenerates
/// the figure offline:
///   * 1-D maps -> log-log multi-series line plot (Figure 1/2 style);
///   * 2-D maps -> one pm3d heat map per plan (Figure 4/5 style).
/// `data_source` is the gnuplot datafile spec the plot lines reference —
/// a `.dat` path, or a command pipe such as
/// `< bench/map_cat --dat bench_out/fig.rmt` to read the canonical binary
/// artifact directly (the benches' default: no ready-made `.dat` copy to
/// drift out of sync with the `.rmt`).
Status WriteGnuplotPlt(const std::string& basename, const RobustnessMap& map,
                       const std::string& data_source);

}  // namespace robustmap

#endif  // ROBUSTMAP_VIZ_GNUPLOT_EXPORT_H_
