#include "viz/csv_export.h"

#include <fstream>

namespace robustmap {

namespace {

// RFC 4180 quoting for the one free-text column: plan labels like
// "B.cover(a,b).bitmap" contain commas and would otherwise shift every
// column after them.
std::string CsvField(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string quoted = "\"";
  for (char c : s) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

void WriteMapCsv(std::ostream& os, const RobustnessMap& map) {
  os << "plan,x,y,seconds,output_rows,seq_reads,skip_reads,random_reads,"
        "writes,buffer_hits\n";
  const ParameterSpace& space = map.space();
  for (size_t pl = 0; pl < map.num_plans(); ++pl) {
    for (size_t pt = 0; pt < space.num_points(); ++pt) {
      const Measurement& m = map.At(pl, pt);
      os << CsvField(map.plan_label(pl)) << ',' << space.x_value(pt) << ',';
      if (space.is_2d()) os << space.y_value(pt);
      os << ',' << m.seconds << ',' << m.output_rows << ','
         << m.io.sequential_reads << ',' << m.io.skip_reads << ','
         << m.io.random_reads << ',' << m.io.writes << ',' << m.io.buffer_hits
         << '\n';
    }
  }
}

Status WriteMapCsvFile(const std::string& path, const RobustnessMap& map) {
  std::ofstream f(path);
  if (!f.is_open()) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  WriteMapCsv(f, map);
  return Status::OK();
}

}  // namespace robustmap
