#ifndef ROBUSTMAP_VIZ_CSV_EXPORT_H_
#define ROBUSTMAP_VIZ_CSV_EXPORT_H_

#include <ostream>
#include <string>

#include "common/status.h"
#include "core/robustness_map.h"

namespace robustmap {

/// Streams a robustness map as CSV:
///   plan,x,y,seconds,output_rows,seq_reads,skip_reads,random_reads,writes,
///   buffer_hits
/// (y is empty for 1-D maps). The raw data behind every figure.
void WriteMapCsv(std::ostream& os, const RobustnessMap& map);

/// Convenience: writes to a file.
Status WriteMapCsvFile(const std::string& path, const RobustnessMap& map);

}  // namespace robustmap

#endif  // ROBUSTMAP_VIZ_CSV_EXPORT_H_
