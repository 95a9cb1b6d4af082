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

/// Streams a paired warm/cold study as one CSV:
///   plan,x,y,cold_seconds,warm_seconds,delta_seconds,cold_reads,warm_reads,
///   cold_buffer_hits,warm_buffer_hits
/// (y is empty for 1-D maps; delta = warm − cold). The maps must cover the
/// same plans and space — anything else is an error.
Status WriteWarmColdCsv(std::ostream& os, const RobustnessMap& cold,
                        const RobustnessMap& warm);

}  // namespace robustmap

#endif  // ROBUSTMAP_VIZ_CSV_EXPORT_H_
