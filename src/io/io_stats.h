#ifndef ROBUSTMAP_IO_IO_STATS_H_
#define ROBUSTMAP_IO_IO_STATS_H_

#include <cstdint>

namespace robustmap {

/// Per-run I/O counters, reported alongside virtual elapsed time in every
/// `Measurement` so maps can be explained ("why is this cell red?").
struct IoStats {
  uint64_t sequential_reads = 0;   ///< next-page reads
  uint64_t skip_reads = 0;         ///< short forward seeks (sorted fetch)
  uint64_t random_reads = 0;       ///< full seeks
  uint64_t writes = 0;             ///< page writes (spills, run files)
  uint64_t buffer_hits = 0;        ///< reads satisfied by the buffer pool
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;

  uint64_t total_reads() const {
    return sequential_reads + skip_reads + random_reads;
  }

  IoStats Delta(const IoStats& earlier) const {
    IoStats d;
    d.sequential_reads = sequential_reads - earlier.sequential_reads;
    d.skip_reads = skip_reads - earlier.skip_reads;
    d.random_reads = random_reads - earlier.random_reads;
    d.writes = writes - earlier.writes;
    d.buffer_hits = buffer_hits - earlier.buffer_hits;
    d.bytes_read = bytes_read - earlier.bytes_read;
    d.bytes_written = bytes_written - earlier.bytes_written;
    return d;
  }
};

}  // namespace robustmap

#endif  // ROBUSTMAP_IO_IO_STATS_H_
