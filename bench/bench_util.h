#ifndef ROBUSTMAP_BENCH_BENCH_UTIL_H_
#define ROBUSTMAP_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"
#include "core/robustness_map.h"
#include "core/sweep.h"
#include "core/sweep_engine.h"
#include "workload/dataset.h"

namespace robustmap::bench {

/// Integer env knob with range validation: unset, non-numeric, or
/// out-of-range values fall back to `def`. The single front door for every
/// REPRO_* integer — per-bench getenv/atoi calls drifted in what they
/// accepted.
int EnvInt(const char* name, int def, int lo, int hi);

/// Boolean env knob: set and starting with '1'.
bool EnvFlag(const char* name);

/// String env knob: "" when unset or empty.
std::string EnvString(const char* name);

/// REPRO_STUDY resolved through `StudyKindFromString`, with the
/// unparseable-value warning printed once here.
StudyKind EnvStudy(StudyKind def);

/// Scale knobs shared by all figure benches.
///
///   REPRO_ROW_BITS  — override log2(row count) (default per bench; 26
///                     approximates the paper's 60M-row lineitem).
///   REPRO_FAST=1    — shrink to a quick smoke configuration.
///   REPRO_THREADS   — sweep worker threads (default 0 = one per hardware
///                     thread; maps are bit-identical at any setting).
///   REPRO_SHARDS    — worker *processes* for sharded sweeps (default 0 =
///                     driver-specific; maps are bit-identical at any
///                     setting).
///   REPRO_STUDY     — sweep study for study-agnostic drivers
///                     (`sweep_shard`): "plain" (default) or "warmcold"
///                     (cold/warm/delta layers per tile).
///   REPRO_VERBOSE=1 — per-plan / percent sweep progress on stderr.
///   REPRO_TRACE     — write a Chrome-trace-event JSON of the run to this
///                     path (drivers with a --trace flag also honor that;
///                     the flag wins). Sidecar-only: never changes a map.
///   REPRO_TELEMETRY — write counter/histogram telemetry JSON to this
///                     path; same contract as REPRO_TRACE.
struct BenchScale {
  int row_bits;
  int value_bits;
  int grid_min_log2;  ///< selectivity grid lower bound (e.g. -16)
  unsigned num_threads = 0;
  unsigned num_shards = 0;
  bool verbose = false;
};

/// Resolves the scale for a bench with the given defaults.
BenchScale ResolveScale(int default_row_bits, int default_min_log2 = -16);

/// Creates the standard study environment at the given scale.
std::unique_ptr<StudyEnvironment> MakeEnvironment(const BenchScale& scale);

/// Sweep options for a bench at this scale (worker threads from
/// REPRO_THREADS via ResolveScale).
SweepOptions SweepOpts(const BenchScale& scale);

/// A plain-map engine request at this scale: the threaded backend with
/// the scale's thread/verbosity knobs, and the sharded backend knobs
/// (shards, verbosity) prefilled for callers that flip `req.backend`.
SweepRequest StudyRequest(const BenchScale& scale,
                          std::vector<PlanKind> plans, ParameterSpace space);

/// The standard figure-bench sweep: a plain-map study at this scale run
/// through `SweepEngine::Run` on the threaded backend. Dies on error, as
/// the self-checking bench drivers want.
RobustnessMap RunStudyMap(StudyEnvironment* env, std::vector<PlanKind> plans,
                          ParameterSpace space, const BenchScale& scale);

/// Output directory for bench artifacts (created on demand).
std::string OutDir();

/// Logs a failed best-effort artifact write to stderr, naming the path.
/// Benches keep running — a missing plot is not a failed study — but the
/// failure is visible instead of swallowed by a `(void)` cast.
void WarnArtifact(const Status& s, const std::string& path);

/// Serializes a map as a full-grid single-layer tile file — the canonical
/// binary artifact (`map_cat` derives CSV/ASCII/PPM from it on demand).
/// Written with wall_seconds 0, so equal maps produce equal bytes.
Status WriteMapRmt(const std::string& path, const RobustnessMap& map);

/// The multi-layer form: a warm-cold study's cold/warm/delta layers as
/// one three-layer tile file.
Status WriteWarmColdRmt(const std::string& path, const SweepOutcome& out);

/// Writes the artifact set for a map: the canonical `.rmt`, a gnuplot
/// `.plt` whose data is piped from that `.rmt` via `map_cat --dat`, and
/// (2-D) per-plan PPMs. No ready-made CSV/dat copies — derive them on
/// demand with `map_cat --csv` / `--dat FILE.rmt`.
void ExportMap(const std::string& figure_name, const RobustnessMap& map,
               bool relative = false);

/// Writes the full artifact set of a warm-cold study outcome:
/// `<figure>_cold.*` and `<figure>_warm.*` via ExportMap, the three-layer
/// `_warmcold.rmt`, per-plan delta PPMs on the diverging scale, and the
/// diverging-legend strip.
void ExportWarmColdMaps(const std::string& figure_name,
                        const SweepOutcome& out);

/// Prints a 1-D map as a fixed-width table of seconds (plans as columns).
void PrintCurveTable(const RobustnessMap& map);

/// Prints the standard bench header.
void PrintHeader(const std::string& figure, const std::string& claim,
                 const BenchScale& scale);

/// Prints landmark analysis for each plan of a 1-D map.
void PrintCurveLandmarks(const RobustnessMap& map);

/// Finds the x where curves `a` and `b` cross (linear interpolation in
/// log-log space); returns -1 if they never cross.
double CrossoverX(const std::vector<double>& xs, const std::vector<double>& a,
                  const std::vector<double>& b);

/// The timing idiom every self-timing bench driver shares: a stopwatch
/// started at construction, read with `Seconds()`. Backed by
/// `MonotonicNowNs` — the tree's one sanctioned wall-clock entry point —
/// so the determinism lint can reject any other clock use outside the
/// trace module.
class WallTimer {
 public:
  WallTimer() : start_ns_(MonotonicNowNs()) {}
  double Seconds() const {
    return static_cast<double>(MonotonicNowNs() - start_ns_) * 1e-9;
  }

 private:
  int64_t start_ns_;
};

/// True iff the maps agree on shape, plan labels, and *every* field of
/// every cell — seconds, row counts, each I/O counter and byte totals. The determinism contract the self-checking benches assert; one
/// definition so no bench's notion of "bit-identical" can quietly weaken.
bool MapsBitIdentical(const RobustnessMap& a, const RobustnessMap& b);

}  // namespace robustmap::bench

#endif  // ROBUSTMAP_BENCH_BENCH_UTIL_H_
