#ifndef ROBUSTMAP_BENCH_SHARD_CLI_H_
#define ROBUSTMAP_BENCH_SHARD_CLI_H_

#include <memory>
#include <string>
#include <vector>

#include "core/parameter_space.h"
#include "engine/plan.h"
#include "workload/dataset.h"

namespace robustmap::bench {

/// The grid and scale a sharded sweep runs over, as shared between the
/// `sweep_shard` coordinator and the serving `sweep_worker`s it exec's. A
/// tile request's rectangle is only meaningful relative to an exact grid,
/// so both binaries parse — and the coordinator re-serializes — these
/// flags through this one struct.
struct ShardGrid {
  int row_bits = 16;
  int min_log2 = -8;
  int steps_per_octave = 1;
  std::string plan_set = "all";  ///< "all" (13 plans) or "smoke" (4)
};

/// "--name=value" parsing; returns false when `arg` doesn't start with
/// "--name=".
bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value);
bool ParseIntFlag(const std::string& arg, const std::string& name,
                  int* value);

/// Consumes one grid flag (--row-bits, --min-log2, --steps-per-octave,
/// --plans); returns false if `arg` is none of them.
bool ParseGridFlag(const std::string& arg, ShardGrid* grid);

/// Grid flags rendered back to argv form, for exec'ing workers.
std::vector<std::string> GridArgs(const ShardGrid& grid);

/// The value-domain bits a study at `row_bits` uses — the same derivation
/// as `ResolveScale`, shared so the grid clamp and the worker-built
/// databases can never disagree with the coordinator's.
int ValueBitsFor(int row_bits);

/// The 2-D selectivity space the grid describes.
ParameterSpace MakeGridSpace(const ShardGrid& grid);

/// The plans the grid's plan set names; empty for an unknown set.
std::vector<PlanKind> GridPlans(const ShardGrid& grid);

/// Study environment at the grid's scale (value domain derived from
/// row_bits exactly as `ResolveScale` does, so worker and coordinator
/// databases are identical).
std::unique_ptr<StudyEnvironment> MakeGridEnvironment(const ShardGrid& grid);

}  // namespace robustmap::bench

#endif  // ROBUSTMAP_BENCH_SHARD_CLI_H_
