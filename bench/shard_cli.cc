#include "shard_cli.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

namespace robustmap::bench {

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

bool ParseIntFlag(const std::string& arg, const std::string& name,
                  int* value) {
  std::string raw;
  if (!ParseFlag(arg, name, &raw)) return false;
  char* end = nullptr;
  errno = 0;
  long v = std::strtol(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0' || errno == ERANGE ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    // An unparseable value must not silently become some other number —
    // for --stride that would compute the wrong lattice under the right
    // tile names.
    return false;
  }
  *value = static_cast<int>(v);
  return true;
}

bool ParseGridFlag(const std::string& arg, ShardGrid* grid) {
  return ParseIntFlag(arg, "row-bits", &grid->row_bits) ||
         ParseIntFlag(arg, "min-log2", &grid->min_log2) ||
         ParseIntFlag(arg, "steps-per-octave", &grid->steps_per_octave) ||
         ParseFlag(arg, "plans", &grid->plan_set);
}

std::vector<std::string> GridArgs(const ShardGrid& grid) {
  return {"--row-bits=" + std::to_string(grid.row_bits),
          "--min-log2=" + std::to_string(grid.min_log2),
          "--steps-per-octave=" + std::to_string(grid.steps_per_octave),
          "--plans=" + grid.plan_set};
}

int ValueBitsFor(int row_bits) { return std::min(16, row_bits - 2); }

ParameterSpace MakeGridSpace(const ShardGrid& grid) {
  // Same clamp as ResolveScale: below 2^-value_bits every predicate
  // degenerates to a single domain value, so finer grid rows would be
  // duplicate measurements mislabeled as distinct selectivities.
  const int min_log2 = std::max(grid.min_log2, -ValueBitsFor(grid.row_bits));
  return ParameterSpace::TwoD(
      Axis::SelectivityFine("selectivity(a)", min_log2, 0,
                            grid.steps_per_octave),
      Axis::SelectivityFine("selectivity(b)", min_log2, 0,
                            grid.steps_per_octave));
}

std::vector<PlanKind> GridPlans(const ShardGrid& grid) {
  if (grid.plan_set == "all") return AllStudyPlans();
  if (grid.plan_set == "smoke") {
    return {PlanKind::kTableScan, PlanKind::kIndexAImproved,
            PlanKind::kMergeJoinAB, PlanKind::kMdamAB};
  }
  return {};
}

std::unique_ptr<StudyEnvironment> MakeGridEnvironment(const ShardGrid& grid) {
  StudyOptions opts;
  opts.row_bits = grid.row_bits;
  opts.value_bits = ValueBitsFor(grid.row_bits);
  return StudyEnvironment::Create(opts).ValueOrDie();
}

}  // namespace robustmap::bench
