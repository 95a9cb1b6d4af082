#ifndef ROBUSTMAP_WORKLOAD_DISTRIBUTIONS_H_
#define ROBUSTMAP_WORKLOAD_DISTRIBUTIONS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "engine/executor.h"
#include "index/btree.h"
#include "io/run_context.h"
#include "storage/heap_table.h"

namespace robustmap {

/// Zipf(θ) sampler over [0, n) by inverse-CDF lookup; θ = 0 degenerates to
/// uniform. Skewed columns are the paper's "skew (non-uniform value
/// distributions and duplicate key values)" robustness factor (§3).
class ZipfDistribution {
 public:
  ZipfDistribution(uint64_t n, double theta);

  uint64_t Sample(Rng* rng) const;

  /// Probability mass of value `v`.
  double Pmf(uint64_t v) const;

 private:
  std::vector<double> cdf_;
};

/// Options for a fully materialized (heap + real B-tree) study database.
struct HeapDatasetOptions {
  uint64_t rows = 20000;
  int64_t domain = 1024;
  uint64_t seed = 7;
  /// Probability that column b copies column a (predicate correlation; 0 =
  /// independent). Correlated predicates break the s_a × s_b cardinality
  /// assumption — a classic robustness hazard.
  double correlation = 0.0;
  /// Zipf skew of both columns (0 = uniform).
  double zipf_theta = 0.0;
  bool build_composite_indexes = true;
};

/// A real, materialized two-column database: heap table plus B-trees, for
/// tests, examples, and small-scale studies on genuine storage structures.
struct HeapStudyDataset {
  std::unique_ptr<HeapTable> table;
  std::unique_ptr<BTree> idx_a, idx_b, idx_ab, idx_ba;
  int64_t domain = 0;

  /// Handle bundle consumable by `Executor`.
  StudyDb db() const;
};

/// Generates rows, loads the heap table, and bulk-loads all indexes.
Result<HeapStudyDataset> BuildHeapStudyDataset(RunContext* ctx,
                                               SimDevice* device,
                                               const HeapDatasetOptions& opts);

}  // namespace robustmap

#endif  // ROBUSTMAP_WORKLOAD_DISTRIBUTIONS_H_
