#ifndef ROBUSTMAP_ENGINE_EXECUTOR_H_
#define ROBUSTMAP_ENGINE_EXECUTOR_H_

#include <array>
#include <string>
#include <utility>

#include "common/status.h"
#include "engine/plan.h"
#include "engine/query.h"
#include "exec/operator.h"
#include "index/index.h"
#include "io/io_stats.h"
#include "storage/table.h"

namespace robustmap {

class FetchOp;
class IndexScanOp;
class TableScanOp;

/// Storage handles for the benchmark database: one two-column table and the
/// index complement the three systems need. `idx_ab` / `idx_ba` may be null
/// when studying System A alone.
struct StudyDb {
  const Table* table = nullptr;
  Index* idx_a = nullptr;   ///< single-column on a (column 0)
  Index* idx_b = nullptr;   ///< single-column on b (column 1)
  Index* idx_ab = nullptr;  ///< composite (a, b)
  Index* idx_ba = nullptr;  ///< composite (b, a)
  int64_t domain = 0;       ///< value domain of both columns
};

/// One measured plan execution — the datum a robustness map is built from.
struct Measurement {
  double seconds = 0;        ///< virtual elapsed time
  uint64_t output_rows = 0;  ///< result cardinality (correctness anchor)
  IoStats io;                ///< physical I/O behind the time
  std::string plan_label;
};

/// Builds operator trees for the fixed plan kinds and measures their
/// execution under controlled run-time conditions.
///
/// Every `Run` starts from `RunContext::ColdStart()`: the virtual clock
/// restarts, the device head position is forgotten, and the buffer pool is
/// set to whatever the context's `WarmupPolicy` prescribes — emptied by
/// default (the classic cold measurement), or preloaded / carried over for
/// warm-cache maps. Cells stay independent and deterministic for every
/// policy except `kPriorRun`, whose whole point is that cells inherit
/// their predecessor's cache.
class Executor {
 public:
  /// A plan kind whose storage requirements were validated once, with its
  /// label string materialized once — the per-cell invariants of a sweep
  /// (a sweep runs the same plan over thousands of cells, and neither the
  /// null-index checks nor the label allocation depend on the cell).
  /// Obtained from `Prepare()`; `BuildTree` turns it into the operator
  /// tree a machine reuses for every cell of the plan.
  class PreparedPlan {
   public:
    PlanKind kind() const { return kind_; }
    const std::string& label() const { return label_; }

   private:
    friend class Executor;
    PreparedPlan(PlanKind kind, std::string label)
        : kind_(kind), label_(std::move(label)) {}

    PlanKind kind_;
    std::string label_;
  };

  /// One plan's operator tree, built once and bound to each cell's
  /// predicate bounds before it runs: a sweep keeps one per plan and
  /// machine, so its operators keep their buffers from one cell to the
  /// next and a warmed cell allocates only its index cursors and its
  /// measurement's label copy. `BuildPlan` and `Run(ctx, kind, query)`
  /// build a tree and bind it the same way, so a reused tree measures
  /// bit-identically to a fresh one. Movable; not thread-safe — one
  /// machine runs it at a time.
  class PlanTree {
   public:
    const std::string& label() const { return label_; }
    Operator* root() const { return root_.get(); }

    /// Sets `query`'s predicate bounds in the tree's index scans, residual
    /// filters and table scan, for the next `Open`. Allocation-free once
    /// the tree has bound a query with as many active predicates.
    void Bind(const QuerySpec& query);

   private:
    friend class Executor;

    /// An index scan `Bind` sets: the predicate its leading key column
    /// takes (0: a, 1: b), and for a composite index whether it filters
    /// the other predicate in-index (when active) or navigates it by MDAM.
    struct ScanBinding {
      IndexScanOp* op = nullptr;
      int lead = 0;
      bool composite = false;
      bool mdam = false;
    };

    PlanTree(const PreparedPlan& plan, int64_t domain)
        : label_(plan.label()), domain_(domain) {}

    std::string label_;
    int64_t domain_;
    OperatorPtr root_;
    std::array<ScanBinding, 2> scans_{};
    /// A fetch filtering predicate `residual_` (0: a, 1: b) when active.
    FetchOp* residual_fetch_ = nullptr;
    int residual_ = 0;
    TableScanOp* table_scan_ = nullptr;
  };

  explicit Executor(const StudyDb& db) : db_(db) {}

  /// Constructs the (unopened) operator tree for `kind` under `query`:
  /// `BuildTree` of the prepared plan, bound to `query`.
  Result<OperatorPtr> BuildPlan(PlanKind kind, const QuerySpec& query) const;

  /// Validates that this database can execute `kind` (the table and every
  /// index the plan needs are bound) and returns the handle `BuildTree`
  /// takes, so a sweep validates and labels each plan once.
  Result<PreparedPlan> Prepare(PlanKind kind) const;

  /// The operator tree of `plan`, unbound: `Bind` it before each run.
  PlanTree BuildTree(const PreparedPlan& plan) const;

  /// Cold-runs the plan to completion on a fresh tree, counting output
  /// rows.
  Result<Measurement> Run(RunContext* ctx, PlanKind kind,
                          const QuerySpec& query) const;

  /// Binds `query` into `tree` and cold-runs it: the measurement a fresh
  /// tree would give, bit for bit, whatever `tree` ran before.
  Result<Measurement> Run(RunContext* ctx, PlanTree* tree,
                          const QuerySpec& query) const;

  const StudyDb& db() const { return db_; }

 private:
  /// The storage-requirement checks of `Prepare`.
  Status ValidatePlan(PlanKind kind) const;

  StudyDb db_;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_ENGINE_EXECUTOR_H_
