#include "engine/executor.h"

#include <initializer_list>
#include <span>

#include "exec/bitmap_ops.h"
#include "exec/fetch.h"
#include "exec/hash_join.h"
#include "exec/index_scan.h"
#include "exec/merge_join.h"
#include "exec/predicate.h"
#include "exec/table_scan.h"

namespace robustmap {

namespace {

// The predicate slots of a study query (a on column 0, b on column 1), as
// `PlanTree` indexes them.
constexpr int kA = 0;
constexpr int kB = 1;

// Inclusive range for a predicate, widened to the whole domain if inactive.
void PredRange(const PredicateSpec& pred, int64_t domain, int64_t* lo,
               int64_t* hi) {
  if (pred.active) {
    *lo = pred.lo;
    *hi = pred.hi;
  } else {
    *lo = 0;
    *hi = domain - 1;
  }
}

}  // namespace

Status Executor::ValidatePlan(PlanKind kind) const {
  if (db_.table == nullptr) return Status::InvalidArgument("no table bound");

  auto require = [](Index* idx, const char* what) -> Status {
    if (idx == nullptr) {
      return Status::InvalidArgument(std::string("plan requires ") + what);
    }
    return Status::OK();
  };

  switch (kind) {
    case PlanKind::kTableScan:
      return Status::OK();

    case PlanKind::kIndexAImproved:
    case PlanKind::kIndexANaive:
      return require(db_.idx_a, "idx(a)");

    case PlanKind::kIndexBImproved:
    case PlanKind::kIndexBNaive:
      return require(db_.idx_b, "idx(b)");

    case PlanKind::kMergeJoinAB:
    case PlanKind::kMergeJoinBA:
    case PlanKind::kHashJoinAB:
    case PlanKind::kHashJoinBA:
    case PlanKind::kBitmapAndFetch: {
      RM_RETURN_IF_ERROR(require(db_.idx_a, "idx(a)"));
      return require(db_.idx_b, "idx(b)");
    }

    case PlanKind::kCoverABBitmapFetch:
    case PlanKind::kMdamAB:
    case PlanKind::kCoverABScan:
      return require(db_.idx_ab, "idx(a,b)");

    case PlanKind::kCoverBABitmapFetch:
    case PlanKind::kMdamBA:
      return require(db_.idx_ba, "idx(b,a)");
  }
  return Status::InvalidArgument("unknown plan kind");
}

Result<OperatorPtr> Executor::BuildPlan(PlanKind kind,
                                        const QuerySpec& query) const {
  RM_RETURN_IF_ERROR(ValidatePlan(kind));
  // A bare operator tree carries no label: skip `Prepare`'s allocation.
  PlanTree tree = BuildTree(PreparedPlan(kind, std::string()));
  tree.Bind(query);
  return std::move(tree.root_);
}

Executor::PlanTree Executor::BuildTree(const PreparedPlan& plan) const {
  PlanTree t(plan, db_.domain);
  size_t num_scans = 0;
  // A scan of `idx` whose leading key column takes predicate `lead`.
  auto scan = [&](Index* idx, int lead, bool composite = false,
                  bool mdam = false) -> OperatorPtr {
    auto op = std::make_unique<IndexScanOp>(idx, IndexScanOptions{});
    t.scans_[num_scans++] = {op.get(), lead, composite, mdam};
    return op;
  };
  // A fetch of `child`'s rids; `residual`, when active, filters the rows.
  auto fetch = [&](OperatorPtr child, FetchPolicy policy,
                   int residual) -> OperatorPtr {
    std::vector<RangePredicate> none;
    auto op = std::make_unique<FetchOp>(std::move(child), db_.table, policy,
                                        std::move(none));
    t.residual_fetch_ = op.get();
    t.residual_ = residual;
    return op;
  };
  // MVCC: System B must fetch the row versions even though the index
  // covers the query; the predicates were already applied in-index.
  auto bitmap_fetch = [&](OperatorPtr child) -> OperatorPtr {
    std::vector<RangePredicate> none;
    return std::make_unique<FetchOp>(std::move(child), db_.table,
                                     FetchPolicy::kBitmap, std::move(none));
  };

  switch (plan.kind()) {
    case PlanKind::kTableScan: {
      std::vector<RangePredicate> none;
      auto op = std::make_unique<TableScanOp>(db_.table, std::move(none));
      t.table_scan_ = op.get();
      t.root_ = std::move(op);
      break;
    }

    case PlanKind::kIndexAImproved:
      t.root_ = fetch(scan(db_.idx_a, kA), FetchPolicy::kSorted, kB);
      break;

    case PlanKind::kIndexANaive:
      t.root_ = fetch(scan(db_.idx_a, kA), FetchPolicy::kNaive, kB);
      break;

    case PlanKind::kIndexBImproved:
      t.root_ = fetch(scan(db_.idx_b, kB), FetchPolicy::kSorted, kA);
      break;

    case PlanKind::kIndexBNaive:
      t.root_ = fetch(scan(db_.idx_b, kB), FetchPolicy::kNaive, kA);
      break;

    case PlanKind::kMergeJoinAB:
    case PlanKind::kMergeJoinBA: {
      OperatorPtr a = scan(db_.idx_a, kA);
      OperatorPtr b = scan(db_.idx_b, kB);
      if (plan.kind() == PlanKind::kMergeJoinBA) std::swap(a, b);
      t.root_ = std::make_unique<MergeJoinOp>(std::move(a), std::move(b));
      break;
    }

    case PlanKind::kHashJoinAB:
    case PlanKind::kHashJoinBA: {
      // Builds on the first child, probes with the second.
      OperatorPtr a = scan(db_.idx_a, kA);
      OperatorPtr b = scan(db_.idx_b, kB);
      if (plan.kind() == PlanKind::kHashJoinBA) std::swap(a, b);
      t.root_ = std::make_unique<HashJoinOp>(std::move(a), std::move(b));
      break;
    }

    case PlanKind::kCoverABBitmapFetch:
      t.root_ = bitmap_fetch(scan(db_.idx_ab, kA, /*composite=*/true));
      break;

    case PlanKind::kCoverBABitmapFetch:
      t.root_ = bitmap_fetch(scan(db_.idx_ba, kB, /*composite=*/true));
      break;

    case PlanKind::kBitmapAndFetch: {
      const uint64_t rows = db_.table->num_rows();
      OperatorPtr a = scan(db_.idx_a, kA);
      OperatorPtr b = scan(db_.idx_b, kB);
      t.root_ = bitmap_fetch(
          std::make_unique<BitmapAndOp>(std::move(a), std::move(b), rows));
      break;
    }

    case PlanKind::kMdamAB:
      t.root_ = scan(db_.idx_ab, kA, /*composite=*/true, /*mdam=*/true);
      break;

    case PlanKind::kMdamBA:
      t.root_ = scan(db_.idx_ba, kB, /*composite=*/true, /*mdam=*/true);
      break;

    case PlanKind::kCoverABScan:
      t.root_ = scan(db_.idx_ab, kA, /*composite=*/true);
      break;
  }
  return t;
}

void Executor::PlanTree::Bind(const QuerySpec& query) {
  const PredicateSpec* const preds[2] = {&query.pred_a, &query.pred_b};
  std::array<int64_t, 2> lo{};
  std::array<int64_t, 2> hi{};
  for (int p : {kA, kB}) PredRange(*preds[p], domain_, &lo[p], &hi[p]);

  for (const ScanBinding& s : scans_) {
    if (s.op == nullptr) continue;
    const int other = s.lead == kA ? kB : kA;
    IndexScanOptions o;
    o.k0_lo = lo[s.lead];
    o.k0_hi = hi[s.lead];
    if (s.composite) {
      o.filter_k1 = s.mdam || preds[other]->active;
      o.k1_lo = lo[other];
      o.k1_hi = hi[other];
      o.use_mdam = s.mdam;
      o.k0_domain = domain_;
      o.k1_domain = domain_;
    }
    s.op->set_options(o);
  }

  // Row filters for the active predicates among `wanted` (predicate p
  // filters column p).
  std::array<RangePredicate, 2> active;
  const auto filter = [&](std::initializer_list<int> wanted) {
    size_t n = 0;
    for (int p : wanted) {
      if (preds[p]->active) {
        active[n++] = {static_cast<uint32_t>(p), preds[p]->lo, preds[p]->hi};
      }
    }
    return std::span<const RangePredicate>(active.data(), n);
  };
  if (residual_fetch_ != nullptr) {
    residual_fetch_->set_residual(filter({residual_}));
  }
  if (table_scan_ != nullptr) table_scan_->set_predicates(filter({kA, kB}));
}

Result<Executor::PreparedPlan> Executor::Prepare(PlanKind kind) const {
  RM_RETURN_IF_ERROR(ValidatePlan(kind));
  return PreparedPlan(kind, PlanKindLabel(kind));
}

Result<Measurement> Executor::Run(RunContext* ctx, PlanKind kind,
                                  const QuerySpec& query) const {
  auto prepared = Prepare(kind);
  RM_RETURN_IF_ERROR(prepared.status());
  PlanTree tree = BuildTree(prepared.value());
  return Run(ctx, &tree, query);
}

Result<Measurement> Executor::Run(RunContext* ctx, PlanTree* tree,
                                  const QuerySpec& query) const {
  tree->Bind(query);
  // Cold start: independent, reproducible map cells.
  ctx->ColdStart();
  IoStats before = ctx->device->stats();
  VirtualStopwatch watch(ctx->clock);

  auto rows = DrainCount(ctx, tree->root());
  RM_RETURN_IF_ERROR(rows.status());

  Measurement m;
  m.seconds = watch.elapsed_seconds();
  m.output_rows = rows.value();
  m.io = ctx->device->stats().Delta(before);
  m.plan_label = tree->label();
  return m;
}

}  // namespace robustmap
