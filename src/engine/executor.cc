#include "engine/executor.h"

#include "exec/bitmap_ops.h"
#include "exec/fetch.h"
#include "exec/hash_join.h"
#include "exec/index_scan.h"
#include "exec/merge_join.h"
#include "exec/predicate.h"
#include "exec/table_scan.h"

namespace robustmap {

namespace {

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

std::vector<RangePredicate> ActivePredicates(const QuerySpec& q) {
  std::vector<RangePredicate> preds;
  if (q.pred_a.active) preds.push_back({0, q.pred_a.lo, q.pred_a.hi});
  if (q.pred_b.active) preds.push_back({1, q.pred_b.lo, q.pred_b.hi});
  return preds;
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
  return BuildPlanUnchecked(kind, query);
}

Result<OperatorPtr> Executor::BuildPlanUnchecked(PlanKind kind,
                                                 const QuerySpec& query) const {
  int64_t a_lo, a_hi, b_lo, b_hi;
  PredRange(query.pred_a, db_.domain, &a_lo, &a_hi);
  PredRange(query.pred_b, db_.domain, &b_lo, &b_hi);

  auto single_index_scan = [&](Index* idx, int64_t lo,
                               int64_t hi) -> OperatorPtr {
    IndexScanOptions o;
    o.k0_lo = lo;
    o.k0_hi = hi;
    return std::make_unique<IndexScanOp>(idx, o);
  };

  auto cover_scan = [&](Index* idx, int64_t lo0, int64_t hi0, bool filter,
                        int64_t lo1, int64_t hi1, bool mdam) -> OperatorPtr {
    IndexScanOptions o;
    o.k0_lo = lo0;
    o.k0_hi = hi0;
    o.filter_k1 = filter;
    o.k1_lo = lo1;
    o.k1_hi = hi1;
    o.use_mdam = mdam;
    o.k0_domain = db_.domain;
    o.k1_domain = db_.domain;
    return std::make_unique<IndexScanOp>(idx, o);
  };

  switch (kind) {
    case PlanKind::kTableScan:
      return OperatorPtr(
          std::make_unique<TableScanOp>(db_.table, ActivePredicates(query)));

    case PlanKind::kIndexAImproved:
    case PlanKind::kIndexANaive: {
      std::vector<RangePredicate> residual;
      if (query.pred_b.active) {
        residual.push_back({1, query.pred_b.lo, query.pred_b.hi});
      }
      FetchPolicy policy = kind == PlanKind::kIndexAImproved
                               ? FetchPolicy::kSorted
                               : FetchPolicy::kNaive;
      return OperatorPtr(std::make_unique<FetchOp>(
          single_index_scan(db_.idx_a, a_lo, a_hi), db_.table, policy,
          std::move(residual)));
    }

    case PlanKind::kIndexBImproved:
    case PlanKind::kIndexBNaive: {
      std::vector<RangePredicate> residual;
      if (query.pred_a.active) {
        residual.push_back({0, query.pred_a.lo, query.pred_a.hi});
      }
      FetchPolicy policy = kind == PlanKind::kIndexBImproved
                               ? FetchPolicy::kSorted
                               : FetchPolicy::kNaive;
      return OperatorPtr(std::make_unique<FetchOp>(
          single_index_scan(db_.idx_b, b_lo, b_hi), db_.table, policy,
          std::move(residual)));
    }

    case PlanKind::kMergeJoinAB:
    case PlanKind::kMergeJoinBA: {
      auto left = single_index_scan(db_.idx_a, a_lo, a_hi);
      auto right = single_index_scan(db_.idx_b, b_lo, b_hi);
      if (kind == PlanKind::kMergeJoinBA) std::swap(left, right);
      return OperatorPtr(
          std::make_unique<MergeJoinOp>(std::move(left), std::move(right)));
    }

    case PlanKind::kHashJoinAB:
    case PlanKind::kHashJoinBA: {
      auto build = single_index_scan(db_.idx_a, a_lo, a_hi);
      auto probe = single_index_scan(db_.idx_b, b_lo, b_hi);
      if (kind == PlanKind::kHashJoinBA) std::swap(build, probe);
      return OperatorPtr(
          std::make_unique<HashJoinOp>(std::move(build), std::move(probe)));
    }

    case PlanKind::kCoverABBitmapFetch: {
      auto scan = cover_scan(db_.idx_ab, a_lo, a_hi, query.pred_b.active,
                             b_lo, b_hi, /*mdam=*/false);
      // MVCC: System B must fetch the row versions even though the index
      // covers the query; the predicates were already applied in-index.
      return OperatorPtr(std::make_unique<FetchOp>(
          std::move(scan), db_.table, FetchPolicy::kBitmap,
          std::vector<RangePredicate>{}));
    }

    case PlanKind::kCoverBABitmapFetch: {
      auto scan = cover_scan(db_.idx_ba, b_lo, b_hi, query.pred_a.active,
                             a_lo, a_hi, /*mdam=*/false);
      return OperatorPtr(std::make_unique<FetchOp>(
          std::move(scan), db_.table, FetchPolicy::kBitmap,
          std::vector<RangePredicate>{}));
    }

    case PlanKind::kBitmapAndFetch: {
      auto intersect = std::make_unique<BitmapAndOp>(
          single_index_scan(db_.idx_a, a_lo, a_hi),
          single_index_scan(db_.idx_b, b_lo, b_hi), db_.table->num_rows());
      return OperatorPtr(std::make_unique<FetchOp>(
          std::move(intersect), db_.table, FetchPolicy::kBitmap,
          std::vector<RangePredicate>{}));
    }

    case PlanKind::kMdamAB: {
      return cover_scan(db_.idx_ab, a_lo, a_hi, /*filter=*/true, b_lo, b_hi,
                        /*mdam=*/true);
    }

    case PlanKind::kMdamBA: {
      return cover_scan(db_.idx_ba, b_lo, b_hi, /*filter=*/true, a_lo, a_hi,
                        /*mdam=*/true);
    }

    case PlanKind::kCoverABScan: {
      return cover_scan(db_.idx_ab, a_lo, a_hi, query.pred_b.active, b_lo,
                        b_hi, /*mdam=*/false);
    }
  }
  return Status::InvalidArgument("unknown plan kind");
}

namespace {

/// The one measurement sequence both `Run` overloads share: cold start,
/// drain, read the clock and the I/O delta. `label` is copied into the
/// measurement last so callers can pass a prepared plan's cached string.
Result<Measurement> MeasurePlan(RunContext* ctx, Operator* plan,
                                const std::string& label) {
  // Cold start: independent, reproducible map cells.
  ctx->ColdStart();
  IoStats before = ctx->device->stats();
  VirtualStopwatch watch(ctx->clock);

  auto rows = DrainCount(ctx, plan);
  RM_RETURN_IF_ERROR(rows.status());

  Measurement m;
  m.seconds = watch.elapsed_seconds();
  m.output_rows = rows.value();
  m.io = ctx->device->stats().Delta(before);
  m.plan_label = label;
  return m;
}

}  // namespace

Result<Executor::PreparedPlan> Executor::Prepare(PlanKind kind) const {
  RM_RETURN_IF_ERROR(ValidatePlan(kind));
  return PreparedPlan(kind, PlanKindLabel(kind));
}

Result<Measurement> Executor::Run(RunContext* ctx, PlanKind kind,
                                  const QuerySpec& query) const {
  auto plan = BuildPlan(kind, query);
  RM_RETURN_IF_ERROR(plan.status());
  return MeasurePlan(ctx, plan.value().get(), PlanKindLabel(kind));
}

Result<Measurement> Executor::Run(RunContext* ctx, const PreparedPlan& plan,
                                  const QuerySpec& query) const {
  auto tree = BuildPlanUnchecked(plan.kind(), query);
  RM_RETURN_IF_ERROR(tree.status());
  return MeasurePlan(ctx, tree.value().get(), plan.label());
}

}  // namespace robustmap
