#include "engine/plan.h"

namespace robustmap {

std::string PlanKindLabel(PlanKind kind) {
  switch (kind) {
    case PlanKind::kTableScan:
      return "A.tablescan";
    case PlanKind::kIndexAImproved:
      return "A.idx_a.improved";
    case PlanKind::kIndexBImproved:
      return "A.idx_b.improved";
    case PlanKind::kMergeJoinAB:
      return "A.mj(a,b)";
    case PlanKind::kMergeJoinBA:
      return "A.mj(b,a)";
    case PlanKind::kHashJoinAB:
      return "A.hj(a,b)";
    case PlanKind::kHashJoinBA:
      return "A.hj(b,a)";
    case PlanKind::kCoverABBitmapFetch:
      return "B.cover(a,b).bitmap";
    case PlanKind::kCoverBABitmapFetch:
      return "B.cover(b,a).bitmap";
    case PlanKind::kBitmapAndFetch:
      return "B.bitmap_and";
    case PlanKind::kMdamAB:
      return "C.mdam(a,b)";
    case PlanKind::kMdamBA:
      return "C.mdam(b,a)";
    case PlanKind::kCoverABScan:
      return "C.cover(a,b).scan";
    case PlanKind::kIndexANaive:
      return "A.idx_a.traditional";
    case PlanKind::kIndexBNaive:
      return "A.idx_b.traditional";
  }
  return "unknown";
}

std::vector<PlanKind> AllStudyPlans() {
  return {
      PlanKind::kTableScan,          PlanKind::kIndexAImproved,
      PlanKind::kIndexBImproved,     PlanKind::kMergeJoinAB,
      PlanKind::kMergeJoinBA,        PlanKind::kHashJoinAB,
      PlanKind::kHashJoinBA,         PlanKind::kCoverABBitmapFetch,
      PlanKind::kCoverBABitmapFetch, PlanKind::kBitmapAndFetch,
      PlanKind::kMdamAB,             PlanKind::kMdamBA,
      PlanKind::kCoverABScan,
  };
}

}  // namespace robustmap
