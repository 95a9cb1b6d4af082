#ifndef ROBUSTMAP_ENGINE_PLAN_H_
#define ROBUSTMAP_ENGINE_PLAN_H_

#include <string>
#include <vector>

namespace robustmap {

/// The fixed query execution plans under study — the 13 distinct plans of
/// the paper's §3.3 ("the first system had only 7 plans for this simple
/// two-predicate query; the other two systems had 4 additional plans each
/// for a total of 13 distinct plans") plus the two "traditional" index
/// scans that only Figure 1's single-predicate study uses.
enum class PlanKind {
  // ---- System A: 7 plans for the two-predicate query ----
  kTableScan,        ///< full scan, all predicates applied per row
  kIndexAImproved,   ///< idx(a) range scan, sorted fetch, residual on b
  kIndexBImproved,   ///< idx(b) range scan, sorted fetch, residual on a
  kMergeJoinAB,      ///< idx(a) ∩ idx(b) via merge join (covering)
  kMergeJoinBA,      ///< same, opposite join order
  kHashJoinAB,       ///< build idx(a), probe idx(b) (covering)
  kHashJoinBA,       ///< build idx(b), probe idx(a)

  // ---- System B: +3 (two-column indexes; MVCC forces row fetches,
  //      bitmap-sorted — Figure 8) ----
  kCoverABBitmapFetch,  ///< idx(a,b) scan w/ in-index b filter, bitmap fetch
  kCoverBABitmapFetch,  ///< idx(b,a) scan w/ in-index a filter, bitmap fetch
  kBitmapAndFetch,      ///< idx(a) ∩ idx(b) via bitmap AND, bitmap fetch

  // ---- System C: +3 (two-column indexes fully exploited; MDAM [LJBY95],
  //      no fetch — Figure 9) ----
  kMdamAB,       ///< MDAM over idx(a,b), covering
  kMdamBA,       ///< MDAM over idx(b,a), covering
  kCoverABScan,  ///< idx(a,b) plain scan w/ in-index b filter, covering

  // ---- Figure 1 extras (not part of the 13-plan study) ----
  kIndexANaive,  ///< traditional index scan: fetch per rid in key order
  kIndexBNaive,
};

/// Number of distinct plans in the two-predicate study.
inline constexpr int kNumStudyPlans = 13;

/// Stable short label, e.g. "A.idx_a.improved".
std::string PlanKindLabel(PlanKind kind);

/// A named plan choice (the unit robustness maps are drawn for).
struct PlanSpec {
  PlanKind kind;
  std::string label;
};

/// All 13 study plans in canonical order.
std::vector<PlanKind> AllStudyPlans();

}  // namespace robustmap

#endif  // ROBUSTMAP_ENGINE_PLAN_H_
