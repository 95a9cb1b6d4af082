// Property test over seeded random environments: at every sampled cell all
// 13 study plans return the same result, equal to a brute-force reference,
// and the bitmap-ordered plans emit it as ascending, unique rids. Tables
// of 2^6..2^12 rows keep the bitmaps below one 4,096-rid summary block or
// end them in a partial one.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ProcEnv;

bool EmitsInRidOrder(PlanKind kind) {
  return kind == PlanKind::kCoverABBitmapFetch ||
         kind == PlanKind::kCoverBABitmapFetch ||
         kind == PlanKind::kBitmapAndFetch;
}

/// A selectivity drawn log-uniformly from [2^-(row_bits + 1), 1].
double RandomSelectivity(Rng* rng, int row_bits) {
  return std::exp2(-rng->NextDouble() * (row_bits + 1));
}

TEST(PlanPropertyTest, AllPlansAgreeAndBitmapPlansEmitAscendingRids) {
  Rng rng(0x70726f70);
  constexpr int kCellsPerEnv = 6;
  for (int row_bits : {6, 8, 10, 12}) {
    const int value_bits = static_cast<int>(rng.NextInRange(1, row_bits));
    const uint64_t seed = rng.Next();
    SCOPED_TRACE("row_bits " + std::to_string(row_bits) + " value_bits " +
                 std::to_string(value_bits) + " seed " +
                 std::to_string(seed));
    ProcEnv env(row_bits, value_bits, seed);
    Executor executor(env.db());
    for (int cell = 0; cell < kCellsPerEnv; ++cell) {
      const double sel_a = RandomSelectivity(&rng, row_bits);
      const double sel_b = RandomSelectivity(&rng, row_bits);
      SCOPED_TRACE("selectivities " + std::to_string(sel_a) + ", " +
                   std::to_string(sel_b));
      const QuerySpec q = MakeStudyQuery(sel_a, sel_b, env.domain());
      const std::set<Rid> want = env.MatchingRids(q.pred_a.lo, q.pred_a.hi,
                                                  q.pred_b.lo, q.pred_b.hi);
      for (PlanKind kind : AllStudyPlans()) {
        SCOPED_TRACE(PlanKindLabel(kind));
        auto m = executor.Run(env.ctx(), kind, q);
        ASSERT_TRUE(m.ok()) << m.status().ToString();
        EXPECT_EQ(m.value().output_rows, want.size());
        if (!EmitsInRidOrder(kind)) continue;

        auto plan = executor.BuildPlan(kind, q);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        Operator* root = plan.value().get();
        ASSERT_TRUE(root->Open(env.ctx()).ok());
        std::vector<Rid> rids;
        Row row;
        while (root->Next(env.ctx(), &row)) rids.push_back(row.rid);
        ASSERT_TRUE(root->status().ok());
        root->Close(env.ctx());
        for (size_t i = 1; i < rids.size(); ++i) {
          ASSERT_LT(rids[i - 1], rids[i]) << "at position " << i;
        }
        EXPECT_EQ(std::set<Rid>(rids.begin(), rids.end()), want);
      }
    }
  }
}

}  // namespace
}  // namespace robustmap
