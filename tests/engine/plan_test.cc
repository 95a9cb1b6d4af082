#include "engine/plan.h"

#include <gtest/gtest.h>

#include <set>

#include "engine/plan_enumerator.h"
#include "engine/query.h"
#include "engine/system.h"

namespace robustmap {
namespace {

TEST(PlanTest, ThirteenDistinctStudyPlans) {
  auto plans = AllStudyPlans();
  EXPECT_EQ(plans.size(), static_cast<size_t>(kNumStudyPlans));
  std::set<PlanKind> distinct(plans.begin(), plans.end());
  EXPECT_EQ(distinct.size(), plans.size());
}

TEST(PlanTest, LabelsAreUnique) {
  std::set<std::string> labels;
  for (PlanKind k : AllStudyPlans()) labels.insert(PlanKindLabel(k));
  labels.insert(PlanKindLabel(PlanKind::kIndexANaive));
  labels.insert(PlanKindLabel(PlanKind::kIndexBNaive));
  EXPECT_EQ(labels.size(), 15u);
}

TEST(PlanTest, SystemAttribution) {
  // The paper's §3.3 accounting: 7 + 3 + 3 = 13, each study plan
  // introduced by exactly one system.
  std::set<PlanKind> seen;
  for (const SystemConfig& sys : SystemConfig::AllSystems()) {
    for (PlanKind k : sys.plans) EXPECT_TRUE(seen.insert(k).second);
  }
  auto study = AllStudyPlans();
  EXPECT_EQ(seen, std::set<PlanKind>(study.begin(), study.end()));
}

TEST(SystemConfigTest, SystemsExposeTheirPlans) {
  EXPECT_EQ(SystemConfig::SystemA().plans.size(), 7u);
  EXPECT_EQ(SystemConfig::SystemB().plans.size(), 3u);
  EXPECT_EQ(SystemConfig::SystemC().plans.size(), 3u);
  // A plan's label names the system that introduces it.
  for (PlanKind k : SystemConfig::SystemA().plans) {
    EXPECT_EQ(PlanKindLabel(k)[0], 'A');
  }
  for (PlanKind k : SystemConfig::SystemB().plans) {
    EXPECT_EQ(PlanKindLabel(k)[0], 'B');
  }
  for (PlanKind k : SystemConfig::SystemC().plans) {
    EXPECT_EQ(PlanKindLabel(k)[0], 'C');
  }
}

TEST(PlanEnumeratorTest, PerSystemCountsAndTotal) {
  QuerySpec q = MakeStudyQuery(0.5, 0.5, 1024);
  size_t total = 0;
  for (const SystemConfig& sys : SystemConfig::AllSystems()) {
    total += EnumeratePlans(sys, q).size();
  }
  EXPECT_EQ(total, 13u);
}

TEST(QuerySpecTest, MakePredicateCalibration) {
  PredicateSpec p = MakePredicate(0.25, 1024);
  EXPECT_TRUE(p.active);
  EXPECT_EQ(p.lo, 0);
  EXPECT_EQ(p.hi, 255);
  EXPECT_DOUBLE_EQ(p.selectivity, 0.25);
  // Clamps tiny selectivities to at least one value.
  p = MakePredicate(1e-9, 1024);
  EXPECT_EQ(p.hi, 0);
  EXPECT_DOUBLE_EQ(p.selectivity, 1.0 / 1024);
  // Clamps to the full domain.
  p = MakePredicate(5.0, 1024);
  EXPECT_EQ(p.hi, 1023);
  // Negative deactivates.
  EXPECT_FALSE(MakePredicate(-1, 1024).active);
}

TEST(QuerySpecTest, ToStringMentionsPredicates) {
  QuerySpec q = MakeStudyQuery(0.5, -1, 1024);
  EXPECT_NE(q.ToString().find("a in"), std::string::npos);
  EXPECT_EQ(q.ToString().find("b in"), std::string::npos);
}

}  // namespace
}  // namespace robustmap
