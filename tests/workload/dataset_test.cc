#include "workload/dataset.h"

#include <gtest/gtest.h>

namespace robustmap {
namespace {

StudyOptions SmallOptions() {
  StudyOptions opts;
  opts.row_bits = 12;
  opts.value_bits = 6;
  return opts;
}

TEST(StudyEnvironmentTest, CreatesAllStorageObjects) {
  auto env = StudyEnvironment::Create(SmallOptions()).ValueOrDie();
  EXPECT_EQ(env->table().num_rows(), 4096u);
  EXPECT_NE(env->db().idx_a, nullptr);
  EXPECT_NE(env->db().idx_b, nullptr);
  EXPECT_NE(env->db().idx_ab, nullptr);
  EXPECT_NE(env->db().idx_ba, nullptr);
  EXPECT_EQ(env->domain(), 64);
}

TEST(StudyEnvironmentTest, CompositeIndexesOptional) {
  StudyOptions opts = SmallOptions();
  opts.build_composite_indexes = false;
  auto env = StudyEnvironment::Create(opts).ValueOrDie();
  EXPECT_NE(env->db().idx_a, nullptr);
  EXPECT_NE(env->db().idx_b, nullptr);
  EXPECT_EQ(env->db().idx_ab, nullptr);
  EXPECT_EQ(env->db().idx_ba, nullptr);
}

TEST(StudyEnvironmentTest, AutoMemoryDefaults) {
  auto env = StudyEnvironment::Create(SmallOptions()).ValueOrDie();
  EXPECT_EQ(env->ctx()->sort_memory_bytes,
            std::max<uint64_t>(4096, env->table().num_rows() / 4));
  EXPECT_EQ(env->ctx()->hash_memory_bytes, env->table().num_rows());
  EXPECT_GE(env->ctx()->pool->capacity_pages(), 256u);
}

TEST(StudyEnvironmentTest, ExplicitMemoryOverrides) {
  StudyOptions opts = SmallOptions();
  opts.sort_memory_bytes = 12345;
  opts.hash_memory_bytes = 999;
  opts.pool_pages = 7;
  auto env = StudyEnvironment::Create(opts).ValueOrDie();
  EXPECT_EQ(env->ctx()->sort_memory_bytes, 12345u);
  EXPECT_EQ(env->ctx()->hash_memory_bytes, 999u);
  EXPECT_EQ(env->ctx()->pool->capacity_pages(), 7u);
}

TEST(StudyEnvironmentTest, MakeQueryCalibrates) {
  auto env = StudyEnvironment::Create(SmallOptions()).ValueOrDie();
  QuerySpec q = env->MakeQuery(0.25, -1);
  EXPECT_TRUE(q.pred_a.active);
  EXPECT_FALSE(q.pred_b.active);
  EXPECT_EQ(q.pred_a.hi, 15);
  EXPECT_EQ(q.domain, 64);
  // The calibrated selectivity is exact for the procedural data: count rows.
  uint64_t count = 0;
  for (Rid rid = 0; rid < env->table().num_rows(); ++rid) {
    if (env->table().ValueAt(rid, 0) <= q.pred_a.hi) ++count;
  }
  EXPECT_EQ(count, env->table().num_rows() / 4);
}

TEST(StudyEnvironmentTest, RejectsBadOptions) {
  StudyOptions opts = SmallOptions();
  opts.row_bits = 11;  // odd
  EXPECT_FALSE(StudyEnvironment::Create(opts).ok());
}

}  // namespace
}  // namespace robustmap
