#include "exec/predicate.h"

#include <gtest/gtest.h>

#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ProcEnv;

TEST(PredicateTest, UnpopulatedColumnRejectsRow) {
  ProcEnv env;
  // A row from idx(a) carries only column 0; a predicate on column 1 has
  // nothing to test against and must reject (predicates never pass on
  // missing data).
  Row row;
  row.SetCol(0, 5);
  EXPECT_TRUE(EvalPredicates(env.ctx(), {{0, 0, 63}}, row));
  EXPECT_FALSE(EvalPredicates(env.ctx(), {{1, 0, 63}}, row));
  row.SetCol(1, 5);
  EXPECT_TRUE(EvalPredicates(env.ctx(), {{0, 0, 63}, {1, 0, 63}}, row));
}

TEST(PredicateTest, ChargesPredicateCpu) {
  ProcEnv env;
  Row row;
  row.SetCol(0, 5);
  row.SetCol(1, 5);
  env.ctx()->clock->Reset();
  EXPECT_TRUE(EvalPredicates(env.ctx(), {}, row));
  const int64_t t_none = env.ctx()->clock->now_ns();
  EXPECT_TRUE(EvalPredicates(env.ctx(), {{0, 0, 63}, {1, 0, 63}}, row));
  EXPECT_GT(env.ctx()->clock->now_ns(), t_none);
}

}  // namespace
}  // namespace robustmap
