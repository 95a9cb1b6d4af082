#include "storage/procedural_table.h"

#include <gtest/gtest.h>

#include <map>

namespace robustmap {
namespace {

class ProceduralTableTest : public ::testing::Test {
 protected:
  ProceduralTableTest()
      : device_(DiskParameters{}, &clock_), pool_(&device_, 64) {
    ctx_.clock = &clock_;
    ctx_.device = &device_;
    ctx_.pool = &pool_;
  }
  VirtualClock clock_;
  SimDevice device_;
  BufferPool pool_;
  RunContext ctx_;
};

ProceduralTableOptions SmallOptions() {
  ProceduralTableOptions opts;
  opts.row_bits = 12;   // 4096 rows
  opts.value_bits = 6;  // 64 values, 64 duplicates each
  return opts;
}

TEST_F(ProceduralTableTest, ExactlyUniformValueCounts) {
  auto table = ProceduralTable::Create(&device_, SmallOptions()).ValueOrDie();
  for (uint32_t col = 0; col < 2; ++col) {
    std::map<int64_t, int> counts;
    for (Rid rid = 0; rid < table->num_rows(); ++rid) {
      ++counts[table->ValueAt(rid, col)];
    }
    ASSERT_EQ(counts.size(), 64u);
    for (const auto& [value, count] : counts) {
      ASSERT_GE(value, 0);
      ASSERT_LT(value, 64);
      ASSERT_EQ(count, 64) << "value " << value;
    }
  }
}

TEST_F(ProceduralTableTest, ColumnsAreDecorrelated) {
  auto table = ProceduralTable::Create(&device_, SmallOptions()).ValueOrDie();
  // Count rows where both columns land in the lower half of the domain:
  // should be ~1/4 of rows for independent columns.
  uint64_t both = 0;
  for (Rid rid = 0; rid < table->num_rows(); ++rid) {
    if (table->ValueAt(rid, 0) < 32 && table->ValueAt(rid, 1) < 32) ++both;
  }
  double frac = static_cast<double>(both) / table->num_rows();
  EXPECT_NEAR(frac, 0.25, 0.03);
}

TEST_F(ProceduralTableTest, ReadPageMatchesValueAt) {
  auto table = ProceduralTable::Create(&device_, SmallOptions()).ValueOrDie();
  std::vector<Row> rows;
  ASSERT_TRUE(table->ReadPage(&ctx_, 3, false, &rows).ok());
  ASSERT_EQ(rows.size(), table->rows_per_page());
  for (const Row& r : rows) {
    EXPECT_EQ(r.cols[0], table->ValueAt(r.rid, 0));
    EXPECT_EQ(r.cols[1], table->ValueAt(r.rid, 1));
  }
  EXPECT_EQ(rows.front().rid, 3u * table->rows_per_page());
}

TEST_F(ProceduralTableTest, FetchRowMatchesValueAt) {
  auto table = ProceduralTable::Create(&device_, SmallOptions()).ValueOrDie();
  Row r;
  ASSERT_TRUE(table->FetchRow(&ctx_, 1234, &r).ok());
  EXPECT_EQ(r.rid, 1234u);
  EXPECT_EQ(r.cols[0], table->ValueAt(1234, 0));
  EXPECT_EQ(r.cols[1], table->ValueAt(1234, 1));
}

TEST_F(ProceduralTableTest, FetchChargesIoAndCpu) {
  auto table = ProceduralTable::Create(&device_, SmallOptions()).ValueOrDie();
  Row r;
  ASSERT_TRUE(table->FetchRow(&ctx_, 0, &r).ok());
  EXPECT_GT(clock_.now_ns(), 0);
  EXPECT_EQ(device_.stats().total_reads(), 1u);
}

TEST_F(ProceduralTableTest, DeterministicAcrossInstances) {
  auto t1 = ProceduralTable::Create(&device_, SmallOptions()).ValueOrDie();
  auto t2 = ProceduralTable::Create(&device_, SmallOptions()).ValueOrDie();
  for (Rid rid = 0; rid < 100; ++rid) {
    EXPECT_EQ(t1->ValueAt(rid, 0), t2->ValueAt(rid, 0));
    EXPECT_EQ(t1->ValueAt(rid, 1), t2->ValueAt(rid, 1));
  }
}

TEST_F(ProceduralTableTest, SeedChangesContent) {
  auto opts = SmallOptions();
  auto t1 = ProceduralTable::Create(&device_, opts).ValueOrDie();
  opts.seed = 99;
  auto t2 = ProceduralTable::Create(&device_, opts).ValueOrDie();
  int same = 0;
  for (Rid rid = 0; rid < 1000; ++rid) {
    if (t1->ValueAt(rid, 0) == t2->ValueAt(rid, 0)) ++same;
  }
  EXPECT_LT(same, 100);  // ~1/64 expected by chance
}

TEST_F(ProceduralTableTest, RejectsBadOptions) {
  ProceduralTableOptions opts;
  opts.row_bits = 13;  // odd
  EXPECT_FALSE(ProceduralTable::Create(&device_, opts).ok());
  opts.row_bits = 12;
  opts.value_bits = 13;  // > row_bits
  EXPECT_FALSE(ProceduralTable::Create(&device_, opts).ok());
  opts.value_bits = 6;
  opts.num_columns = 0;
  EXPECT_FALSE(ProceduralTable::Create(&device_, opts).ok());
}

TEST_F(ProceduralTableTest, RowBitsRangeEndsAt32) {
  // Each column's Feistel round tables hold 4 x 2^(row_bits/2) entries, so
  // the domain stops at 2^32 rows (512 KiB of tables per column there).
  ProceduralTableOptions opts = SmallOptions();
  opts.row_bits = 32;
  auto table = ProceduralTable::Create(&device_, opts).ValueOrDie();
  EXPECT_EQ(table->num_rows(), uint64_t{1} << 32);
  EXPECT_LT(table->ValueAt(table->num_rows() - 1, 1), table->value_domain());
  opts.row_bits = 34;
  const Status status = ProceduralTable::Create(&device_, opts).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

TEST_F(ProceduralTableTest, OutOfRangeErrors) {
  auto table = ProceduralTable::Create(&device_, SmallOptions()).ValueOrDie();
  Row r;
  EXPECT_TRUE(table->FetchRow(&ctx_, table->num_rows(), &r).IsOutOfRange());
  std::vector<Row> rows;
  EXPECT_TRUE(
      table->ReadPage(&ctx_, table->num_pages(), false, &rows).IsOutOfRange());
}

}  // namespace
}  // namespace robustmap
