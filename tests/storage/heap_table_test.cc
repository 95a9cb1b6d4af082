#include "storage/heap_table.h"

#include <gtest/gtest.h>

namespace robustmap {
namespace {

class HeapTableTest : public ::testing::Test {
 protected:
  HeapTableTest() : device_(DiskParameters{}, &clock_), pool_(&device_, 64) {
    ctx_.clock = &clock_;
    ctx_.device = &device_;
    ctx_.pool = &pool_;
  }
  VirtualClock clock_;
  SimDevice device_;
  BufferPool pool_;
  RunContext ctx_;
};

TEST_F(HeapTableTest, AppendAndReadBack) {
  auto table =
      HeapTable::Create(&device_, 1000, HeapTableOptions{}).ValueOrDie();
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(table->Append(&ctx_, {i, i * 2, 0, 0}).ok());
  }
  ASSERT_TRUE(table->Finish(&ctx_).ok());
  EXPECT_EQ(table->num_rows(), 500u);

  std::vector<Row> rows;
  for (uint64_t p = 0; p < table->num_pages(); ++p) {
    ASSERT_TRUE(table->ReadPage(&ctx_, p, true, &rows).ok());
  }
  ASSERT_EQ(rows.size(), 500u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].rid, i);
    EXPECT_EQ(rows[i].cols[0], static_cast<int64_t>(i));
    EXPECT_EQ(rows[i].cols[1], static_cast<int64_t>(i) * 2);
  }
}

TEST_F(HeapTableTest, FetchRowMatchesAppended) {
  auto table =
      HeapTable::Create(&device_, 300, HeapTableOptions{}).ValueOrDie();
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(table->Append(&ctx_, {i * 7, -i, 0, 0}).ok());
  }
  ASSERT_TRUE(table->Finish(&ctx_).ok());
  Row r;
  ASSERT_TRUE(table->FetchRow(&ctx_, 123, &r).ok());
  EXPECT_EQ(r.rid, 123u);
  EXPECT_EQ(r.cols[0], 123 * 7);
  EXPECT_EQ(r.cols[1], -123);
  EXPECT_TRUE(r.HasCol(0));
  EXPECT_TRUE(r.HasCol(1));
  EXPECT_FALSE(r.HasCol(2));
}

TEST_F(HeapTableTest, RowsPerPageFromRowSize) {
  HeapTableOptions opts;
  opts.row_size_bytes = 128;
  auto table = HeapTable::Create(&device_, 1000, opts).ValueOrDie();
  // (8192 - 16-byte header) / 128 = 63 rows per page.
  EXPECT_EQ(table->rows_per_page(), 63u);
}

TEST_F(HeapTableTest, RejectsBadOptions) {
  HeapTableOptions opts;
  opts.num_columns = 0;
  EXPECT_TRUE(
      HeapTable::Create(&device_, 10, opts).status().IsInvalidArgument());
  opts.num_columns = 5;
  EXPECT_TRUE(
      HeapTable::Create(&device_, 10, opts).status().IsInvalidArgument());
  opts.num_columns = 4;
  opts.row_size_bytes = 8;  // too small for 4 columns
  EXPECT_TRUE(
      HeapTable::Create(&device_, 10, opts).status().IsInvalidArgument());
}

TEST_F(HeapTableTest, RejectsOverflowAndBadRids) {
  auto table = HeapTable::Create(&device_, 10, HeapTableOptions{}).ValueOrDie();
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(table->Append(&ctx_, {i, i, 0, 0}).ok());
  }
  ASSERT_TRUE(table->Finish(&ctx_).ok());
  Row r;
  EXPECT_TRUE(table->FetchRow(&ctx_, 10, &r).IsOutOfRange());
  std::vector<Row> rows;
  Status read_status = table->ReadPage(&ctx_, table->num_pages(), true, &rows);
  EXPECT_TRUE(read_status.IsOutOfRange());
  EXPECT_TRUE(table->Append(&ctx_, {0, 0, 0, 0}).IsInvalidArgument());
}

TEST_F(HeapTableTest, AppendsChargeWrites) {
  auto table =
      HeapTable::Create(&device_, 200, HeapTableOptions{}).ValueOrDie();
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(table->Append(&ctx_, {i, i, 0, 0}).ok());
  }
  ASSERT_TRUE(table->Finish(&ctx_).ok());
  EXPECT_EQ(device_.stats().writes, table->num_pages());
}

TEST_F(HeapTableTest, PageOfRidUsesExtentBase) {
  device_.AllocateExtent(17);  // shift the next extent
  auto table =
      HeapTable::Create(&device_, 300, HeapTableOptions{}).ValueOrDie();
  EXPECT_EQ(table->base_page(), 17u);
  EXPECT_EQ(table->PageOfRid(0), 17u);
  EXPECT_EQ(table->PageOfRid(table->rows_per_page()), 18u);
}

}  // namespace
}  // namespace robustmap
