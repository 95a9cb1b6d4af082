#include "index/mdam.h"

#include <gtest/gtest.h>

#include <set>

#include "index/procedural_index.h"

namespace robustmap {
namespace {

class MdamTest : public ::testing::Test {
 protected:
  MdamTest() : device_(DiskParameters{}, &clock_), pool_(&device_, 4096) {
    ctx_.clock = &clock_;
    ctx_.device = &device_;
    ctx_.pool = &pool_;
    ProceduralTableOptions topts;
    topts.row_bits = 12;
    topts.value_bits = 6;
    table_ = ProceduralTable::Create(&device_, topts).ValueOrDie();
    ProceduralIndexOptions iopts;
    iopts.key_columns = {0, 1};
    iopts.entries_per_leaf = 64;
    index_ =
        ProceduralIndex::Create(&device_, table_.get(), iopts).ValueOrDie();
  }

  // Brute-force reference: rids with a in [a_lo,a_hi] and b in [b_lo,b_hi].
  std::set<Rid> Reference(int64_t a_lo, int64_t a_hi, int64_t b_lo,
                          int64_t b_hi) {
    std::set<Rid> out;
    for (Rid rid = 0; rid < table_->num_rows(); ++rid) {
      int64_t a = table_->ValueAt(rid, 0);
      int64_t b = table_->ValueAt(rid, 1);
      if (a >= a_lo && a <= a_hi && b >= b_lo && b <= b_hi) out.insert(rid);
    }
    return out;
  }

  std::set<Rid> Collect(const MdamOptions& opts) {
    auto cursor = MdamCursor::Create(&ctx_, index_.get(), opts);
    std::set<Rid> out;
    while (cursor->Valid()) {
      out.insert(cursor->entry().rid);
      cursor->Next(&ctx_);
    }
    return out;
  }

  VirtualClock clock_;
  SimDevice device_;
  BufferPool pool_;
  RunContext ctx_;
  std::unique_ptr<ProceduralTable> table_;
  std::unique_ptr<ProceduralIndex> index_;
};

// Both strategies must produce exactly the brute-force result on a grid of
// range shapes (property-style sweep).
class MdamModeTest
    : public MdamTest,
      public ::testing::WithParamInterface<MdamOptions::Mode> {};

TEST_P(MdamModeTest, MatchesBruteForceOnRangeGrid) {
  struct Range {
    int64_t a_lo, a_hi, b_lo, b_hi;
  } ranges[] = {
      {0, 63, 0, 63},   // everything
      {0, 0, 0, 0},     // single cell
      {10, 20, 5, 6},   // narrow b: skip-scan territory
      {0, 63, 31, 31},  // all a, single b
      {5, 5, 0, 63},    // single a, all b
      {60, 63, 60, 63},
      {0, 31, 32, 63},
  };
  for (const Range& r : ranges) {
    MdamOptions opts;
    opts.k0_lo = r.a_lo;
    opts.k0_hi = r.a_hi;
    opts.k1_lo = r.b_lo;
    opts.k1_hi = r.b_hi;
    opts.k0_domain = 64;
    opts.k1_domain = 64;
    opts.mode = GetParam();
    ASSERT_EQ(Collect(opts), Reference(r.a_lo, r.a_hi, r.b_lo, r.b_hi))
        << "range a[" << r.a_lo << "," << r.a_hi << "] b[" << r.b_lo << ","
        << r.b_hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, MdamModeTest,
                         ::testing::Values(MdamOptions::Mode::kAuto,
                                           MdamOptions::Mode::kSkipScan,
                                           MdamOptions::Mode::kRangeScan));

TEST_F(MdamTest, SkipScanSeeksPerGroup) {
  MdamOptions opts;
  opts.k0_lo = 0;
  opts.k0_hi = 63;
  opts.k1_lo = 0;
  opts.k1_hi = 0;  // very selective on b
  opts.mode = MdamOptions::Mode::kSkipScan;
  auto cursor = MdamCursor::Create(&ctx_, index_.get(), opts);
  while (cursor->Valid()) cursor->Next(&ctx_);
  // About one seek per distinct a value (64), not one per entry (4096).
  EXPECT_GE(cursor->seeks_performed(), 32u);
  EXPECT_LE(cursor->seeks_performed(), 130u);
}

TEST_F(MdamTest, AutoChoosesRangeScanForWideB) {
  MdamOptions opts;
  opts.k0_lo = 0;
  opts.k0_hi = 63;
  opts.k1_lo = 0;
  opts.k1_hi = 63;
  opts.k0_domain = 64;
  opts.k1_domain = 64;
  auto cursor = MdamCursor::Create(&ctx_, index_.get(), opts);
  EXPECT_EQ(cursor->chosen_mode(), MdamOptions::Mode::kRangeScan);
}

TEST_F(MdamTest, AutoChoosesSkipScanForNarrowBOnFatGroups) {
  // Skip-scan pays when each key0 group spans many leaves, so a probe
  // skips real I/O. Build a high-duplication index: 4 values over 64K rows
  // = 16K entries (256 leaves) per group.
  ProceduralTableOptions topts;
  topts.row_bits = 16;
  topts.value_bits = 2;
  auto fat_table = ProceduralTable::Create(&device_, topts).ValueOrDie();
  ProceduralIndexOptions iopts;
  iopts.key_columns = {0, 1};
  iopts.entries_per_leaf = 64;
  auto fat_index =
      ProceduralIndex::Create(&device_, fat_table.get(), iopts).ValueOrDie();

  MdamOptions opts;
  opts.k0_lo = 0;
  opts.k0_hi = 1;
  opts.k1_lo = 2;
  opts.k1_hi = 2;
  opts.k0_domain = 4;
  opts.k1_domain = 4;
  auto cursor = MdamCursor::Create(&ctx_, fat_index.get(), opts);
  EXPECT_EQ(cursor->chosen_mode(), MdamOptions::Mode::kSkipScan);
}

TEST_F(MdamTest, AutoChoosesRangeScanForThinGroups) {
  // With 64 entries per group (one leaf), a probe saves nothing over
  // scanning; the adaptive choice must fall back to the range scan.
  MdamOptions opts;
  opts.k0_lo = 0;
  opts.k0_hi = 63;
  opts.k1_lo = 7;
  opts.k1_hi = 7;
  opts.k0_domain = 64;
  opts.k1_domain = 64;
  auto cursor = MdamCursor::Create(&ctx_, index_.get(), opts);
  EXPECT_EQ(cursor->chosen_mode(), MdamOptions::Mode::kRangeScan);
}

TEST_F(MdamTest, UnknownDomainsDefaultToSkipScan) {
  MdamOptions opts;
  opts.k0_lo = 0;
  opts.k0_hi = 10;
  opts.k1_lo = 0;
  opts.k1_hi = 10;
  auto cursor = MdamCursor::Create(&ctx_, index_.get(), opts);
  EXPECT_EQ(cursor->chosen_mode(), MdamOptions::Mode::kSkipScan);
}

TEST_F(MdamTest, EmptyRangeIsInvalidImmediately) {
  MdamOptions opts;
  opts.k0_lo = 70;  // beyond the domain
  opts.k0_hi = 80;
  opts.k1_lo = 0;
  opts.k1_hi = 63;
  auto cursor = MdamCursor::Create(&ctx_, index_.get(), opts);
  EXPECT_FALSE(cursor->Valid());
}

TEST_F(MdamTest, EmitsInIndexOrder) {
  MdamOptions opts;
  opts.k0_lo = 3;
  opts.k0_hi = 40;
  opts.k1_lo = 10;
  opts.k1_hi = 20;
  opts.mode = MdamOptions::Mode::kSkipScan;
  auto cursor = MdamCursor::Create(&ctx_, index_.get(), opts);
  IndexEntry prev{-1, -1, 0};
  while (cursor->Valid()) {
    ASSERT_FALSE(EntryLess(cursor->entry(), prev));
    prev = cursor->entry();
    cursor->Next(&ctx_);
  }
}

}  // namespace
}  // namespace robustmap
