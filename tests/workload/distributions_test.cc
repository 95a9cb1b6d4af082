#include "workload/distributions.h"

#include <gtest/gtest.h>

#include <map>

namespace robustmap {
namespace {

TEST(ZipfTest, PmfSumsToOne) {
  ZipfDistribution zipf(100, 0.99);
  double sum = 0;
  for (uint64_t v = 0; v < 100; ++v) sum += zipf.Pmf(v);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  ZipfDistribution zipf(10, 0.0);
  for (uint64_t v = 0; v < 10; ++v) {
    EXPECT_NEAR(zipf.Pmf(v), 0.1, 1e-9);
  }
}

TEST(ZipfTest, SkewFavorsSmallValues) {
  ZipfDistribution zipf(1000, 1.2);
  EXPECT_GT(zipf.Pmf(0), zipf.Pmf(1));
  EXPECT_GT(zipf.Pmf(1), zipf.Pmf(100));
  EXPECT_GT(zipf.Pmf(0), 0.1);
}

TEST(ZipfTest, SamplesFollowPmf) {
  ZipfDistribution zipf(50, 1.0);
  Rng rng(9);
  std::map<uint64_t, int> counts;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / kSamples, zipf.Pmf(0), 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / kSamples, zipf.Pmf(1), 0.01);
}

class HeapDatasetTest : public ::testing::Test {
 protected:
  HeapDatasetTest()
      : device_(DiskParameters{}, &clock_), pool_(&device_, 1024) {
    ctx_.clock = &clock_;
    ctx_.device = &device_;
    ctx_.pool = &pool_;
  }
  VirtualClock clock_;
  SimDevice device_;
  BufferPool pool_;
  RunContext ctx_;
};

TEST_F(HeapDatasetTest, BuildsConsistentIndexes) {
  HeapDatasetOptions opts;
  opts.rows = 2000;
  opts.domain = 128;
  auto ds = BuildHeapStudyDataset(&ctx_, &device_, opts).ValueOrDie();
  EXPECT_EQ(ds.table->num_rows(), 2000u);
  EXPECT_EQ(ds.idx_a->num_entries(), 2000u);
  EXPECT_EQ(ds.idx_ab->num_entries(), 2000u);
  EXPECT_TRUE(ds.idx_a->CheckInvariants().ok());
  EXPECT_TRUE(ds.idx_ab->CheckInvariants().ok());

  // Index entries agree with table contents.
  auto cursor = ds.idx_a->Seek(&ctx_, INT64_MIN, INT64_MIN);
  size_t checked = 0;
  while (cursor->Valid() && checked < 200) {
    const IndexEntry& e = cursor->entry();
    EXPECT_EQ(e.key0, ds.table->RawValue(e.rid, 0));
    cursor->Next(&ctx_);
    ++checked;
  }
}

TEST_F(HeapDatasetTest, CorrelationRaisesConjunctiveCounts) {
  HeapDatasetOptions indep;
  indep.rows = 20000;
  indep.domain = 64;
  indep.correlation = 0.0;
  HeapDatasetOptions corr = indep;
  corr.correlation = 0.9;

  auto count_equal = [&](const HeapStudyDataset& ds) {
    uint64_t n = 0;
    for (Rid rid = 0; rid < ds.table->num_rows(); ++rid) {
      if (ds.table->RawValue(rid, 0) == ds.table->RawValue(rid, 1)) ++n;
    }
    return n;
  };
  auto ds_indep = BuildHeapStudyDataset(&ctx_, &device_, indep).ValueOrDie();
  auto ds_corr = BuildHeapStudyDataset(&ctx_, &device_, corr).ValueOrDie();
  EXPECT_GT(count_equal(ds_corr), count_equal(ds_indep) * 10);
}

TEST_F(HeapDatasetTest, ZipfSkewsColumnValues) {
  HeapDatasetOptions opts;
  opts.rows = 20000;
  opts.domain = 256;
  opts.zipf_theta = 1.1;
  opts.build_composite_indexes = false;
  auto ds = BuildHeapStudyDataset(&ctx_, &device_, opts).ValueOrDie();
  uint64_t zeros = 0;
  for (Rid rid = 0; rid < ds.table->num_rows(); ++rid) {
    if (ds.table->RawValue(rid, 0) == 0) ++zeros;
  }
  // Uniform would give ~78 hits; zipf(1.1) gives thousands.
  EXPECT_GT(zeros, 1000u);
}

TEST_F(HeapDatasetTest, RejectsBadDomain) {
  HeapDatasetOptions opts;
  opts.domain = 0;
  EXPECT_FALSE(BuildHeapStudyDataset(&ctx_, &device_, opts).ok());
}

}  // namespace
}  // namespace robustmap
