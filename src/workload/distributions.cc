#include "workload/distributions.h"

#include <algorithm>
#include <cmath>

namespace robustmap {

ZipfDistribution::ZipfDistribution(uint64_t n, double theta) {
  cdf_.resize(n);
  double sum = 0;
  for (uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (auto& c : cdf_) c /= sum;
}

uint64_t ZipfDistribution::Sample(Rng* rng) const {
  double u = rng->NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<uint64_t>(it - cdf_.begin());
}

double ZipfDistribution::Pmf(uint64_t v) const {
  if (v >= cdf_.size()) return 0;
  return v == 0 ? cdf_[0] : cdf_[v] - cdf_[v - 1];
}

StudyDb HeapStudyDataset::db() const {
  StudyDb d;
  d.table = table.get();
  d.idx_a = idx_a.get();
  d.idx_b = idx_b.get();
  d.idx_ab = idx_ab.get();
  d.idx_ba = idx_ba.get();
  d.domain = domain;
  return d;
}

Result<HeapStudyDataset> BuildHeapStudyDataset(RunContext* ctx,
                                               SimDevice* device,
                                               const HeapDatasetOptions& opts) {
  if (opts.domain <= 0) return Status::InvalidArgument("domain must be > 0");
  HeapStudyDataset ds;
  ds.domain = opts.domain;

  HeapTableOptions topts;
  topts.num_columns = 2;
  auto table = HeapTable::Create(device, opts.rows, topts);
  RM_RETURN_IF_ERROR(table.status());
  ds.table = std::move(table).value();

  Rng rng(opts.seed);
  ZipfDistribution zipf(static_cast<uint64_t>(opts.domain),
                        opts.zipf_theta > 0 ? opts.zipf_theta : 0.0);
  std::vector<IndexEntry> ea, eb, eab, eba;
  ea.reserve(opts.rows);
  eb.reserve(opts.rows);
  for (uint64_t rid = 0; rid < opts.rows; ++rid) {
    int64_t a = opts.zipf_theta > 0
                    ? static_cast<int64_t>(zipf.Sample(&rng))
                    : rng.NextInRange(0, opts.domain - 1);
    int64_t b;
    if (opts.correlation > 0 && rng.NextDouble() < opts.correlation) {
      b = a;
    } else {
      b = opts.zipf_theta > 0 ? static_cast<int64_t>(zipf.Sample(&rng))
                              : rng.NextInRange(0, opts.domain - 1);
    }
    RM_RETURN_IF_ERROR(ds.table->Append(ctx, {a, b, 0, 0}));
    ea.push_back({a, 0, rid});
    eb.push_back({b, 0, rid});
    if (opts.build_composite_indexes) {
      eab.push_back({a, b, rid});
      eba.push_back({b, a, rid});
    }
  }
  RM_RETURN_IF_ERROR(ds.table->Finish(ctx));

  auto build = [&](std::vector<IndexEntry> entries,
                   std::vector<uint32_t> cols)
      -> Result<std::unique_ptr<BTree>> {
    std::sort(entries.begin(), entries.end(), EntryLess);
    BTreeOptions bo;
    bo.key_columns = std::move(cols);
    return BTree::BulkLoad(device, std::move(entries), bo);
  };

  auto a_idx = build(std::move(ea), {0});
  RM_RETURN_IF_ERROR(a_idx.status());
  ds.idx_a = std::move(a_idx).value();
  auto b_idx = build(std::move(eb), {1});
  RM_RETURN_IF_ERROR(b_idx.status());
  ds.idx_b = std::move(b_idx).value();
  if (opts.build_composite_indexes) {
    auto ab_idx = build(std::move(eab), {0, 1});
    RM_RETURN_IF_ERROR(ab_idx.status());
    ds.idx_ab = std::move(ab_idx).value();
    auto ba_idx = build(std::move(eba), {1, 0});
    RM_RETURN_IF_ERROR(ba_idx.status());
    ds.idx_ba = std::move(ba_idx).value();
  }
  return ds;
}

}  // namespace robustmap
