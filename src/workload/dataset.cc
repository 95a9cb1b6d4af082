#include "workload/dataset.h"

#include <algorithm>
#include <cmath>

namespace robustmap {

Result<std::unique_ptr<StudyEnvironment>> StudyEnvironment::Create(
    const StudyOptions& opts) {
  auto env = std::unique_ptr<StudyEnvironment>(new StudyEnvironment());
  env->opts_ = opts;
  env->clock_ = std::make_unique<VirtualClock>();
  env->device_ = std::make_unique<SimDevice>(opts.disk, env->clock_.get());

  ProceduralTableOptions topts;
  topts.row_bits = opts.row_bits;
  topts.value_bits = opts.value_bits;
  topts.num_columns = 2;
  topts.seed = opts.seed;
  auto table = ProceduralTable::Create(env->device_.get(), topts);
  RM_RETURN_IF_ERROR(table.status());
  env->table_ = std::shared_ptr<ProceduralTable>(std::move(table).value());

  uint64_t pool_pages = opts.pool_pages;
  if (pool_pages == 0) {
    pool_pages = std::max<uint64_t>(256, env->table_->num_pages() / 64);
  }
  env->pool_.emplace(env->device_.get(), pool_pages);

  auto make_index = [&](std::vector<uint32_t> cols)
      -> Result<std::shared_ptr<ProceduralIndex>> {
    ProceduralIndexOptions io;
    io.key_columns = std::move(cols);
    auto idx =
        ProceduralIndex::Create(env->device_.get(), env->table_.get(), io);
    RM_RETURN_IF_ERROR(idx.status());
    return std::shared_ptr<ProceduralIndex>(std::move(idx).value());
  };

  auto a = make_index({0});
  RM_RETURN_IF_ERROR(a.status());
  env->idx_a_ = a.value();
  auto b = make_index({1});
  RM_RETURN_IF_ERROR(b.status());
  env->idx_b_ = b.value();
  if (opts.build_composite_indexes) {
    auto ab = make_index({0, 1});
    RM_RETURN_IF_ERROR(ab.status());
    env->idx_ab_ = ab.value();
    auto ba = make_index({1, 0});
    RM_RETURN_IF_ERROR(ba.status());
    env->idx_ba_ = ba.value();
  }

  int64_t domain = env->table_->value_domain();
  RM_RETURN_IF_ERROR(env->catalog_.AddTable(TableInfo{
      "lineitem",
      env->table_,
      Schema({{"a", domain}, {"b", domain}}),
  }));
  RM_RETURN_IF_ERROR(env->catalog_.AddIndex(IndexInfo{"idx_a", "lineitem",
                                                      env->idx_a_}));
  RM_RETURN_IF_ERROR(env->catalog_.AddIndex(IndexInfo{"idx_b", "lineitem",
                                                      env->idx_b_}));
  if (env->idx_ab_ != nullptr) {
    RM_RETURN_IF_ERROR(env->catalog_.AddIndex(IndexInfo{"idx_ab", "lineitem",
                                                        env->idx_ab_}));
    RM_RETURN_IF_ERROR(env->catalog_.AddIndex(IndexInfo{"idx_ba", "lineitem",
                                                        env->idx_ba_}));
  }

  env->ctx_.clock = env->clock_.get();
  env->ctx_.device = env->device_.get();
  env->ctx_.pool = &*env->pool_;
  env->ctx_.cpu = opts.cpu;
  // Auto memory budgets scale with the data (the paper holds the
  // memory-to-data ratio roughly fixed across its systems): sorts get a
  // quarter byte per row (rid sorts spill beyond ~1/32 selectivity and
  // develop multi-pass merges near 100%), hash builds one byte per row.
  uint64_t rows = env->table_->num_rows();
  env->ctx_.sort_memory_bytes = opts.sort_memory_bytes != 0
                                    ? opts.sort_memory_bytes
                                    : std::max<uint64_t>(4096, rows / 4);
  env->ctx_.hash_memory_bytes =
      opts.hash_memory_bytes != 0 ? opts.hash_memory_bytes : rows;

  env->db_.table = env->table_.get();
  env->db_.idx_a = env->idx_a_.get();
  env->db_.idx_b = env->idx_b_.get();
  env->db_.idx_ab = env->idx_ab_.get();
  env->db_.idx_ba = env->idx_ba_.get();
  env->db_.domain = domain;
  env->executor_ = std::make_unique<Executor>(env->db_);
  return env;
}

QuerySpec StudyEnvironment::MakeQuery(double sel_a, double sel_b) const {
  return MakeStudyQuery(sel_a, sel_b, table_->value_domain());
}

}  // namespace robustmap
