#ifndef ROBUSTMAP_TESTS_TESTING_MAP_EXPECT_H_
#define ROBUSTMAP_TESTS_TESTING_MAP_EXPECT_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "core/robustness_map.h"
#include "engine/executor.h"
#include "io/io_stats.h"

namespace robustmap::testing {

/// Asserts two I/O ledgers agree on every counter.
inline void ExpectIoStatsEqual(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.sequential_reads, b.sequential_reads);
  EXPECT_EQ(a.skip_reads, b.skip_reads);
  EXPECT_EQ(a.random_reads, b.random_reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.buffer_hits, b.buffer_hits);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
}

/// Asserts two measurements agree on every field, seconds both by value
/// (so a NaN fails) and bit for bit (so +0.0 and -0.0 differ).
inline void ExpectMeasurementsBitIdentical(const Measurement& a,
                                           const Measurement& b) {
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(std::bit_cast<uint64_t>(a.seconds),
            std::bit_cast<uint64_t>(b.seconds))
      << a.seconds << " vs " << b.seconds;
  EXPECT_EQ(a.output_rows, b.output_rows);
  ExpectIoStatsEqual(a.io, b.io);
  EXPECT_EQ(a.plan_label, b.plan_label);
}

/// Asserts two maps agree on shape, plan labels, and *every* field of
/// every cell — the determinism contract parallel, sharded, and serialized
/// maps all promise. Exact equality, never near-equality; one definition
/// shared by all map tests so no suite's notion of "bit-identical" can
/// quietly weaken.
inline void ExpectMapsBitIdentical(const RobustnessMap& a,
                                   const RobustnessMap& b) {
  ASSERT_EQ(a.num_plans(), b.num_plans());
  ASSERT_TRUE(a.space() == b.space());
  ASSERT_EQ(a.space().num_points(), b.space().num_points());
  for (size_t plan = 0; plan < a.num_plans(); ++plan) {
    EXPECT_EQ(a.plan_label(plan), b.plan_label(plan));
    for (size_t pt = 0; pt < a.space().num_points(); ++pt) {
      SCOPED_TRACE(a.plan_label(plan) + " point " + std::to_string(pt));
      ExpectMeasurementsBitIdentical(a.At(plan, pt), b.At(plan, pt));
    }
  }
}

}  // namespace robustmap::testing

#endif  // ROBUSTMAP_TESTS_TESTING_MAP_EXPECT_H_
