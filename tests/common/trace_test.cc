#include "common/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>

#include "common/minijson.h"

namespace robustmap {
namespace {

// The tracer is a process-wide singleton; each test starts from a known
// state and leaves the tracer disabled and empty for the next one.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Get().Reset();
    Tracer::Get().Disable();
  }
  void TearDown() override {
    Tracer::Get().Reset();
    Tracer::Get().Disable();
  }
};

std::string WriteTrace(const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(Tracer::Get().WriteFile(path).ok());
  return path;
}

TEST_F(TraceTest, DisabledRecordsNothingAndSpansSkipTheClock) {
  {
    TraceSpan span("ignored");
    TraceSpan dynamic(std::string("also ignored"), "cat");
  }
  EXPECT_EQ(Tracer::Get().event_count(), 0u);
}

TEST_F(TraceTest, WritesWellFormedChromeTraceJson) {
  Tracer::Get().Enable();
  {
    TraceSpan outer("outer");
    { TraceSpan inner("inner"); }
  }
  const std::string path = WriteTrace("trace_wellformed.json");
  auto doc = ParseJsonFile(path).ValueOrDie();
  std::remove(path.c_str());

  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->items().size(), 2u);
  std::set<std::string> names;
  for (const JsonValue& e : events->items()) {
    ASSERT_TRUE(e.is_object());
    names.insert(e.Find("name")->string_value());
    EXPECT_EQ(e.Find("ph")->string_value(), "X");
    EXPECT_TRUE(e.Find("ts")->is_number());
    EXPECT_GE(e.Find("ts")->number_value(), 0.0);
    EXPECT_TRUE(e.Find("pid")->is_number());
    EXPECT_GT(e.Find("pid")->number_value(), 0.0);
    EXPECT_TRUE(e.Find("tid")->is_number());
    EXPECT_GE(e.Find("dur")->number_value(), 0.0);
  }
  EXPECT_EQ(names, (std::set<std::string>{"outer", "inner"}));
}

TEST_F(TraceTest, NestedSpansContainEachOther) {
  Tracer::Get().Enable();
  {
    TraceSpan outer("outer");
    { TraceSpan inner("inner"); }
  }
  const std::string path = WriteTrace("trace_nested.json");
  auto doc = ParseJsonFile(path).ValueOrDie();
  std::remove(path.c_str());

  const JsonValue* outer = nullptr;
  const JsonValue* inner = nullptr;
  for (const JsonValue& e : doc.Find("traceEvents")->items()) {
    if (e.Find("name")->string_value() == "outer") outer = &e;
    if (e.Find("name")->string_value() == "inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  const double outer_ts = outer->Find("ts")->number_value();
  const double outer_end = outer_ts + outer->Find("dur")->number_value();
  const double inner_ts = inner->Find("ts")->number_value();
  const double inner_end = inner_ts + inner->Find("dur")->number_value();
  EXPECT_LE(outer_ts, inner_ts);
  EXPECT_LE(inner_end, outer_end);
}

TEST_F(TraceTest, ThreadsGetDistinctTids) {
  Tracer::Get().Enable();
  { TraceSpan main_span("main-thread"); }
  std::thread t([] { TraceSpan span("other-thread"); });
  t.join();
  const std::string path = WriteTrace("trace_tids.json");
  auto doc = ParseJsonFile(path).ValueOrDie();
  std::remove(path.c_str());

  std::set<double> tids;
  for (const JsonValue& e : doc.Find("traceEvents")->items()) {
    tids.insert(e.Find("tid")->number_value());
  }
  EXPECT_EQ(doc.Find("traceEvents")->items().size(), 2u);
  EXPECT_EQ(tids.size(), 2u) << "both threads mapped to one tid";
}

TEST_F(TraceTest, MergePutsSidecarOnTheSharedTimeAxis) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable();
  const int64_t epoch = tracer.epoch_ns();

  // Simulate a worker: same epoch, its own events, written to a sidecar.
  // (In production the worker is another process; one process exercises
  // the same serialize → parse → re-anchor path.)
  tracer.AddComplete("worker-span", "worker", epoch + 5'000'000,
                     2'000'000);
  const std::string sidecar = WriteTrace("trace_sidecar.json");
  tracer.Reset();
  tracer.SetEpochNs(epoch);

  tracer.AddComplete("coordinator-span", "shard", epoch + 1'000'000,
                     10'000'000);
  ASSERT_TRUE(tracer.MergeFromFile(sidecar).ok());
  std::remove(sidecar.c_str());

  const std::string merged = WriteTrace("trace_merged.json");
  auto doc = ParseJsonFile(merged).ValueOrDie();
  std::remove(merged.c_str());

  double worker_ts = -1, coordinator_ts = -1;
  for (const JsonValue& e : doc.Find("traceEvents")->items()) {
    if (e.Find("name")->string_value() == "worker-span") {
      worker_ts = e.Find("ts")->number_value();
    }
    if (e.Find("name")->string_value() == "coordinator-span") {
      coordinator_ts = e.Find("ts")->number_value();
    }
  }
  // Microseconds relative to the common epoch survive the round trip.
  EXPECT_DOUBLE_EQ(worker_ts, 5000.0);
  EXPECT_DOUBLE_EQ(coordinator_ts, 1000.0);
}

TEST_F(TraceTest, MergeRejectsNonTraceJson) {
  const std::string path = ::testing::TempDir() + "/trace_not_a_trace.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"counters\": {}}", f);
  std::fclose(f);
  EXPECT_FALSE(Tracer::Get().MergeFromFile(path).ok());
  std::remove(path.c_str());
  EXPECT_TRUE(Tracer::Get().MergeFromFile("/no/such/sidecar.json")
                  .IsNotFound());
}

}  // namespace
}  // namespace robustmap
