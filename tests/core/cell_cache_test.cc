#include "core/cell_cache.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>

#include "common/rng.h"
#include "core/parameter_space.h"
#include "core/wire_format.h"
#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::ProcEnv;

Measurement SampleMeasurement(double seconds, const std::string& label) {
  Measurement m;
  m.seconds = seconds;
  m.output_rows = 17;
  m.io.sequential_reads = 3;
  m.io.skip_reads = 1;
  m.io.random_reads = 2;
  m.io.writes = 4;
  m.io.buffer_hits = 9;
  m.io.bytes_read = 1 << 14;
  m.io.bytes_written = 1 << 12;
  m.plan_label = label;
  return m;
}

void ExpectMeasurementsEqual(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.output_rows, b.output_rows);
  EXPECT_EQ(a.io.sequential_reads, b.io.sequential_reads);
  EXPECT_EQ(a.io.skip_reads, b.io.skip_reads);
  EXPECT_EQ(a.io.random_reads, b.io.random_reads);
  EXPECT_EQ(a.io.writes, b.io.writes);
  EXPECT_EQ(a.io.buffer_hits, b.io.buffer_hits);
  EXPECT_EQ(a.io.bytes_read, b.io.bytes_read);
  EXPECT_EQ(a.io.bytes_written, b.io.bytes_written);
  EXPECT_EQ(a.plan_label, b.plan_label);
}

/// Entries inserted in descending fingerprint order, so the writer's
/// sort-before-serialize is actually exercised.
CellCacheData SampleData() {
  CellCacheData data;
  for (uint64_t i = 0; i < 5; ++i) {
    CellCacheEntry e;
    e.fingerprint = 0x9000 - i * 0x100;
    e.study = i % 2 == 0 ? "plain" : "warmcold";
    e.m = SampleMeasurement(0.5 + static_cast<double>(i),
                            "plan" + std::to_string(i));
    data.entries.push_back(std::move(e));
  }
  return data;
}

std::string Serialize(const CellCacheData& data) {
  std::ostringstream os;
  EXPECT_TRUE(WriteCellCache(os, data).ok());
  return os.str();
}

Result<CellCacheData> Parse(const std::string& bytes) {
  std::istringstream is(bytes);
  return ReadCellCache(is);
}

/// A fresh directory per test case, so attached-cache state never bleeds
/// between tests or repeated runs of one binary.
std::string FreshCacheDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/cell_cache_" + name + "_" +
                    std::to_string(::getpid());
  std::remove(CellCacheFileName(dir).c_str());
  return dir;
}

TEST(CellCacheIoTest, RoundTripPreservesEveryFieldAndSortsEntries) {
  const CellCacheData data = SampleData();
  auto back = Parse(Serialize(data));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().fingerprint_schema,
            kCellCacheFingerprintSchemaVersion);
  ASSERT_EQ(back.value().entries.size(), data.entries.size());
  // The writer serializes ascending by fingerprint whatever the caller's
  // order; SampleData inserted descending, so the round trip reverses it.
  for (size_t i = 0; i < back.value().entries.size(); ++i) {
    const CellCacheEntry& got = back.value().entries[i];
    const CellCacheEntry& want = data.entries[data.entries.size() - 1 - i];
    EXPECT_EQ(got.fingerprint, want.fingerprint);
    EXPECT_EQ(got.study, want.study);
    ExpectMeasurementsEqual(got.m, want.m);
    if (i > 0) {
      EXPECT_LT(back.value().entries[i - 1].fingerprint, got.fingerprint);
    }
  }
}

TEST(CellCacheIoTest, EqualContentsSerializeToEqualBytes) {
  CellCacheData forward = SampleData();
  CellCacheData reversed;
  reversed.entries.assign(forward.entries.rbegin(), forward.entries.rend());
  EXPECT_EQ(Serialize(forward), Serialize(reversed));
}

TEST(CellCacheIoTest, DuplicateFingerprintsAreRejectedAtWriteTime) {
  CellCacheData data = SampleData();
  data.entries.push_back(data.entries.front());
  std::ostringstream os;
  Status s = WriteCellCache(os, data);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(CellCacheIoTest, TruncationIsCorruptionAtEveryLength) {
  const std::string bytes = Serialize(SampleData());
  // Every proper prefix must be a loud Corruption — never a quietly
  // shorter cache.
  for (size_t len : {size_t{0}, size_t{4}, size_t{11}, size_t{30},
                     bytes.size() / 2, bytes.size() - 1}) {
    auto r = Parse(bytes.substr(0, len));
    ASSERT_FALSE(r.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  }
}

TEST(CellCacheIoTest, BitFlipIsCorruption) {
  std::string bytes = Serialize(SampleData());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
  auto r = Parse(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

TEST(CellCacheIoTest, WrongMagicIsCorruption) {
  std::string bytes = Serialize(SampleData());
  bytes[0] = 'X';
  auto r = Parse(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

TEST(CellCacheIoTest, UnknownFormatVersionIsNotSupported) {
  std::string bytes = Serialize(SampleData());
  // The u32 format version sits right after the 8-byte magic; a future
  // version must be NotSupported (upgrade the reader), not Corruption
  // (re-measure), even though the checksum no longer matches either.
  bytes[8] = 99;
  auto r = Parse(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotSupported()) << r.status().ToString();
}

TEST(CellCacheIoTest, StaleFingerprintSchemaParsesFine) {
  CellCacheData data = SampleData();
  data.fingerprint_schema = kCellCacheFingerprintSchemaVersion + 7;
  auto back = Parse(Serialize(data));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().fingerprint_schema,
            kCellCacheFingerprintSchemaVersion + 7);
  EXPECT_EQ(back.value().entries.size(), data.entries.size());
}

TEST(CellCacheIoTest, MissingFileIsNotFound) {
  auto r = ReadCellCacheFile(::testing::TempDir() + "/no_such_cells.rmc");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();
}

TEST(CellCacheIoTest, FileRoundTripAndAtomicReplace) {
  const std::string dir = FreshCacheDir("file_roundtrip");
  {
    CellResultCache seed;
    seed.Open(dir);  // the free writer expects the directory to exist
  }
  const std::string path = CellCacheFileName(dir);
  ASSERT_TRUE(WriteCellCacheFile(path, SampleData()).ok());
  auto first = ReadCellCacheFile(path);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().entries.size(), 5u);

  CellCacheData updated = SampleData();
  CellCacheEntry extra;
  extra.fingerprint = 0xffff;
  extra.study = "plain";
  extra.m = SampleMeasurement(9.0, "extra");
  updated.entries.push_back(std::move(extra));
  ASSERT_TRUE(WriteCellCacheFile(path, updated).ok());
  auto second = ReadCellCacheFile(path);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().entries.size(), 6u);
}

TEST(CellResultCacheTest, PublishLookupAndFirstWriterWins) {
  CellResultCache cache;  // in-memory: never attached, never flushed
  EXPECT_FALSE(cache.attached());
  Measurement out;
  EXPECT_FALSE(cache.Lookup(42, &out));
  EXPECT_FALSE(cache.Contains(42));

  EXPECT_TRUE(cache.Publish(42, "plain", SampleMeasurement(1.0, "scan")));
  EXPECT_FALSE(cache.Publish(42, "plain", SampleMeasurement(2.0, "scan")));
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.Lookup(42, &out));
  EXPECT_EQ(out.seconds, 1.0);  // the first writer's value survived
}

TEST(CellResultCacheTest, OpenFlushReopenKeepsEntries) {
  const std::string dir = FreshCacheDir("reopen");
  {
    CellResultCache cache;
    cache.Open(dir);
    EXPECT_TRUE(cache.attached());
    EXPECT_EQ(cache.size(), 0u);
    cache.Publish(7, "plain", SampleMeasurement(0.25, "scan"));
    ASSERT_TRUE(cache.WriteCellCacheFile().ok());
  }
  CellResultCache cache;
  cache.Open(dir);
  EXPECT_EQ(cache.size(), 1u);
  Measurement out;
  ASSERT_TRUE(cache.Lookup(7, &out));
  EXPECT_EQ(out.seconds, 0.25);
  EXPECT_EQ(out.plan_label, "scan");
}

TEST(CellResultCacheTest, CleanCacheFlushIsANoOp) {
  const std::string dir = FreshCacheDir("clean_flush");
  CellResultCache cache;
  cache.Open(dir);
  cache.Publish(1, "plain", SampleMeasurement(1.0, "scan"));
  ASSERT_TRUE(cache.WriteCellCacheFile().ok());
  // Nothing new since the flush: the file must not be rewritten (remove
  // it and flush again — a no-op leaves it absent).
  ASSERT_EQ(std::remove(CellCacheFileName(dir).c_str()), 0);
  ASSERT_TRUE(cache.WriteCellCacheFile().ok());
  EXPECT_FALSE(std::ifstream(CellCacheFileName(dir)).good());
}

std::string FileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

TEST(CellResultCacheTest, FlushedBytesEqualWriteCellCache) {
  // Entries scattered over every stripe: the flush serializes the live
  // store, and must give exactly the bytes the free writer gives for the
  // same entries.
  const std::string dir = FreshCacheDir("flush_bytes");
  CellResultCache cache;
  cache.Open(dir);
  CellCacheData data;
  for (uint64_t i = 0; i < 500; ++i) {
    CellCacheEntry e;
    e.fingerprint = Mix64(i);
    e.study = i % 3 == 0 ? "warmcold" : "plain";
    e.m = SampleMeasurement(0.001 * static_cast<double>(i),
                            "plan" + std::to_string(i % 13));
    ASSERT_TRUE(cache.Publish(e.fingerprint, e.study, e.m));
    data.entries.push_back(std::move(e));
  }
  ASSERT_TRUE(cache.WriteCellCacheFile().ok());
  EXPECT_EQ(FileBytes(CellCacheFileName(dir)), Serialize(data));
}

TEST(CellResultCacheTest, PublishDuringFlushIsNeverLost) {
  // A publish that lands while a flush is writing must either be in that
  // file or leave the cache dirty, so the next flush writes it.
  constexpr uint64_t kEntries = 2000;
  const std::string dir = FreshCacheDir("concurrent_flush");
  CellResultCache cache;
  cache.Open(dir);
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    for (uint64_t i = 0; i < kEntries; ++i) {
      cache.Publish(Mix64(i), "plain", SampleMeasurement(1.0, "scan"));
    }
    done.store(true);
  });
  Status flush_status;
  while (!done.load() && flush_status.ok()) {
    flush_status = cache.WriteCellCacheFile();
  }
  publisher.join();
  ASSERT_TRUE(flush_status.ok()) << flush_status.ToString();
  ASSERT_TRUE(cache.WriteCellCacheFile().ok());

  CellResultCache reopened;
  reopened.Open(dir);
  EXPECT_EQ(reopened.size(), kEntries);
  for (uint64_t i = 0; i < kEntries; ++i) {
    ASSERT_TRUE(reopened.Contains(Mix64(i))) << "entry " << i << " lost";
  }
}

TEST(CellResultCacheTest, OpenToleratesDamageAndRepopulates) {
  // Each damage flavor: Open must warn-and-start-empty, never error, and
  // the next publish+flush must leave a healthy cache behind.
  struct DamageCase {
    const char* name;
    void (*damage)(const std::string& path);
  };
  const DamageCase cases[] = {
      {"garbage",
       [](const std::string& path) {
         std::ofstream f(path, std::ios::binary | std::ios::trunc);
         f << "not a cache at all";
       }},
      {"truncated",
       [](const std::string& path) {
         CellCacheData data;
         CellCacheEntry e;
         e.fingerprint = 5;
         e.study = "plain";
         e.m.seconds = 1.0;
         data.entries.push_back(std::move(e));
         std::ostringstream os;
         ASSERT_TRUE(WriteCellCache(os, data).ok());
         const std::string bytes = os.str();
         std::ofstream f(path, std::ios::binary | std::ios::trunc);
         f.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size() - 6));
       }},
      {"wrong_version",
       [](const std::string& path) {
         std::ostringstream os;
         ASSERT_TRUE(WriteCellCache(os, CellCacheData{}).ok());
         std::string bytes = os.str();
         bytes[8] = 77;
         std::ofstream f(path, std::ios::binary | std::ios::trunc);
         f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
       }},
      {"stale_schema",
       [](const std::string& path) {
         CellCacheData data;
         data.fingerprint_schema = kCellCacheFingerprintSchemaVersion + 1;
         CellCacheEntry e;
         e.fingerprint = 5;
         e.study = "plain";
         e.m.seconds = 1.0;
         data.entries.push_back(std::move(e));
         ASSERT_TRUE(WriteCellCacheFile(path, data).ok());
       }},
  };
  for (const DamageCase& dc : cases) {
    SCOPED_TRACE(dc.name);
    const std::string dir = FreshCacheDir(std::string("damage_") + dc.name);
    {
      CellResultCache seed;
      seed.Open(dir);  // creates the directory
    }
    dc.damage(CellCacheFileName(dir));

    CellResultCache cache;
    cache.Open(dir);
    EXPECT_TRUE(cache.attached());
    EXPECT_EQ(cache.size(), 0u);  // damaged contents dropped wholesale

    cache.Publish(9, "plain", SampleMeasurement(0.5, "scan"));
    ASSERT_TRUE(cache.WriteCellCacheFile().ok());
    auto healed = ReadCellCacheFile(CellCacheFileName(dir));
    ASSERT_TRUE(healed.ok()) << healed.status().ToString();
    EXPECT_EQ(healed.value().fingerprint_schema,
              kCellCacheFingerprintSchemaVersion);
    ASSERT_EQ(healed.value().entries.size(), 1u);
    EXPECT_EQ(healed.value().entries[0].fingerprint, 9u);
  }
}

TEST(CellFingerprintTest, DistinctInputsYieldDistinctKeys) {
  ProcEnv env;
  const uint64_t e = EnvironmentFingerprint(*env.ctx(), env.domain());
  EXPECT_EQ(e, EnvironmentFingerprint(*env.ctx(), env.domain()));  // stable
  EXPECT_NE(e, EnvironmentFingerprint(*env.ctx(), env.domain() + 1));

  const uint64_t base = CellFingerprint(e, "plain", "cold", "scan", 0.5, 1.0);
  EXPECT_EQ(base, CellFingerprint(e, "plain", "cold", "scan", 0.5, 1.0));
  EXPECT_NE(base, CellFingerprint(e + 1, "plain", "cold", "scan", 0.5, 1.0));
  EXPECT_NE(base, CellFingerprint(e, "warmcold", "cold", "scan", 0.5, 1.0));
  EXPECT_NE(base,
            CellFingerprint(e, "plain", "resident:0.5", "scan", 0.5, 1.0));
  EXPECT_NE(base, CellFingerprint(e, "plain", "cold", "idx.a", 0.5, 1.0));
  EXPECT_NE(base, CellFingerprint(e, "plain", "cold", "scan", 0.25, 1.0));
  EXPECT_NE(base, CellFingerprint(e, "plain", "cold", "scan", 0.5, 0.5));
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// The canonical key string spelled out and hashed whole: the reference
/// the streaming keyer must reproduce byte for byte.
uint64_t ReferenceCellFingerprint(uint64_t env, const std::string& study,
                                  const std::string& spec,
                                  const std::string& label, double x,
                                  double y) {
  std::string canon =
      "cell|s" + std::to_string(kCellCacheFingerprintSchemaVersion);
  canon += "|env=" + Hex(env) + "|study=" + study + "|warmup=" + spec;
  canon += "|plan=" + label + "|x=" + Hex(std::bit_cast<uint64_t>(x));
  canon += "|y=" + Hex(std::bit_cast<uint64_t>(y));
  return wire::Fnv1a64(canon.data(), canon.size());
}

TEST(CellFingerprintTest, KeysArePinned) {
  // Existing cells.rmc files stay valid only while these hold: the values
  // were computed by the string-building implementation the cache format
  // shipped with. A change here needs a fingerprint-schema bump.
  EXPECT_EQ(kCellCacheFingerprintSchemaVersion, 1u);
  EXPECT_EQ(kCellCacheFormatVersion, 1u);
  EXPECT_EQ(CellFingerprint(0x0123456789abcdefull, "plain", "cold",
                            "Index(a) fetch", 0.25, 0x1p-12),
            0x37f145adade845c4ull);
  EXPECT_EQ(CellFingerprint(0, "warmcold", "resident:0.5", "", -0.0, 1.0),
            0x7730250ad21b4f90ull);
}

TEST(CellFingerprintTest, KeyerMatchesCellFingerprintAndReference) {
  Rng rng(2009);
  const char* studies[] = {"plain", "warmcold"};
  const char* specs[] = {"cold", "resident:0.5", "prior"};
  for (int series = 0; series < 40; ++series) {
    const uint64_t env = rng.Next();
    const std::string study = studies[series % 2];
    const std::string spec = specs[series % 3];
    std::string label;
    for (uint64_t n = rng.Next() % 24; n > 0; --n) {
      label.push_back(static_cast<char>(' ' + rng.Next() % 95));
    }
    const CellKeyer keyer(env, study, spec, label);
    for (int cell = 0; cell < 50; ++cell) {
      const double x = std::bit_cast<double>(rng.Next());
      const double y = static_cast<double>(rng.Next() % 4096) / 4096.0;
      const uint64_t key = keyer.Key(x, y);
      ASSERT_EQ(key, CellFingerprint(env, study.c_str(), spec, label, x, y));
      ASSERT_EQ(key, ReferenceCellFingerprint(env, study, spec, label, x, y))
          << "label '" << label << "'";
    }
  }
}

TEST(CellFingerprintTest, MemoryBudgetsChangeTheEnvironment) {
  ProcEnv env;
  const uint64_t before = EnvironmentFingerprint(*env.ctx(), env.domain());
  const uint64_t saved = env.ctx()->sort_memory_bytes;
  env.ctx()->sort_memory_bytes = saved + 4096;
  EXPECT_NE(before, EnvironmentFingerprint(*env.ctx(), env.domain()));
  env.ctx()->sort_memory_bytes = saved;
  EXPECT_EQ(before, EnvironmentFingerprint(*env.ctx(), env.domain()));
}

TEST(CellFingerprintTest, RefinedGridHalfLatticeSharesKeys) {
  // The refinement contract: a 2x-refined selectivity grid's even lattice
  // carries bit-identical axis values to the coarse grid (i/2 steps are
  // exact in binary), so the coarse sweep's cache entries are hits for
  // exactly the coincident half-lattice of the fine sweep.
  ProcEnv env;
  const uint64_t e = EnvironmentFingerprint(*env.ctx(), env.domain());
  ParameterSpace coarse = ParameterSpace::TwoD(
      Axis::Selectivity("a", -4, 0), Axis::Selectivity("b", -4, 0));
  ParameterSpace fine =
      ParameterSpace::TwoD(Axis::SelectivityFine("a", -4, 0, 2),
                           Axis::SelectivityFine("b", -4, 0, 2));
  ASSERT_EQ(fine.x_size(), 2 * coarse.x_size() - 1);
  size_t shared = 0;
  for (size_t fxi = 0; fxi < fine.x_size(); ++fxi) {
    for (size_t fyi = 0; fyi < fine.y_size(); ++fyi) {
      const size_t fpt = fine.IndexOf(fxi, fyi);
      const uint64_t fine_fp = CellFingerprint(
          e, "plain", "cold", "scan", fine.x_value(fpt), fine.y_value(fpt));
      if (fxi % 2 == 0 && fyi % 2 == 0) {
        const size_t cpt = coarse.IndexOf(fxi / 2, fyi / 2);
        EXPECT_EQ(fine_fp,
                  CellFingerprint(e, "plain", "cold", "scan",
                                  coarse.x_value(cpt), coarse.y_value(cpt)));
        ++shared;
      }
    }
  }
  EXPECT_EQ(shared, coarse.num_points());

  // SubsampleSpace — the engine's coarse-level constructor — keeps the
  // parent's values verbatim, so its lattice shares keys the same way.
  ParameterSpace sub = SubsampleSpace(fine, 2);
  ASSERT_EQ(sub.x_size(), coarse.x_size());
  for (size_t pt = 0; pt < sub.num_points(); ++pt) {
    EXPECT_EQ(CellFingerprint(e, "plain", "cold", "scan", sub.x_value(pt),
                              sub.y_value(pt)),
              CellFingerprint(e, "plain", "cold", "scan",
                              coarse.x_value(pt), coarse.y_value(pt)));
  }
}

}  // namespace
}  // namespace robustmap
