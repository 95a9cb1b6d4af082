#include "core/cell_cache.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include "common/rng.h"
#include "core/parameter_space.h"
#include "core/sweep_engine.h"
#include "core/wire_format.h"
#include "testing/map_expect.h"
#include "testing/old_formats.h"
#include "testing/test_env.h"

namespace robustmap {
namespace {

using ::robustmap::testing::CellCacheEntryV1;
using ::robustmap::testing::EncodeCellCacheV1;
using ::robustmap::testing::ExpectMapsBitIdentical;
using ::robustmap::testing::ExpectMeasurementsBitIdentical;
using ::robustmap::testing::ProcEnv;

Measurement SampleMeasurement(double seconds) {
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
  return m;
}

/// Entries inserted in descending fingerprint order, so the writer's
/// sort-before-serialize is actually exercised.
CellCacheData SampleData() {
  CellCacheData data;
  for (uint64_t i = 0; i < 5; ++i) {
    CellCacheEntry e;
    e.fingerprint = 0x9000 - i * 0x100;
    e.study = i % 2 == 0 ? "plain" : "warmcold";
    e.m = SampleMeasurement(0.5 + static_cast<double>(i));
    data.entries.push_back(std::move(e));
  }
  return data;
}

std::string Serialize(const CellCacheData& data) {
  auto bytes = EncodeCellCache(data);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? bytes.value() : std::string();
}

Result<CellCacheData> Parse(const std::string& bytes) {
  return ParseCellCache(bytes);
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
    ExpectMeasurementsBitIdentical(got.m, want.m);
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
  Status s = EncodeCellCache(data).status();
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
  extra.m = SampleMeasurement(9.0);
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

  EXPECT_TRUE(cache.Publish(42, "plain", SampleMeasurement(1.0)));
  EXPECT_FALSE(cache.Publish(42, "plain", SampleMeasurement(2.0)));
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
    cache.Publish(7, "plain", SampleMeasurement(0.25));
    ASSERT_TRUE(cache.WriteCellCacheFile().ok());
  }
  CellResultCache cache;
  cache.Open(dir);
  EXPECT_EQ(cache.size(), 1u);
  Measurement out;
  ASSERT_TRUE(cache.Lookup(7, &out));
  EXPECT_EQ(out.seconds, 0.25);
}

TEST(CellResultCacheTest, CleanCacheFlushIsANoOp) {
  const std::string dir = FreshCacheDir("clean_flush");
  CellResultCache cache;
  cache.Open(dir);
  cache.Publish(1, "plain", SampleMeasurement(1.0));
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
  // 500 entries in two studies, published in an order unrelated to their
  // fingerprints: the flush serializes the live store, and must give
  // exactly the bytes the free writer gives for the same entries.
  const std::string dir = FreshCacheDir("flush_bytes");
  CellResultCache cache;
  cache.Open(dir);
  CellCacheData data;
  for (uint64_t i = 0; i < 500; ++i) {
    CellCacheEntry e;
    e.fingerprint = Mix64(i);
    e.study = i % 3 == 0 ? "warmcold" : "plain";
    e.m = SampleMeasurement(0.001 * static_cast<double>(i));
    ASSERT_TRUE(cache.Publish(e.fingerprint, e.study, e.m));
    data.entries.push_back(std::move(e));
  }
  ASSERT_TRUE(cache.WriteCellCacheFile().ok());
  EXPECT_EQ(FileBytes(CellCacheFileName(dir)), Serialize(data));
}

TEST(CellResultCacheTest, PublishDuringFlushIsNeverLost) {
  // A publish that lands while a flush is writing must either be in that
  // file or stay fresh for the next flush, whether that flush appends a
  // segment or compacts. Rounds of different sizes make both happen: a
  // compaction renames a new file into place, an append grows the same
  // one.
  const std::string dir = FreshCacheDir("concurrent_flush");
  const std::string path = CellCacheFileName(dir);
  CellResultCache cache;
  cache.Open(dir);
  size_t appends = 0;
  size_t compactions = 0;
  struct stat last = {};
  uint64_t published = 0;
  for (const uint64_t round : {600, 150, 150, 150, 1200, 150}) {
    const uint64_t first = published;
    std::atomic<bool> done{false};
    std::thread publisher([&] {
      for (uint64_t i = first; i < first + round; ++i) {
        cache.Publish(Mix64(i), "plain", SampleMeasurement(1.0));
      }
      done.store(true);
    });
    // The flush that starts after the publisher is done is the last.
    Status flush_status;
    for (bool more = true; more && flush_status.ok();) {
      more = !done.load();
      flush_status = cache.WriteCellCacheFile();
      struct stat st = {};
      if (::stat(path.c_str(), &st) == 0 && st.st_size != last.st_size) {
        ++(st.st_ino == last.st_ino ? appends : compactions);
        last = st;
      }
    }
    publisher.join();
    ASSERT_TRUE(flush_status.ok()) << flush_status.ToString();
    published += round;
  }
  EXPECT_GE(appends, 1u);
  EXPECT_GE(compactions, 2u);

  CellResultCache reopened;
  reopened.Open(dir);
  EXPECT_EQ(reopened.size(), published);
  for (uint64_t i = 0; i < published; ++i) {
    ASSERT_TRUE(reopened.Contains(Mix64(i))) << "entry " << i << " lost";
  }
}

TEST(CellResultCacheTest, ConcurrentLookupAndPublish) {
  // Two threads look a key up and publish it on a miss, as a traced replay
  // does, over overlapping key ranges walked in opposite directions. Each
  // key's measurement is a function of the key, like a deterministic cell.
  constexpr uint64_t kKeys = 2000;
  const auto expected = [](uint64_t i) {
    return SampleMeasurement(0.5 * static_cast<double>(i));
  };
  CellResultCache cache;
  std::atomic<uint64_t> inserted{0};
  const auto worker = [&](uint64_t begin, uint64_t end, bool forward) {
    for (uint64_t n = begin; n < end; ++n) {
      const uint64_t i = forward ? n : begin + end - 1 - n;
      Measurement hit;
      if (cache.Lookup(Mix64(i), &hit)) {
        ExpectMeasurementsBitIdentical(hit, expected(i));
      } else if (cache.Publish(Mix64(i), "plain", expected(i))) {
        inserted.fetch_add(1);
      }
    }
  };
  std::thread a(worker, 0, kKeys * 3 / 4, true);
  std::thread b(worker, kKeys / 4, kKeys, false);
  a.join();
  b.join();

  EXPECT_EQ(inserted.load(), kKeys) << "each key is new exactly once";
  EXPECT_EQ(cache.size(), kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) {
    Measurement out;
    ASSERT_TRUE(cache.Lookup(Mix64(i), &out)) << "entry " << i << " lost";
    ExpectMeasurementsBitIdentical(out, expected(i));
  }
}

CellCacheEntry JournalEntry(uint64_t i) {
  CellCacheEntry e;
  e.fingerprint = Mix64(i);
  e.study = i % 3 == 0 ? "warmcold" : "plain";
  e.m = SampleMeasurement(0.001 * static_cast<double>(i));
  return e;
}

/// Entries 0..n-1, as a compacted file would hold them.
CellCacheData JournalEntries(uint64_t n) {
  CellCacheData data;
  for (uint64_t i = 0; i < n; ++i) data.entries.push_back(JournalEntry(i));
  return data;
}

/// Publishes entries first..first+n-1 and flushes; returns the file size.
size_t PublishAndFlush(CellResultCache* cache, uint64_t first, uint64_t n) {
  for (uint64_t i = first; i < first + n; ++i) {
    const CellCacheEntry e = JournalEntry(i);
    EXPECT_TRUE(cache->Publish(e.fingerprint, e.study, e.m));
  }
  EXPECT_TRUE(cache->WriteCellCacheFile().ok());
  return FileBytes(cache->path()).size();
}

/// Entries in the journal BuildJournal writes, after each flush.
constexpr uint64_t kJournalEntries[] = {40, 48, 56};

/// Opens `cache` on a fresh `dir` and flushes a 40-entry base, then two
/// 8-entry segments, through real flushes. Returns the file size after
/// each flush: where the base and each segment end.
std::vector<size_t> BuildJournal(const std::string& dir,
                                 CellResultCache* cache) {
  cache->Open(dir);
  std::vector<size_t> ends;
  uint64_t published = 0;
  for (const uint64_t total : kJournalEntries) {
    ends.push_back(PublishAndFlush(cache, published, total - published));
    published = total;
  }
  return ends;
}

/// The entries and layout `ParseCellCache` reports, checked against the
/// first `n` journal entries in ascending order.
void ExpectJournalRead(const CellCacheData& got, uint64_t n,
                       size_t segments, size_t dropped_bytes) {
  EXPECT_EQ(got.base_entries, kJournalEntries[0]);
  EXPECT_EQ(got.segment_entries.size(), segments);
  EXPECT_EQ(got.dropped_bytes, dropped_bytes);
  ASSERT_EQ(got.entries.size(), n);
  // Serializing re-sorts; equal bytes means every field matches, and the
  // pairwise check means the reader already returned them in order.
  EXPECT_EQ(Serialize(got), Serialize(JournalEntries(n)));
  for (size_t i = 1; i < got.entries.size(); ++i) {
    ASSERT_LT(got.entries[i - 1].fingerprint, got.entries[i].fingerprint);
  }
}

TEST(CellCacheJournalTest, FlushesAppendSegmentsAfterAWholeBase) {
  const std::string dir = FreshCacheDir("journal_layout");
  CellResultCache cache;
  const std::vector<size_t> ends = BuildJournal(dir, &cache);
  const std::string bytes = FileBytes(CellCacheFileName(dir));
  // The first flush wrote a compacted base; the next two appended.
  EXPECT_EQ(bytes.substr(0, ends[0]), Serialize(JournalEntries(40)));
  EXPECT_EQ(bytes.compare(ends[0], 8, "RMCJSEG1"), 0);
  EXPECT_EQ(bytes.compare(ends[1], 8, "RMCJSEG1"), 0);
  auto read = ReadCellCacheFile(CellCacheFileName(dir));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ExpectJournalRead(read.value(), 56, 2, 0);
  EXPECT_EQ(read.value().segment_entries, (std::vector<uint64_t>{8, 8}));
}

TEST(CellCacheJournalTest, TruncationKeepsTheBaseAndWholeSegmentsOnly) {
  const std::string dir = FreshCacheDir("journal_truncate");
  CellResultCache cache;
  const std::vector<size_t> ends = BuildJournal(dir, &cache);
  const std::string bytes = FileBytes(CellCacheFileName(dir));
  ASSERT_EQ(bytes.size(), ends[2]);
  for (size_t len = 0; len <= bytes.size(); ++len) {
    SCOPED_TRACE("prefix of " + std::to_string(len) + " bytes");
    auto r = Parse(bytes.substr(0, len));
    if (len < ends[0]) {
      // Shorter than the base: a loud Corruption, never a shorter cache.
      ASSERT_FALSE(r.ok());
      ASSERT_TRUE(r.status().IsCorruption()) << r.status().ToString();
      continue;
    }
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Ending inside segment k keeps the base and segments 1..k-1.
    const size_t whole = len < ends[1] ? 0 : len < ends[2] ? 1 : 2;
    ExpectJournalRead(r.value(), kJournalEntries[whole], whole,
                      len - ends[whole]);
  }
}

TEST(CellCacheJournalTest, BitFlipDropsThatSegmentAndEveryLaterOne) {
  for (size_t k = 1; k <= 2; ++k) {
    SCOPED_TRACE("segment " + std::to_string(k));
    const std::string dir =
        FreshCacheDir("journal_flip" + std::to_string(k));
    std::vector<size_t> ends;
    {
      CellResultCache writer;
      ends = BuildJournal(dir, &writer);
    }
    const std::string path = CellCacheFileName(dir);
    // The magic, the count, an entry byte and the checksum in turn.
    for (const size_t at : {ends[k - 1], ends[k - 1] + 9,
                            (ends[k - 1] + ends[k]) / 2, ends[k] - 1}) {
      std::string bytes = FileBytes(path);
      bytes[at] = static_cast<char>(bytes[at] ^ 0x10);
      auto r = Parse(bytes);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectJournalRead(r.value(), kJournalEntries[k - 1], k - 1,
                        bytes.size() - ends[k - 1]);
    }

    // Open keeps the same entries, and the next flush compacts the
    // damaged tail away.
    std::string bytes = FileBytes(path);
    bytes[ends[k] - 1] = static_cast<char>(bytes[ends[k] - 1] ^ 0x10);
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    CellResultCache cache;
    cache.Open(dir);
    EXPECT_EQ(cache.size(), kJournalEntries[k - 1]);
    PublishAndFlush(&cache, 100, 1);
    CellCacheData want = JournalEntries(kJournalEntries[k - 1]);
    want.entries.push_back(JournalEntry(100));
    EXPECT_EQ(FileBytes(path), Serialize(want));
  }
}

/// A journal segment spelled out by hand from the documented layout,
/// chained from `prev`.
std::string HandMadeSegment(uint64_t prev,
                            const std::vector<CellCacheEntry>& entries) {
  std::string seg = "RMCJSEG1";
  wire::PutU64(&seg, entries.size());
  for (const CellCacheEntry& e : entries) {
    wire::PutU64(&seg, e.fingerprint);
    wire::PutString(&seg, e.study);
    wire::PutMeasurement(&seg, e.m);
  }
  wire::PutU64(&seg, wire::Fnv1a64Extend(prev, seg));
  return seg;
}

uint64_t LastChecksum(const std::string& bytes) {
  wire::Cursor c(bytes.data() + bytes.size() - 8, 8, "test");
  uint64_t v = 0;
  EXPECT_TRUE(c.GetU64(&v).ok());
  return v;
}

TEST(CellCacheJournalTest, SegmentRepeatingOrMisorderingKeysIsDropped) {
  const std::string dir = FreshCacheDir("journal_repeat");
  {
    CellResultCache writer;
    BuildJournal(dir, &writer);
  }
  const std::string path = CellCacheFileName(dir);
  const std::string journal = FileBytes(path);

  // A hand-made segment of a new key is accepted, so the layout is the
  // documented one.
  CellCacheEntry fresh = JournalEntry(1000);
  fresh.fingerprint = 1;  // below every Mix64 key here
  const std::string good = HandMadeSegment(LastChecksum(journal), {fresh});
  auto accepted = Parse(journal + good);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(accepted.value().segment_entries.size(), 3u);
  EXPECT_EQ(accepted.value().entries.size(), 57u);

  // Keys that do not ascend: the whole segment goes.
  const std::string misordered = HandMadeSegment(
      LastChecksum(journal), {JournalEntry(2000), fresh});
  auto unsorted = Parse(journal + misordered);
  ASSERT_TRUE(unsorted.ok()) << unsorted.status().ToString();
  ExpectJournalRead(unsorted.value(), 56, 2, misordered.size());

  // The same new key followed by a key from the base: the whole segment
  // goes, and so does a good segment after it.
  const std::string repeating =
      HandMadeSegment(LastChecksum(journal), {fresh, JournalEntry(5)});
  const std::string after =
      HandMadeSegment(LastChecksum(repeating), {JournalEntry(2000)});
  const std::string bytes = journal + repeating + after;
  auto r = Parse(bytes);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectJournalRead(r.value(), 56, 2, repeating.size() + after.size());

  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  CellResultCache cache;
  cache.Open(dir);
  EXPECT_EQ(cache.size(), 56u);
  EXPECT_FALSE(cache.Contains(1));  // added, then taken back out
  EXPECT_FALSE(cache.Contains(JournalEntry(2000).fingerprint));
  Measurement out;
  ASSERT_TRUE(cache.Lookup(JournalEntry(5).fingerprint, &out));
  ExpectMeasurementsBitIdentical(out, JournalEntry(5).m);
}

TEST(CellCacheJournalTest, FlushAfterADroppedRepeatingSegmentCompacts) {
  // A segment that repeats a key is dropped on open even though the file
  // ends there. Appending behind it would hide the new segment from every
  // later open, so the next flush must compact instead.
  const std::string dir = FreshCacheDir("journal_repeat_flush");
  {
    CellResultCache writer;
    BuildJournal(dir, &writer);
  }
  const std::string path = CellCacheFileName(dir);
  const std::string journal = FileBytes(path);
  const std::string repeating =
      HandMadeSegment(LastChecksum(journal), {JournalEntry(5)});
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write(repeating.data(), static_cast<std::streamsize>(repeating.size()));
  }
  {
    CellResultCache cache;
    cache.Open(dir);
    EXPECT_EQ(cache.size(), 56u);
    PublishAndFlush(&cache, 56, 1);
  }
  EXPECT_EQ(FileBytes(path), Serialize(JournalEntries(57)));
  CellResultCache reopened;
  reopened.Open(dir);
  EXPECT_EQ(reopened.size(), 57u);
  EXPECT_TRUE(reopened.Contains(JournalEntry(56).fingerprint));
}

TEST(CellCacheJournalTest, CopyingABaseOverAJournalLeavesOnlyThatBase) {
  // A session that re-stages the cache by copying a seed file over
  // cells.rmc gets the seed's entries and nothing the journal held.
  const std::string dir = FreshCacheDir("journal_restage");
  std::vector<size_t> ends;
  {
    CellResultCache writer;
    ends = BuildJournal(dir, &writer);
  }
  const std::string path = CellCacheFileName(dir);
  const std::string seed = dir + "/seed.rmc";
  {
    const std::string base = FileBytes(path).substr(0, ends[0]);
    std::ofstream f(seed, std::ios::binary | std::ios::trunc);
    f.write(base.data(), static_cast<std::streamsize>(base.size()));
  }
  std::filesystem::copy_file(seed, path,
                             std::filesystem::copy_options::overwrite_existing);
  CellResultCache cache;
  cache.Open(dir);
  EXPECT_EQ(cache.size(), kJournalEntries[0]);
  EXPECT_FALSE(cache.Contains(JournalEntry(kJournalEntries[0]).fingerprint));
  std::remove(seed.c_str());
}

TEST(CellCacheJournalTest, ReplacedFileIsCompactedOverNeverAppendedTo) {
  const std::string dir = FreshCacheDir("journal_replaced");
  const std::string path = CellCacheFileName(dir);
  CellResultCache cache;
  BuildJournal(dir, &cache);
  CellCacheData other;
  for (uint64_t i = 5000; i < 5003; ++i) {
    other.entries.push_back(JournalEntry(i));
  }
  ASSERT_TRUE(WriteCellCacheFile(path, other).ok());

  PublishAndFlush(&cache, 56, 4);
  EXPECT_EQ(FileBytes(path), Serialize(JournalEntries(60)));
  auto read = ReadCellCacheFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read.value().segment_entries.empty());
}

TEST(CellCacheJournalTest, CompactionEqualsWriteCellCacheOfTheSameEntries) {
  const std::string dir = FreshCacheDir("journal_compact");
  const std::string path = CellCacheFileName(dir);
  CellResultCache cache;
  BuildJournal(dir, &cache);
  // The journaled file reads back exactly as its compacted form does, in
  // the same order.
  auto journaled = ReadCellCacheFile(path);
  auto compacted = Parse(Serialize(JournalEntries(56)));
  ASSERT_TRUE(journaled.ok() && compacted.ok());
  ASSERT_EQ(journaled.value().entries.size(),
            compacted.value().entries.size());
  for (size_t i = 0; i < compacted.value().entries.size(); ++i) {
    const CellCacheEntry& j = journaled.value().entries[i];
    const CellCacheEntry& c = compacted.value().entries[i];
    ASSERT_EQ(j.fingerprint, c.fingerprint) << i;
    EXPECT_EQ(j.study, c.study);
    ExpectMeasurementsBitIdentical(j.m, c.m);
  }

  // More 8-entry flushes append until the segments would outgrow the
  // base; that flush compacts to exactly EncodeCellCache's bytes, into a
  // base at least twice the old one.
  uint64_t published = 56;
  bool compacted_once = false;
  for (int flush = 0; flush < 6 && !compacted_once; ++flush) {
    PublishAndFlush(&cache, published, 8);
    published += 8;
    auto read = ReadCellCacheFile(path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    compacted_once = read.value().segment_entries.empty();
    if (compacted_once) {
      EXPECT_GE(read.value().base_entries, 2 * kJournalEntries[0]);
    }
  }
  ASSERT_TRUE(compacted_once);
  EXPECT_EQ(FileBytes(path), Serialize(JournalEntries(published)));
}

TEST(CellCacheJournalTest, FailedAppendLosesNothingAndNextFlushCompacts) {
  const std::string dir = FreshCacheDir("journal_failed_append");
  const std::string path = CellCacheFileName(dir);
  CellResultCache cache;
  BuildJournal(dir, &cache);
  for (uint64_t i = 56; i < 60; ++i) {
    const CellCacheEntry e = JournalEntry(i);
    ASSERT_TRUE(cache.Publish(e.fingerprint, e.study, e.m));
  }
  ASSERT_EQ(std::remove(path.c_str()), 0);
  EXPECT_FALSE(cache.WriteCellCacheFile().ok());
  EXPECT_FALSE(std::ifstream(path).good());

  // Nothing new was published, yet the next flush still has the four
  // entries to write, and writes a whole base.
  ASSERT_TRUE(cache.WriteCellCacheFile().ok());
  EXPECT_EQ(FileBytes(path), Serialize(JournalEntries(60)));
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
         auto bytes = EncodeCellCache(data).ValueOrDie();
         std::ofstream f(path, std::ios::binary | std::ios::trunc);
         f.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size() - 6));
       }},
      {"wrong_version",
       [](const std::string& path) {
         std::string bytes = EncodeCellCache(CellCacheData{}).ValueOrDie();
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

    cache.Publish(9, "plain", SampleMeasurement(0.5));
    ASSERT_TRUE(cache.WriteCellCacheFile().ok());
    auto healed = ReadCellCacheFile(CellCacheFileName(dir));
    ASSERT_TRUE(healed.ok()) << healed.status().ToString();
    EXPECT_EQ(healed.value().fingerprint_schema,
              kCellCacheFingerprintSchemaVersion);
    ASSERT_EQ(healed.value().entries.size(), 1u);
    EXPECT_EQ(healed.value().entries[0].fingerprint, 9u);
  }
}

TEST(CellResultCacheTest, VersionOneFileOpensEmptyAndLeavesTheMapAlone) {
  // A cells.rmc of the previous format (v1: a plan label in every entry)
  // gets the unreadable-file warning and an empty cache, never a misread:
  // its entries, keyed under the very cells the sweep measures but holding
  // wrong seconds, do not reach the map.
  ProcEnv env;
  Executor executor(env.db());
  SweepRequest req;
  req.plans = {PlanKind::kTableScan, PlanKind::kIndexAImproved};
  req.space = ParameterSpace::TwoD(Axis::Selectivity("a", -3, 0),
                                   Axis::Selectivity("b", -3, 0));
  req.backend = BackendKind::kSerial;
  const RobustnessMap reference =
      SweepEngine::Run(env.ctx(), executor, req).ValueOrDie().map();

  const uint64_t env_fp = EnvironmentFingerprint(*env.ctx(), env.domain());
  const std::string spec = env.ctx()->warmup.ToSpec();
  std::vector<CellCacheEntryV1> old;
  for (size_t plan = 0; plan < reference.num_plans(); ++plan) {
    for (size_t pt = 0; pt < req.space.num_points(); ++pt) {
      CellCacheEntryV1 e;
      e.fingerprint = CellFingerprint(
          env_fp, StudyKindName(StudyKind::kPlainMap), spec,
          reference.plan_label(plan), req.space.x_value(pt),
          req.space.y_value(pt));
      e.study = StudyKindName(StudyKind::kPlainMap);
      e.m = reference.At(plan, pt);
      e.m.seconds += 1.0;
      e.label = reference.plan_label(plan);
      old.push_back(std::move(e));
    }
  }
  std::sort(old.begin(), old.end(),
            [](const CellCacheEntryV1& a, const CellCacheEntryV1& b) {
              return a.fingerprint < b.fingerprint;
            });
  const std::string dir = FreshCacheDir("version_one");
  {
    CellResultCache seed;
    seed.Open(dir);  // creates the directory
    const std::string v1 = EncodeCellCacheV1(old);
    std::ofstream f(CellCacheFileName(dir), std::ios::binary);
    f.write(v1.data(), static_cast<std::streamsize>(v1.size()));
  }

  CellResultCache cache;
  ::testing::internal::CaptureStderr();
  cache.Open(dir);
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_NE(warning.find("ignoring unreadable"), std::string::npos)
      << warning;
  EXPECT_NE(warning.find("version 1"), std::string::npos) << warning;

  req.cell_cache = &cache;
  const RobustnessMap swept =
      SweepEngine::Run(env.ctx(), executor, req).ValueOrDie().map();
  ExpectMapsBitIdentical(swept, reference);
  // The old file was keyed exactly as this sweep keys: the sweep published
  // a fresh entry under every one of its keys, and the next flush
  // replaces the file with one of this build's version.
  for (const CellCacheEntryV1& e : old) {
    EXPECT_TRUE(cache.Contains(e.fingerprint));
  }
  ASSERT_TRUE(cache.WriteCellCacheFile().ok());
  auto healed = ReadCellCacheFile(CellCacheFileName(dir));
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed.value().entries.size(), old.size());
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
  EXPECT_EQ(kCellCacheFormatVersion, 2u);
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
