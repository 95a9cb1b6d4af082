#include "core/cell_cache.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/sharded_sweep.h"
#include "core/wire_format.h"

namespace robustmap {

namespace {

using wire::Cursor;
using wire::Fnv1a64;
using wire::Fnv1a64Extend;
using wire::GetMeasurement;
using wire::PutMeasurement;
using wire::PutString;
using wire::PutU32;
using wire::PutU64;

constexpr char kMagic[8] = {'R', 'M', 'C', 'C', 'A', 'C', 'H', 'E'};
constexpr char kSegmentMagic[8] = {'R', 'M', 'C', 'J', 'S', 'E', 'G', '1'};
constexpr size_t kMagicSize = sizeof(kMagic);
constexpr size_t kVersionOffset = kMagicSize;
constexpr size_t kChecksumSize = sizeof(uint64_t);
// Magic + both versions + entry count + trailing checksum: the least any
// cache file can be.
constexpr size_t kMinFileSize =
    kMagicSize + 2 * sizeof(uint32_t) + sizeof(uint64_t) + kChecksumSize;
// Magic + entry count + checksum: the least a journal segment can be.
constexpr size_t kSegmentOverhead =
    kMagicSize + sizeof(uint64_t) + kChecksumSize;
// A fingerprint, a study length, and the measurement's fixed fields: the
// least any entry occupies.
constexpr size_t kMinEntryBytes =
    sizeof(uint64_t) + sizeof(uint32_t) + wire::kMeasurementFixedBytes;

// The artifact name Cursor errors lead with ("truncated cell cache: ...").
constexpr char kWhat[] = "cell cache";

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string DoubleBits(double v) { return Hex64(std::bit_cast<uint64_t>(v)); }

uint64_t HashString(const std::string& s) {
  return Fnv1a64(s.data(), s.size());
}

/// Continues `h` over the 16 lowercase hex digits `Hex64(v)` prints.
uint64_t ExtendHex64(uint64_t h, uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  char hex[16];
  for (int i = 15; i >= 0; --i) {
    hex[i] = kDigits[v & 0xf];
    v >>= 4;
  }
  return Fnv1a64Extend(h, std::string_view(hex, sizeof(hex)));
}

/// Serialized size of one entry: fingerprint, study, measurement.
size_t EntryBytes(const CellCacheEntry& e) {
  return sizeof(uint64_t) + wire::StringBytes(e.study) +
         wire::MeasurementBytes(e.m);
}

/// An entry with its sort key alongside, so sorting never chases the
/// pointer.
struct EntryRef {
  uint64_t fingerprint;
  const CellCacheEntry* entry;
};

/// Sorts `entries` ascending by fingerprint, so equal contents serialize
/// to equal bytes whatever order they come in, and rejects duplicate
/// keys.
Status SortEntries(std::vector<EntryRef>* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const EntryRef& a, const EntryRef& b) {
              return a.fingerprint < b.fingerprint;
            });
  for (size_t i = 1; i < entries->size(); ++i) {
    const uint64_t fp = (*entries)[i].fingerprint;
    if (fp == (*entries)[i - 1].fingerprint) {
      return Status::InvalidArgument(
          "duplicate cell-cache fingerprint " + Hex64(fp) +
          "; a content-addressed store holds one entry per key");
    }
  }
  return Status::OK();
}

/// The bytes `entries` encode to.
size_t EntriesBytes(const std::vector<EntryRef>& entries) {
  size_t bytes = 0;
  for (const EntryRef& ref : entries) bytes += EntryBytes(*ref.entry);
  return bytes;
}

void PutEntries(std::string* buf, const std::vector<EntryRef>& entries) {
  for (const EntryRef& ref : entries) {
    PutU64(buf, ref.fingerprint);
    PutString(buf, ref.entry->study);
    PutMeasurement(buf, ref.entry->m);
  }
}

/// The one base encoder: sorted entries, encoded straight from the entries
/// into a buffer sized up front.
Result<std::string> EncodeBase(uint32_t fingerprint_schema,
                               std::vector<EntryRef> entries) {
  RM_RETURN_IF_ERROR(SortEntries(&entries));
  std::string buf;
  buf.reserve(kMinFileSize + EntriesBytes(entries));
  buf.append(kMagic, kMagicSize);
  PutU32(&buf, kCellCacheFormatVersion);
  PutU32(&buf, fingerprint_schema);
  PutU64(&buf, entries.size());
  PutEntries(&buf, entries);
  PutU64(&buf, Fnv1a64(buf.data(), buf.size()));
  return buf;
}

/// One journal segment of `entries` (sorted, unique), chained from
/// `prev`, the checksum the file it extends ends with.
std::string EncodeSegment(uint64_t prev,
                          const std::vector<EntryRef>& entries) {
  std::string buf;
  buf.reserve(kSegmentOverhead + EntriesBytes(entries));
  buf.append(kSegmentMagic, kMagicSize);
  PutU64(&buf, entries.size());
  PutEntries(&buf, entries);
  PutU64(&buf, Fnv1a64Extend(prev, buf));
  return buf;
}

/// The u64 checksum a base or a segment ends with.
uint64_t TrailingChecksum(const std::string& bytes) {
  uint64_t v = 0;
  for (size_t i = 0; i < kChecksumSize; ++i) {
    const auto byte = static_cast<unsigned char>(
        bytes[bytes.size() - kChecksumSize + i]);
    v |= static_cast<uint64_t>(byte) << (8 * i);
  }
  return v;
}

std::vector<EntryRef> EntryRefs(const CellCacheData& data) {
  std::vector<EntryRef> entries;
  entries.reserve(data.entries.size());
  for (const CellCacheEntry& e : data.entries) {
    entries.push_back({e.fingerprint, &e});
  }
  return entries;
}

}  // namespace

std::string CellCacheFileName(const std::string& dir) {
  return dir + "/cells.rmc";
}

Result<std::string> EncodeCellCache(const CellCacheData& data) {
  return EncodeBase(data.fingerprint_schema, EntryRefs(data));
}

Status WriteCellCacheFile(const std::string& path,
                          const CellCacheData& data) {
  auto buf = EncodeCellCache(data);
  RM_RETURN_IF_ERROR(buf.status());
  return wire::WriteFileAtomically(path, buf.value(), kWhat);
}

namespace {

/// Where one run of ascending entries sits in a cache file: the base's or
/// one journal segment's.
struct Run {
  size_t start = 0;    ///< offset of its magic
  size_t entries = 0;  ///< offset of its first entry
  uint64_t count = 0;
};

/// The trusted structure of a cache file: the whole base, then every
/// segment up to the first one that is torn, out of order, or fails its
/// checksum. A segment that repeats a key is caught when its entries are
/// decoded.
struct Layout {
  uint32_t fingerprint_schema = 0;
  std::vector<Run> runs;  ///< runs[0] is the base
  size_t base_bytes = 0;
  size_t kept_bytes = 0;  ///< the base plus the kept segments
  uint64_t checksum = 0;  ///< the checksum the kept bytes end with
};

/// Reads a run's entry count, bounded by the bytes that could back it
/// *before* anything allocates, so a damaged count surfaces as
/// Corruption, not as a multi-terabyte resize throwing bad_alloc.
Status GetCount(Cursor* c, uint64_t* count) {
  RM_RETURN_IF_ERROR(c->GetU64(count));
  if (*count > c->remaining() / kMinEntryBytes) {
    return Status::Corruption("cell cache claims " + std::to_string(*count) +
                              " entries but only " +
                              std::to_string(c->remaining()) +
                              " bytes remain");
  }
  return Status::OK();
}

/// Walks `count` entries without decoding them, checking that their
/// fingerprints strictly ascend.
Status SkipEntries(Cursor* c, uint64_t count) {
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t fp = 0;
    uint32_t len = 0;
    RM_RETURN_IF_ERROR(c->GetU64(&fp));
    if (i > 0 && fp <= prev) {
      return Status::Corruption(
          "cell cache entries out of fingerprint order (deterministic "
          "files are sorted)");
    }
    prev = fp;
    // The study, then the measurement's fixed part up to its label length.
    RM_RETURN_IF_ERROR(c->GetU32(&len));
    RM_RETURN_IF_ERROR(c->Skip(size_t{len} + wire::kMeasurementFixedBytes -
                               sizeof(uint32_t)));
    RM_RETURN_IF_ERROR(c->GetU32(&len));  // plan label
    RM_RETURN_IF_ERROR(c->Skip(len));
  }
  return Status::OK();
}

/// Scans the journal segment at `c`'s position, which must chain from
/// `*checksum`; on success advances `*checksum` to the segment's own.
Status ScanSegment(std::string_view buf, Cursor* c, uint64_t* checksum,
                   Run* seg) {
  seg->start = c->position();
  if (c->remaining() < kSegmentOverhead ||
      std::memcmp(buf.data() + seg->start, kSegmentMagic, kMagicSize) != 0) {
    return Status::Corruption("not a cell cache segment");
  }
  RM_RETURN_IF_ERROR(c->Skip(kMagicSize));
  RM_RETURN_IF_ERROR(GetCount(c, &seg->count));
  seg->entries = c->position();
  RM_RETURN_IF_ERROR(SkipEntries(c, seg->count));
  const std::string_view bytes(buf.data() + seg->start,
                               c->position() - seg->start);
  uint64_t stored = 0;
  RM_RETURN_IF_ERROR(c->GetU64(&stored));
  if (stored != Fnv1a64Extend(*checksum, bytes)) {
    return Status::Corruption("cell cache segment checksum mismatch");
  }
  *checksum = stored;
  return Status::OK();
}

/// Scans a whole cache file's bytes; the one parser behind both readers
/// and `CellResultCache::Open`. The base must be whole; segments are kept
/// up to the first one that is not.
Result<Layout> ScanCellCache(std::string_view buf) {
  if (buf.size() < kMinFileSize) {
    return Status::Corruption("truncated cell cache: " +
                              std::to_string(buf.size()) +
                              " bytes is smaller than any valid cache");
  }
  if (std::memcmp(buf.data(), kMagic, kMagicSize) != 0) {
    return Status::Corruption("not a cell cache (bad magic)");
  }
  // Version gates everything else: an unknown version may checksum or lay
  // out its payload differently, so it is the one error reported before
  // the integrity check.
  Cursor c(buf.data(), buf.size(), kWhat);
  uint32_t version = 0;
  RM_RETURN_IF_ERROR(c.Skip(kVersionOffset));
  RM_RETURN_IF_ERROR(c.GetU32(&version));
  if (version != kCellCacheFormatVersion) {
    return Status::NotSupported(
        "cell cache format version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kCellCacheFormatVersion) + ")");
  }
  Layout l;
  Run base;
  RM_RETURN_IF_ERROR(c.GetU32(&l.fingerprint_schema));
  RM_RETURN_IF_ERROR(GetCount(&c, &base.count));
  base.entries = c.position();
  RM_RETURN_IF_ERROR(SkipEntries(&c, base.count));
  const size_t payload_size = c.position();
  RM_RETURN_IF_ERROR(c.GetU64(&l.checksum));
  if (l.checksum != Fnv1a64(buf.data(), payload_size)) {
    return Status::Corruption("cell cache checksum mismatch (file damaged "
                              "or cut short)");
  }
  l.runs.push_back(base);
  l.base_bytes = l.kept_bytes = c.position();
  while (c.remaining() > 0) {
    Run seg;
    if (!ScanSegment(buf, &c, &l.checksum, &seg).ok()) break;
    l.runs.push_back(seg);
    l.kept_bytes = c.position();
  }
  return l;
}

/// Decodes the rest of an entry after its fingerprint.
Status GetEntryBody(Cursor* c, CellCacheEntry* e) {
  RM_RETURN_IF_ERROR(c->GetString(&e->study));
  return GetMeasurement(c, &e->m);
}

/// The bytes of a scanned file that `kept` of its runs cover.
size_t KeptBytes(const Layout& l, size_t kept) {
  return kept < l.runs.size() ? l.runs[kept].start : l.kept_bytes;
}

uint64_t TotalEntries(const Layout& l) {
  uint64_t total = 0;
  for (const Run& run : l.runs) total += run.count;
  return total;
}

using EntryMap = std::unordered_map<uint64_t, CellCacheEntry>;

/// Decodes one run's entries straight into their map nodes, noting each new
/// key in `*added`. False at the first key already in the map (or at an
/// entry that does not decode, which a successful scan rules out).
bool DecodeRun(std::string_view buf, const Run& run, EntryMap* entries,
               std::vector<uint64_t>* added) {
  Cursor c(buf.data() + run.entries, buf.size() - run.entries, kWhat);
  for (uint64_t i = 0; i < run.count; ++i) {
    uint64_t fp = 0;
    if (!c.GetU64(&fp).ok()) return false;
    const auto [it, inserted] = entries->try_emplace(fp);
    if (!inserted) return false;
    added->push_back(fp);
    it->second.fingerprint = fp;
    if (!GetEntryBody(&c, &it->second).ok()) return false;
  }
  return true;
}

/// The one decoder behind both readers and `CellResultCache::Open`: every
/// kept run of a scanned file, in file order, into `*entries`. A failed
/// `try_emplace` is the duplicate check. Only a segment can repeat a key
/// (the scan checked that keys ascend within a run); the first that does
/// has its entries taken back out and is dropped with every later one.
/// Returns the number of runs kept.
size_t DecodeRuns(std::string_view buf, const Layout& l,
                  EntryMap* entries) {
  std::vector<uint64_t> added;
  for (size_t r = 0; r < l.runs.size(); ++r) {
    added.clear();
    if (!DecodeRun(buf, l.runs[r], entries, &added)) {
      for (const uint64_t fp : added) entries->erase(fp);
      return r;
    }
  }
  return l.runs.size();
}

/// Prefixes a reader error with the file it came from, keeping its kind.
Status AtPath(const std::string& path, const Status& s) {
  const std::string msg = path + ": " + s.message();
  return s.IsNotSupported() ? Status::NotSupported(msg)
                            : Status::Corruption(msg);
}

}  // namespace

Result<CellCacheData> ParseCellCache(std::string_view buf) {
  auto scanned = ScanCellCache(buf);
  RM_RETURN_IF_ERROR(scanned.status());
  const Layout& l = scanned.value();
  EntryMap entries;
  entries.reserve(TotalEntries(l));
  const size_t kept = DecodeRuns(buf, l, &entries);
  CellCacheData data;
  data.fingerprint_schema = l.fingerprint_schema;
  data.entries.reserve(entries.size());
  // determinism-lint: allow(unordered-iteration) sorted right below
  for (auto& [fp, e] : entries) data.entries.push_back(std::move(e));
  std::sort(data.entries.begin(), data.entries.end(),
            [](const CellCacheEntry& a, const CellCacheEntry& b) {
              return a.fingerprint < b.fingerprint;
            });
  data.base_entries = l.runs[0].count;
  for (size_t r = 1; r < kept; ++r) {
    data.segment_entries.push_back(l.runs[r].count);
  }
  data.dropped_bytes = buf.size() - KeptBytes(l, kept);
  return data;
}

Result<CellCacheData> ReadCellCacheFile(const std::string& path) {
  std::string buf;
  RM_RETURN_IF_ERROR(wire::ReadFileBytes(path, kWhat, &buf));
  auto data = ParseCellCache(buf);
  if (!data.ok()) return AtPath(path, data.status());
  return data;
}

uint64_t EnvironmentFingerprint(const RunContext& ctx, int64_t domain) {
  const DiskParameters& disk = ctx.device->model().params();
  const CpuParameters& cpu = ctx.cpu;
  std::string canon = "env|v1";
  canon += "|domain=" + std::to_string(domain);
  canon += "|data_pages=" + std::to_string(ctx.device->data_watermark());
  canon += "|pool_pages=" + std::to_string(ctx.pool->capacity_pages());
  canon += "|sort_bytes=" + std::to_string(ctx.sort_memory_bytes);
  canon += "|hash_bytes=" + std::to_string(ctx.hash_memory_bytes);
  canon += "|disk=" + std::to_string(disk.page_size_bytes) + "," +
           DoubleBits(disk.sequential_bandwidth_bytes_per_sec) + "," +
           DoubleBits(disk.random_access_seconds) + "," +
           DoubleBits(disk.skip_settle_seconds) + "," +
           DoubleBits(disk.skip_per_page_seconds) + "," +
           std::to_string(disk.max_skip_gap_pages);
  canon += "|cpu=" + DoubleBits(cpu.predicate_eval_seconds) + "," +
           DoubleBits(cpu.row_fetch_seconds) + "," +
           DoubleBits(cpu.index_entry_seconds) + "," +
           DoubleBits(cpu.compare_seconds) + "," +
           DoubleBits(cpu.hash_seconds) + "," +
           DoubleBits(cpu.copy_row_seconds) + "," +
           DoubleBits(cpu.bitmap_set_seconds);
  return HashString(canon);
}

CellKeyer::CellKeyer(uint64_t env_fingerprint, std::string_view study,
                     std::string_view warmup_spec,
                     std::string_view plan_label) {
  // "cell|s<schema>", built once per process.
  static const std::string kHead =
      "cell|s" + std::to_string(kCellCacheFingerprintSchemaVersion);
  uint64_t h = Fnv1a64Extend(wire::kFnv1a64Offset, kHead);
  h = ExtendHex64(Fnv1a64Extend(h, "|env="), env_fingerprint);
  h = Fnv1a64Extend(Fnv1a64Extend(h, "|study="), study);
  h = Fnv1a64Extend(Fnv1a64Extend(h, "|warmup="), warmup_spec);
  prefix_hash_ = Fnv1a64Extend(Fnv1a64Extend(h, "|plan="), plan_label);
}

uint64_t CellKeyer::Key(double x, double y) const {
  uint64_t h = Fnv1a64Extend(prefix_hash_, "|x=");
  h = ExtendHex64(h, std::bit_cast<uint64_t>(x));
  h = Fnv1a64Extend(h, "|y=");
  return ExtendHex64(h, std::bit_cast<uint64_t>(y));
}

uint64_t CellFingerprint(uint64_t env_fingerprint, const char* study,
                         const std::string& warmup_spec,
                         const std::string& plan_label, double x, double y) {
  return CellKeyer(env_fingerprint, study, warmup_spec, plan_label).Key(x, y);
}

void CellResultCache::Open(const std::string& dir) {
  if (Status s = EnsureDirectory(dir); !s.ok()) {
    std::fprintf(stderr,
                 "  cell cache: %s; continuing without persistence\n",
                 s.ToString().c_str());
    return;
  }
  path_ = CellCacheFileName(dir);
  std::string buf;
  Status read = wire::ReadFileBytes(path_, kWhat, &buf);
  auto scanned = read.ok() ? ScanCellCache(buf) : Result<Layout>(read);
  if (!scanned.ok()) {
    if (!read.IsNotFound()) {
      // Damaged or foreign file: warn and start empty — a cache must never
      // poison a map, and the next flush overwrites the wreckage.
      const Status s = read.ok() ? AtPath(path_, scanned.status()) : read;
      std::fprintf(stderr,
                   "  cell cache: ignoring unreadable %s (%s); starting "
                   "empty\n",
                   path_.c_str(), s.ToString().c_str());
    }
    return;
  }
  const Layout& l = scanned.value();
  if (l.fingerprint_schema != kCellCacheFingerprintSchemaVersion) {
    // Stale schema: the keys were computed under assumptions this build
    // no longer makes. Partial trust would poison maps; starting over
    // only costs re-measurement.
    std::fprintf(stderr,
                 "  cell cache: %s has fingerprint schema %u, this build "
                 "uses %u; ignoring it (the next flush repopulates)\n",
                 path_.c_str(), l.fingerprint_schema,
                 kCellCacheFingerprintSchemaVersion);
    return;
  }
  size_t kept = 0;
  {
    MutexLock lock(&mu_);
    entries_.reserve(TotalEntries(l));
    kept = DecodeRuns(buf, l, &entries_);
  }
  MutexLock flush_lock(&flush_mu_);
  base_bytes_ = l.base_bytes;
  file_bytes_ = l.kept_bytes;
  file_checksum_ = l.checksum;
  const size_t kept_bytes = KeptBytes(l, kept);
  if (kept_bytes < buf.size()) {
    // Never partly trusted, and never appended after: a segment behind a
    // dropped one would be dropped with it, so the next flush compacts.
    base_bytes_ = 0;
    std::fprintf(stderr,
                 "  cell cache: dropped the last %zu bytes of %s (a torn, "
                 "damaged or repeating journal segment)\n",
                 buf.size() - kept_bytes, path_.c_str());
  }
}

const CellCacheEntry* CellResultCache::Find(uint64_t fingerprint) const {
  MutexLock lock(&mu_);
  const auto it = entries_.find(fingerprint);
  return it == entries_.end() ? nullptr : &it->second;
}

bool CellResultCache::Lookup(uint64_t fingerprint, Measurement* out) const {
  // The copy happens outside the lock: a found entry never changes.
  const CellCacheEntry* e = Find(fingerprint);
  if (e == nullptr) return false;
  *out = e->m;
  return true;
}

bool CellResultCache::Contains(uint64_t fingerprint) const {
  return Find(fingerprint) != nullptr;
}

bool CellResultCache::Publish(uint64_t fingerprint, std::string_view study,
                              const Measurement& m) {
  // The copy is made before taking the lock; the critical section only
  // links the node in.
  CellCacheEntry entry{fingerprint, std::string(study), m};
  MutexLock lock(&mu_);
  const auto [it, inserted] =
      entries_.try_emplace(fingerprint, std::move(entry));
  if (!inserted) return false;
  fresh_.push_back(&it->second);
  return true;
}

Status CellResultCache::WriteCellCacheFile() {
  if (path_.empty()) return Status::OK();
  MutexLock flush_lock(&flush_mu_);
  // Take the fresh entries; a publish landing after this stays fresh for
  // the next flush, and a failed write puts them back.
  std::vector<const CellCacheEntry*> taken;
  {
    MutexLock lock(&mu_);
    taken.swap(fresh_);
  }
  if (taken.empty()) return Status::OK();
  const auto restore = [this, &taken] {
    MutexLock lock(&mu_);
    fresh_.insert(fresh_.end(), taken.begin(), taken.end());
  };
  std::vector<EntryRef> fresh;
  fresh.reserve(taken.size());
  for (const CellCacheEntry* e : taken) fresh.push_back({e->fingerprint, e});
  // Append while the segments stay no bigger than the base.
  const uint64_t segment_bytes = kSegmentOverhead + EntriesBytes(fresh);
  if (file_bytes_ - base_bytes_ + segment_bytes <= base_bytes_) {
    if (Status s = SortEntries(&fresh); !s.ok()) {
      restore();
      return s;
    }
    const std::string segment = EncodeSegment(file_checksum_, fresh);
    auto appended = wire::AppendFileIfSize(path_, file_bytes_, segment);
    if (!appended.ok()) {
      // The file may now end in part of this segment: keep the entries
      // fresh, and compact next time.
      base_bytes_ = 0;
      restore();
      return appended.status();
    }
    if (appended.value()) {
      file_bytes_ += segment.size();
      file_checksum_ = TrailingChecksum(segment);
      return Status::OK();
    }
    // The file is no longer the one this cache left (replaced or extended
    // behind its back): compact over it.
  }
  // Compact. The snapshot and the fresh list are taken in one critical
  // section, so everything published so far is in the file.
  std::vector<EntryRef> entries;
  {
    MutexLock lock(&mu_);
    entries.reserve(entries_.size());
    // determinism-lint: allow(unordered-iteration) sorted by EncodeBase
    for (const auto& [fp, e] : entries_) entries.push_back({fp, &e});
    taken.insert(taken.end(), fresh_.begin(), fresh_.end());
    fresh_.clear();
  }
  const uint32_t schema = kCellCacheFingerprintSchemaVersion;
  auto buf = EncodeBase(schema, std::move(entries));
  Status s = buf.ok() ? wire::WriteFileAtomically(path_, buf.value(), kWhat)
                      : buf.status();
  if (!s.ok()) {
    restore();
    return s;
  }
  base_bytes_ = file_bytes_ = buf.value().size();
  file_checksum_ = TrailingChecksum(buf.value());
  return Status::OK();
}

size_t CellResultCache::size() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

}  // namespace robustmap
