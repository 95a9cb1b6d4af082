#include "core/cell_cache.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
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
constexpr size_t kMagicSize = sizeof(kMagic);
constexpr size_t kVersionOffset = kMagicSize;
constexpr size_t kChecksumSize = sizeof(uint64_t);
// Magic + both versions + entry count + trailing checksum: the least any
// cache file can be.
constexpr size_t kMinFileSize =
    kMagicSize + 2 * sizeof(uint32_t) + sizeof(uint64_t) + kChecksumSize;

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
  return sizeof(uint64_t) + sizeof(uint32_t) + e.study.size() +
         9 * sizeof(uint64_t) + sizeof(uint32_t) + e.m.plan_label.size();
}

/// An entry with its sort key alongside, so sorting never chases the
/// pointer.
struct EntryRef {
  uint64_t fingerprint;
  const CellCacheEntry* entry;
};

/// The one cache encoder: sorts `entries` ascending by fingerprint, so
/// equal contents serialize to equal bytes whatever order they come in,
/// rejects duplicate keys, and encodes straight from the entries into a
/// buffer sized up front.
Result<std::string> EncodeCellCache(uint32_t fingerprint_schema,
                                    std::vector<EntryRef> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const EntryRef& a, const EntryRef& b) {
              return a.fingerprint < b.fingerprint;
            });
  size_t bytes = kMinFileSize;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0 && entries[i].fingerprint == entries[i - 1].fingerprint) {
      return Status::InvalidArgument(
          "duplicate cell-cache fingerprint " + Hex64(entries[i].fingerprint) +
          "; a content-addressed store holds one entry per key");
    }
    bytes += EntryBytes(*entries[i].entry);
  }

  std::string buf;
  buf.reserve(bytes);
  buf.append(kMagic, kMagicSize);
  PutU32(&buf, kCellCacheFormatVersion);
  PutU32(&buf, fingerprint_schema);
  PutU64(&buf, entries.size());
  for (const EntryRef& ref : entries) {
    PutU64(&buf, ref.fingerprint);
    PutString(&buf, ref.entry->study);
    PutMeasurement(&buf, ref.entry->m);
  }
  PutU64(&buf, Fnv1a64(buf.data(), buf.size()));
  return buf;
}

std::vector<EntryRef> EntryRefs(const CellCacheData& data) {
  std::vector<EntryRef> entries;
  entries.reserve(data.entries.size());
  for (const CellCacheEntry& e : data.entries) {
    entries.push_back({e.fingerprint, &e});
  }
  return entries;
}

/// Writes `bytes` to `path` by write-then-rename: readers only ever see
/// either no file or a complete one. The temp name carries the buffer's
/// address and the pid so concurrent writers never clobber each other's
/// in-flight writes.
Status WriteFileAtomically(const std::string& path, const std::string& bytes) {
  const std::string tmp =
      path + ".tmp." + std::to_string(reinterpret_cast<uintptr_t>(&bytes)) +
      "." + std::to_string(static_cast<unsigned long>(::getpid()));
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f.is_open()) {
      return Status::Internal("cannot open " + tmp + " for writing");
    }
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    f.close();
    if (!f.good()) {
      std::remove(tmp.c_str());
      return Status::Internal("cell cache write failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

}  // namespace

std::string CellCacheFileName(const std::string& dir) {
  return dir + "/cells.rmc";
}

Status WriteCellCache(std::ostream& os, const CellCacheData& data) {
  auto buf = EncodeCellCache(data.fingerprint_schema, EntryRefs(data));
  RM_RETURN_IF_ERROR(buf.status());
  os.write(buf.value().data(),
           static_cast<std::streamsize>(buf.value().size()));
  if (!os.good()) return Status::Internal("cell cache write failed");
  return Status::OK();
}

Status WriteCellCacheFile(const std::string& path,
                          const CellCacheData& data) {
  auto buf = EncodeCellCache(data.fingerprint_schema, EntryRefs(data));
  RM_RETURN_IF_ERROR(buf.status());
  return WriteFileAtomically(path, buf.value());
}

namespace {

/// Decodes a whole cache file's bytes; the one parser behind both readers.
Result<CellCacheData> ParseCellCache(const std::string& buf) {
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
  Cursor header(buf.data() + kVersionOffset, buf.size() - kVersionOffset,
                kWhat);
  uint32_t version = 0;
  RM_RETURN_IF_ERROR(header.GetU32(&version));
  if (version != kCellCacheFormatVersion) {
    return Status::NotSupported(
        "cell cache format version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kCellCacheFormatVersion) + ")");
  }
  const size_t payload_size = buf.size() - kChecksumSize;
  Cursor trailer(buf.data() + payload_size, kChecksumSize, kWhat);
  uint64_t stored = 0;
  RM_RETURN_IF_ERROR(trailer.GetU64(&stored));
  const uint64_t computed = Fnv1a64(buf.data(), payload_size);
  if (stored != computed) {
    return Status::Corruption("cell cache checksum mismatch (file damaged "
                              "or cut short)");
  }

  Cursor c(buf.data() + kVersionOffset + sizeof(uint32_t),
           payload_size - kVersionOffset - sizeof(uint32_t), kWhat);
  CellCacheData data;
  RM_RETURN_IF_ERROR(c.GetU32(&data.fingerprint_schema));
  uint64_t count = 0;
  RM_RETURN_IF_ERROR(c.GetU64(&count));
  // Every entry occupies at least a fingerprint, a study length, and the
  // measurement's fixed fields; bound the count by the bytes that could
  // back it *before* allocating, so a damaged count surfaces as
  // Corruption, not as a multi-terabyte resize throwing bad_alloc.
  constexpr size_t kMinEntryBytes =
      sizeof(uint64_t) + sizeof(uint32_t) + 9 * sizeof(uint64_t) +
      sizeof(uint32_t);
  if (count > c.remaining() / kMinEntryBytes) {
    return Status::Corruption("cell cache claims " + std::to_string(count) +
                              " entries but only " +
                              std::to_string(c.remaining()) +
                              " bytes remain");
  }
  data.entries.resize(count);
  uint64_t prev_fp = 0;
  for (uint64_t i = 0; i < count; ++i) {
    CellCacheEntry& e = data.entries[i];
    RM_RETURN_IF_ERROR(c.GetU64(&e.fingerprint));
    if (i > 0 && e.fingerprint <= prev_fp) {
      return Status::Corruption(
          "cell cache entries out of fingerprint order (deterministic "
          "files are sorted)");
    }
    prev_fp = e.fingerprint;
    RM_RETURN_IF_ERROR(c.GetString(&e.study));
    RM_RETURN_IF_ERROR(GetMeasurement(&c, &e.m));
  }
  if (c.remaining() != 0) {
    return Status::Corruption("cell cache has " +
                              std::to_string(c.remaining()) +
                              " trailing bytes past its declared entries");
  }
  return data;
}

}  // namespace

Result<CellCacheData> ReadCellCache(std::istream& is) {
  return ParseCellCache(std::string((std::istreambuf_iterator<char>(is)),
                                    std::istreambuf_iterator<char>()));
}

Result<CellCacheData> ReadCellCacheFile(const std::string& path) {
  std::string buf;
  RM_RETURN_IF_ERROR(wire::ReadFileBytes(path, kWhat, &buf));
  auto data = ParseCellCache(buf);
  if (!data.ok()) {
    if (data.status().IsNotSupported()) {
      return Status::NotSupported(path + ": " + data.status().message());
    }
    return Status::Corruption(path + ": " + data.status().message());
  }
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
  auto data = ReadCellCacheFile(path_);
  if (data.ok()) {
    if (data.value().fingerprint_schema !=
        kCellCacheFingerprintSchemaVersion) {
      // Stale schema: the keys were computed under assumptions this build
      // no longer makes. Partial trust would poison maps; starting over
      // only costs re-measurement.
      std::fprintf(stderr,
                   "  cell cache: %s has fingerprint schema %u, this build "
                   "uses %u; ignoring it (the next flush repopulates)\n",
                   path_.c_str(), data.value().fingerprint_schema,
                   kCellCacheFingerprintSchemaVersion);
      return;
    }
    const size_t per_stripe = data.value().entries.size() / kStripes + 1;
    for (Stripe& stripe : stripes_) {
      MutexLock lock(&stripe.mu);
      stripe.entries.reserve(per_stripe);
    }
    for (CellCacheEntry& e : data.value().entries) {
      Stripe& stripe = StripeOf(e.fingerprint);
      MutexLock lock(&stripe.mu);
      const uint64_t fp = e.fingerprint;
      stripe.entries.emplace(fp, std::move(e));
    }
    return;
  }
  if (!data.status().IsNotFound()) {
    // Damaged or foreign file: warn and start empty — a cache must never
    // poison a map, and the next flush overwrites the wreckage.
    std::fprintf(stderr,
                 "  cell cache: ignoring unreadable %s (%s); starting "
                 "empty\n",
                 path_.c_str(), data.status().ToString().c_str());
  }
}

const CellCacheEntry* CellResultCache::Find(uint64_t fingerprint) const {
  const Stripe& stripe = StripeOf(fingerprint);
  MutexLock lock(&stripe.mu);
  const auto it = stripe.entries.find(fingerprint);
  return it == stripe.entries.end() ? nullptr : &it->second;
}

bool CellResultCache::Lookup(uint64_t fingerprint, Measurement* out) const {
  // The copy happens outside the stripe lock: a found entry never changes.
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
  Stripe& stripe = StripeOf(fingerprint);
  MutexLock lock(&stripe.mu);
  if (!stripe.entries.try_emplace(fingerprint, std::move(entry)).second) {
    return false;
  }
  stripe.dirty = true;
  return true;
}

Status CellResultCache::WriteCellCacheFile() {
  if (path_.empty()) return Status::OK();
  MutexLock flush_lock(&flush_mu_);
  // Each stripe's dirty bit is cleared in the same critical section that
  // snapshots its entries, so a publish landing after that point dirties
  // the stripe again for the next flush.
  std::vector<EntryRef> entries;
  entries.reserve(size());
  std::array<bool, kStripes> was_dirty{};
  bool any_dirty = false;
  for (size_t i = 0; i < kStripes; ++i) {
    Stripe& stripe = stripes_[i];
    MutexLock lock(&stripe.mu);
    // determinism-lint: allow(unordered-iteration) sorted by EncodeCellCache
    for (const auto& [fp, e] : stripe.entries) entries.push_back({fp, &e});
    was_dirty[i] = stripe.dirty;
    any_dirty = any_dirty || stripe.dirty;
    stripe.dirty = false;
  }
  if (!any_dirty) return Status::OK();
  const uint32_t schema = kCellCacheFingerprintSchemaVersion;
  auto buf = EncodeCellCache(schema, std::move(entries));
  Status s = buf.ok() ? WriteFileAtomically(path_, buf.value()) : buf.status();
  if (!s.ok()) {
    // The file does not hold what the cleared stripes held: dirty them
    // again so the next flush retries.
    for (size_t i = 0; i < kStripes; ++i) {
      if (!was_dirty[i]) continue;
      Stripe& stripe = stripes_[i];
      MutexLock lock(&stripe.mu);
      stripe.dirty = true;
    }
  }
  return s;
}

size_t CellResultCache::size() const {
  size_t n = 0;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(&stripe.mu);
    n += stripe.entries.size();
  }
  return n;
}

}  // namespace robustmap
