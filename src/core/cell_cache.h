#ifndef ROBUSTMAP_CORE_CELL_CACHE_H_
#define ROBUSTMAP_CORE_CELL_CACHE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "engine/executor.h"
#include "io/run_context.h"

namespace robustmap {

/// Current version of the binary cell-cache file format. Readers reject
/// anything else outright (`NotSupported`) — the cache carries measured
/// data between processes, so silent misinterpretation is never an
/// acceptable failure mode. Bump whenever the entry layout changes.
inline constexpr uint32_t kCellCacheFormatVersion = 1;

/// Version of the *fingerprint schema*: the canonical string hashed into
/// each entry's key, including the serialized `Measurement` field set.
/// Bump whenever the fingerprint inputs change meaning (a new field in
/// `Measurement`, a new environment parameter, a reworded warmup spec) —
/// old entries were keyed under assumptions that no longer hold, so a
/// cache written under a different schema is ignored wholesale rather
/// than partially trusted.
inline constexpr uint32_t kCellCacheFingerprintSchemaVersion = 1;

/// The cache file inside a cache directory.
std::string CellCacheFileName(const std::string& dir);

/// One persisted cell result: the content fingerprint it is keyed by, the
/// study that measured it (inspection metadata — the fingerprint alone
/// decides identity), and the full measurement, every field a map tile
/// stores — so a cache hit reproduces the exact bytes a fresh measurement
/// would have serialized to.
struct CellCacheEntry {
  uint64_t fingerprint = 0;
  std::string study;
  Measurement m;
};

/// A decoded cache file: its fingerprint schema plus the entries, sorted
/// ascending by fingerprint (the deterministic-bytes order `EncodeCellCache`
/// enforces). The readers also report the file's layout; the writers
/// ignore it.
struct CellCacheData {
  uint32_t fingerprint_schema = kCellCacheFingerprintSchemaVersion;
  std::vector<CellCacheEntry> entries;
  /// Entries in the base, then in each kept journal segment.
  uint64_t base_entries = 0;
  std::vector<uint64_t> segment_entries;
  /// Bytes past the last kept segment that were not trusted.
  uint64_t dropped_bytes = 0;
};

/// Serializes a cache as one compacted base. The on-disk layout follows
/// the map_io conventions:
///
///   magic "RMCCACHE" | u32 format version | u32 fingerprint schema
///   | u64 entry count
///   | per entry: u64 fingerprint + study string + measurement
///   | u64 FNV-1a checksum over everything before it
///
/// Entries are written in ascending fingerprint order whatever order the
/// caller supplies, so equal contents serialize to equal bytes.
///
/// A flushing `CellResultCache` may follow the base with journal
/// segments, each holding only the entries published since the previous
/// flush:
///
///   magic "RMCJSEG1" | u64 entry count | ascending entries, as above
///   | u64 checksum: FNV-1a continued from the previous checksum (the
///     base's trailer for the first segment) over the segment's bytes
///
/// so a segment only ever extends the exact file it was appended to. A
/// file with no segments is byte for byte a compacted base. Builds that
/// predate segments read a journaled file as checksum-damaged, warn, and
/// start empty.
Result<std::string> EncodeCellCache(const CellCacheData& data);

/// Writes atomically: to `path` + a ".tmp" suffix, then rename(2), so a
/// crash mid-write never leaves a plausible-looking partial cache behind.
Status WriteCellCacheFile(const std::string& path, const CellCacheData& data);

/// Deserializes a cache from the whole of its bytes. The base must be
/// whole, with distinct errors for the failure modes: not-a-cache /
/// truncated file and checksum mismatch are `Corruption` (saying which),
/// an unknown format version is `NotSupported`. Segments are kept up to
/// the first one that is torn, fails its checksum or repeats a key; that
/// one and everything after it are dropped and counted in
/// `dropped_bytes`, never partly trusted. A mismatched *fingerprint*
/// schema parses fine and is surfaced in the result — whether stale-schema
/// entries are usable is the caller's policy call (`CellResultCache::Open`
/// drops them; `map_cat --cache-info` prints them). The one decoder;
/// `ReadCellCacheFile` prefixes its errors with the path.
Result<CellCacheData> ParseCellCache(std::string_view bytes);
Result<CellCacheData> ReadCellCacheFile(const std::string& path);

/// Fingerprint of everything about the simulated machine that a measured
/// value depends on: the data layout (domain, data pages), the device and
/// CPU cost parameters, the pool capacity, and the memory budgets.
/// Stable across runs and machines (pure FNV-1a over a canonical string —
/// no wall clock, no pointers, no hash salts).
uint64_t EnvironmentFingerprint(const RunContext& ctx, int64_t domain);

/// Keys the cells of one (environment, study, warmup spec, plan) series.
/// The canonical key string is
///
///   cell|s<schema>|env=<hex>|study=<study>|warmup=<spec>|plan=<label>
///   |x=<hex bits>|y=<hex bits>
///
/// hashed with FNV-1a 64 as a stream, never built: the constructor hashes
/// the prefix once and `Key` continues from it with the point's tail, so a
/// sweep pays a few dozen bytes of hashing per cell and allocates nothing.
class CellKeyer {
 public:
  CellKeyer(uint64_t env_fingerprint, std::string_view study,
            std::string_view warmup_spec, std::string_view plan_label);

  /// The key of the cell at axis values (x, y).
  uint64_t Key(double x, double y) const;

 private:
  uint64_t prefix_hash_ = 0;
};

/// Fingerprint of one cell measurement: the environment, the study, the
/// warmup spec in effect for the sweep, the plan label, and the point's
/// axis *values* (IEEE-754 bit patterns — values, not grid indices, so a
/// tile slice or a subsampled refinement lattice of the same grid hits
/// the same keys), all under `kCellCacheFingerprintSchemaVersion`.
/// Equal to `CellKeyer(env, study, spec, label).Key(x, y)`.
uint64_t CellFingerprint(uint64_t env_fingerprint, const char* study,
                         const std::string& warmup_spec,
                         const std::string& plan_label, double x, double y);

/// The persistent, content-addressed store of measured cell results —
/// "never measure a cell twice". Deterministic measurements make reuse
/// bit-safe: a hit returns the exact `Measurement` a fresh run would have
/// produced, so maps built from hits are byte-identical to maps built
/// from measurements (and CI proves it).
///
/// Thread-safe: one hash map and its fresh list under one lock. A sweep
/// touches the cache from its calling thread only — every hit is looked up
/// before the cell loop and every new measurement published after it — so
/// the lock is rarely contended. Entries are never erased or changed once
/// inserted, and hash-map nodes keep their addresses, so `Lookup` copies a
/// found entry and the flush serializes the live entries after the lock is
/// released. The cache never poisons a map — `Open` tolerates a damaged,
/// truncated, wrong-version, or wrong-schema file by warning on stderr and
/// starting empty (the next flush repopulates it).
///
/// A flush costs its new entries, not the whole cache: it appends them to
/// `cells.rmc` as one journal segment, unless the segments would then
/// outgrow the base, in which case it compacts — rewrites the file as one
/// base. Each compaction at least doubles the base, so an entry is
/// rewritten O(1) times amortized and `Open` never reads more than twice
/// the base. Replacing the file replaces the cache: a flush appends only
/// while the file is still the size this cache left it.
class CellResultCache {
 public:
  /// An unattached, in-memory cache (progressive sweeps without a
  /// --cache-dir use one per run).
  CellResultCache() = default;

  CellResultCache(const CellResultCache&) = delete;
  CellResultCache& operator=(const CellResultCache&) = delete;

  /// Attaches this cache to `dir` (created if missing) and loads
  /// `cells.rmc` when a valid one is present. Damage of any kind to the
  /// base — truncation, checksum mismatch, unknown format version, stale
  /// fingerprint schema — is a warning on stderr and an empty cache,
  /// never an error and never a partially trusted one. A damaged journal
  /// tail is a warning too: the base and the segments before it load,
  /// and the next flush compacts. Call once, before sharing the cache
  /// with other threads.
  void Open(const std::string& dir);

  /// True with the stored measurement in `*out` when `fingerprint` is
  /// cached.
  bool Lookup(uint64_t fingerprint, Measurement* out) const;

  /// Lookup without the copy, for planning passes.
  bool Contains(uint64_t fingerprint) const;

  /// Inserts the measurement under `fingerprint` unless one is already
  /// there (first writer wins; deterministic measurements make the copies
  /// identical, so dropping duplicates keeps re-publishing merge results
  /// from dirtying a clean cache). Returns true when the entry is new.
  bool Publish(uint64_t fingerprint, std::string_view study,
               const Measurement& m);

  /// Flushes to the attached directory when entries were added since the
  /// last flush; a no-op for clean or unattached caches. Appends the new
  /// entries as one segment, or compacts: atomic temp+rename of
  /// deterministic bytes — the same bytes `EncodeCellCache` gives for the
  /// same entries. An entry published while the flush runs is either in
  /// the file or left for the next flush; a failed write leaves it for the
  /// next flush too, and a failed append makes that flush compact.
  Status WriteCellCacheFile();

  size_t size() const;
  bool attached() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  /// The stored entry, or nullptr. The pointer stays valid and the entry
  /// unchanged for the cache's lifetime.
  const CellCacheEntry* Find(uint64_t fingerprint) const;

  std::string path_;  ///< "" = in-memory only

  mutable Mutex mu_;
  std::unordered_map<uint64_t, CellCacheEntry> entries_ GUARDED_BY(mu_);
  /// The entries published since the last flush took them.
  std::vector<const CellCacheEntry*> fresh_ GUARDED_BY(mu_);

  /// Serializes flushes (taken before `mu_`), so a slower flush can never
  /// rename an older snapshot over a newer one.
  Mutex flush_mu_;
  /// The file as this cache last read or wrote it: the base's bytes, the
  /// trusted file's bytes, and the checksum they end with. A base of 0
  /// bytes takes no segment, so the next flush compacts: that is the state
  /// with no usable file, after a dropped tail and after a failed append.
  /// A file that is not `file_bytes_` long (a replaced file) is compacted
  /// over too.
  uint64_t base_bytes_ GUARDED_BY(flush_mu_) = 0;
  uint64_t file_bytes_ GUARDED_BY(flush_mu_) = 0;
  uint64_t file_checksum_ GUARDED_BY(flush_mu_) = 0;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_CELL_CACHE_H_
