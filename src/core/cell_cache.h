#ifndef ROBUSTMAP_CORE_CELL_CACHE_H_
#define ROBUSTMAP_CORE_CELL_CACHE_H_

#include <array>
#include <cstdint>
#include <iosfwd>
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
/// ascending by fingerprint (the deterministic-bytes order `WriteCellCache`
/// enforces).
struct CellCacheData {
  uint32_t fingerprint_schema = kCellCacheFingerprintSchemaVersion;
  std::vector<CellCacheEntry> entries;
};

/// Serializes a cache. The on-disk layout follows the map_io conventions:
///
///   magic "RMCCACHE" | u32 format version | u32 fingerprint schema
///   | u64 entry count
///   | per entry: u64 fingerprint + study string + measurement
///   | u64 FNV-1a checksum over everything before it
///
/// Entries are written in ascending fingerprint order whatever order the
/// caller supplies, so equal contents serialize to equal bytes.
Status WriteCellCache(std::ostream& os, const CellCacheData& data);

/// Writes atomically: to `path` + a ".tmp" suffix, then rename(2), so a
/// crash mid-write never leaves a plausible-looking partial cache behind.
Status WriteCellCacheFile(const std::string& path, const CellCacheData& data);

/// Deserializes a cache, with distinct errors for the failure modes:
/// not-a-cache / truncated file and checksum mismatch are `Corruption`
/// (saying which), an unknown format version is `NotSupported`. A
/// mismatched *fingerprint* schema parses fine and is surfaced in the
/// result — whether stale-schema entries are usable is the caller's
/// policy call (`CellResultCache::Open` drops them; `map_cat
/// --cache-info` prints them).
Result<CellCacheData> ReadCellCache(std::istream& is);
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
/// Thread-safe: sweep workers publish and look up concurrently. Entries
/// live in a fixed number of stripes, each a hash map under its own lock
/// and chosen by the fingerprint's top bits, so workers on different
/// cells rarely meet on a lock. Entries are never erased or changed once
/// inserted, and hash-map nodes keep their addresses, so readers copy a
/// found entry and the flush serializes the live entries after the locks
/// are released. The cache never poisons a map — `Open` tolerates a
/// damaged, truncated, wrong-version, or wrong-schema file by warning on
/// stderr and starting empty (the next flush repopulates it).
class CellResultCache {
 public:
  /// An unattached, in-memory cache (progressive sweeps without a
  /// --cache-dir use one per run).
  CellResultCache() = default;

  CellResultCache(const CellResultCache&) = delete;
  CellResultCache& operator=(const CellResultCache&) = delete;

  /// Attaches this cache to `dir` (created if missing) and loads
  /// `cells.rmc` when a valid one is present. Damage of any kind —
  /// truncation, checksum mismatch, unknown format version, stale
  /// fingerprint schema — is a warning on stderr and an empty cache,
  /// never an error and never a partially trusted one. Call once, before
  /// sharing the cache with sweep workers.
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
  /// last flush; a no-op for clean or unattached caches. Atomic
  /// temp+rename, deterministic bytes — the same bytes `WriteCellCache`
  /// gives for the same entries. An entry published while the flush runs
  /// is either in the file or leaves the cache dirty for the next flush;
  /// a failed write leaves it dirty too.
  Status WriteCellCacheFile();

  size_t size() const;
  bool attached() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  /// A power of two, so the stripe is a shift of the fingerprint.
  static constexpr size_t kStripeBits = 4;
  static constexpr size_t kStripes = size_t{1} << kStripeBits;

  // Cache-line aligned so workers on neighbouring stripes do not share a
  // line through the locks.
  struct alignas(64) Stripe {
    mutable Mutex mu;
    std::unordered_map<uint64_t, CellCacheEntry> entries GUARDED_BY(mu);
    /// Entries were added here since the last flush took this stripe.
    bool dirty GUARDED_BY(mu) = false;
  };

  Stripe& StripeOf(uint64_t fingerprint) {
    return stripes_[fingerprint >> (64 - kStripeBits)];
  }
  const Stripe& StripeOf(uint64_t fingerprint) const {
    return stripes_[fingerprint >> (64 - kStripeBits)];
  }
  /// The stored entry, or nullptr. The pointer stays valid and the entry
  /// unchanged for the cache's lifetime.
  const CellCacheEntry* Find(uint64_t fingerprint) const;

  std::string path_;  ///< "" = in-memory only
  std::array<Stripe, kStripes> stripes_;

  /// Serializes flushes (taken before any stripe lock), so a slower flush
  /// can never rename an older snapshot over a newer one.
  Mutex flush_mu_;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_CELL_CACHE_H_
