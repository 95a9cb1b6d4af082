#ifndef ROBUSTMAP_INDEX_INDEX_H_
#define ROBUSTMAP_INDEX_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "io/run_context.h"
#include "storage/row.h"

// The tree uses C++20 (defaulted operator== in core/parameter_space.h,
// std::bit_cast in core/wire_format.h); under -std=c++17 those fail with a
// confusing cascade of errors far from the cause. Fail fast with a
// readable message instead. (MSVC keeps __cplusplus at 199711L unless
// /Zc:__cplusplus is passed, so check its _MSVC_LANG too.)
#if defined(_MSVC_LANG)
static_assert(_MSVC_LANG >= 202002L,
              "robustmap requires C++20: build with /std:c++20 (defaulted "
              "comparisons, std::bit_cast)");
#else
static_assert(__cplusplus >= 202002L,
              "robustmap requires C++20: build with -std=c++20 (defaulted "
              "comparisons, std::bit_cast)");
#endif

namespace robustmap {

/// One index entry: up to two key columns plus the row id.
/// Entries are ordered lexicographically by (key0, key1, rid).
struct IndexEntry {
  int64_t key0 = 0;
  int64_t key1 = 0;  ///< 0 / ignored for single-column indexes
  Rid rid = kInvalidRid;
};

/// Lexicographic comparison on (key0, key1, rid).
inline bool EntryLess(const IndexEntry& a, const IndexEntry& b) {
  if (a.key0 != b.key0) return a.key0 < b.key0;
  if (a.key1 != b.key1) return a.key1 < b.key1;
  return a.rid < b.rid;
}

/// Forward cursor over index entries in key order.
///
/// Cursors charge leaf-page I/O (through the buffer pool) as they cross leaf
/// boundaries; per-entry CPU is charged by the consuming operator so that it
/// is accounted once regardless of cursor composition.
class IndexCursor {
 public:
  virtual ~IndexCursor() = default;
  virtual bool Valid() const = 0;
  virtual void Next(RunContext* ctx) = 0;
  virtual const IndexEntry& entry() const = 0;
};

/// Abstract ordered secondary index (non-clustered B-tree).
///
/// Implementations: `BTree` (bulk-loaded leaves in memory; used by tests and
/// examples) and `ProceduralIndex` (synthesized leaves over a
/// `ProceduralTable`; used at paper scale). Both charge identical leaf and
/// probe I/O.
class Index {
 public:
  virtual ~Index() = default;

  virtual uint32_t num_key_columns() const = 0;
  /// Ordinals of the base-table columns forming the key, in key order.
  virtual const std::vector<uint32_t>& key_columns() const = 0;
  virtual uint64_t num_entries() const = 0;
  virtual uint32_t entries_per_leaf() const = 0;
  /// Number of levels including the leaf level.
  virtual int height() const = 0;
  /// Number of leaf pages.
  virtual uint64_t num_leaf_pages() const = 0;

  /// Positions a cursor at the first entry with (key0, key1) >= (k0, k1)
  /// lexicographically; k1 is ignored by single-column indexes. Charges a
  /// root-to-leaf probe (internal levels are modeled as cached: CPU only;
  /// the leaf read goes through the buffer pool).
  virtual std::unique_ptr<IndexCursor> Seek(RunContext* ctx, int64_t k0,
                                            int64_t k1) = 0;
};

}  // namespace robustmap

#endif  // ROBUSTMAP_INDEX_INDEX_H_
