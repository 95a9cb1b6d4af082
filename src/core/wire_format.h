#ifndef ROBUSTMAP_CORE_WIRE_FORMAT_H_
#define ROBUSTMAP_CORE_WIRE_FORMAT_H_

#include <sys/stat.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>

#include "common/status.h"
#include "engine/executor.h"

namespace robustmap {
namespace wire {

/// The byte-level vocabulary shared by every binary artifact the repo
/// writes (map tiles, the cell-result cache): little-endian integers,
/// IEEE-754 bit-pattern doubles, length-prefixed strings, and an FNV-1a 64
/// trailer — fully deterministic, so equal data serializes to equal bytes
/// (the CI byte-for-byte diffs rest on this). Extracted from map_io.cc so
/// a second format cannot drift from the first by re-implementing it.

inline constexpr uint64_t kFnv1a64Offset = 14695981039346656037ull;

/// Continues an FNV-1a 64 hash `h` over `bytes`: a canonical byte string
/// hashed piece by piece — never materialized — gets the same value as the
/// whole string hashed at once.
inline uint64_t Fnv1a64Extend(uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

inline uint64_t Fnv1a64(const char* data, size_t n) {
  return Fnv1a64Extend(kFnv1a64Offset, std::string_view(data, n));
}

// ---- little-endian encoding into a growing buffer ----
//
// Each integer is assembled in a stack chunk and appended whole: compilers
// fold the shift loop into one little-endian store, and the buffer grows
// once per field rather than once per byte.

inline void PutU32(std::string* out, uint32_t v) {
  char chunk[4];
  for (int i = 0; i < 4; ++i) chunk[i] = static_cast<char>(v >> (8 * i));
  out->append(chunk, sizeof(chunk));
}

inline void PutU64(std::string* out, uint64_t v) {
  char chunk[8];
  for (int i = 0; i < 8; ++i) chunk[i] = static_cast<char>(v >> (8 * i));
  out->append(chunk, sizeof(chunk));
}

inline void PutDouble(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

inline void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Reads the whole file at `path` into `*out` with one sized read. A file
/// that cannot be opened is `NotFound` (naming `what`, e.g. "map tile"),
/// so callers keep telling "absent" apart from "damaged". Anything but a
/// regular file (a directory in a tile's place, say) is `Internal`: its
/// "size" would be meaningless.
inline Status ReadFileBytes(const std::string& path, const char* what,
                            std::string* out) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f.is_open()) {
    return Status::NotFound("cannot open " + std::string(what) + " " + path);
  }
  struct stat st = {};
  if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    return Status::Internal(path + " is not a regular file");
  }
  const std::streamoff size = f.tellg();
  if (size < 0) return Status::Internal("cannot size " + path);
  out->resize(static_cast<size_t>(size));
  f.seekg(0);
  if (!f.read(out->data(), size)) {
    return Status::Internal("cannot read " + path);
  }
  return Status::OK();
}

/// Bounds-checked sequential reader over a decoded payload. Every getter
/// fails with `Corruption("truncated <what> ...")` rather than reading
/// past the end, so a file whose declared counts outrun its bytes is
/// reported the same way as one cut short by a crashed writer. `what`
/// names the artifact in error messages ("map tile", "cell cache").
class Cursor {
 public:
  Cursor(const char* data, size_t size, const char* what)
      : data_(data), size_(size), what_(what) {}

  Status GetU32(uint32_t* v) {
    RM_RETURN_IF_ERROR(Need(4));
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return Status::OK();
  }

  Status GetU64(uint64_t* v) {
    RM_RETURN_IF_ERROR(Need(8));
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return Status::OK();
  }

  Status GetDouble(double* v) {
    uint64_t bits = 0;
    RM_RETURN_IF_ERROR(GetU64(&bits));
    *v = std::bit_cast<double>(bits);
    return Status::OK();
  }

  Status GetString(std::string* s) {
    uint32_t n = 0;
    RM_RETURN_IF_ERROR(GetU32(&n));
    RM_RETURN_IF_ERROR(Need(n));
    s->assign(data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  size_t remaining() const { return size_ - pos_; }

 private:
  Status Need(size_t n) {
    if (size_ - pos_ < n) {
      return Status::Corruption("truncated " + std::string(what_) +
                                ": wanted " + std::to_string(n) +
                                " more bytes, have " +
                                std::to_string(size_ - pos_));
    }
    return Status::OK();
  }

  const char* data_;
  size_t size_;
  const char* what_;
  size_t pos_ = 0;
};

/// The serialized form of one measured cell — identical in the tile format
/// and the cell cache, so a cached measurement round-trips to the exact
/// bytes a freshly measured one would have produced.
inline void PutMeasurement(std::string* out, const Measurement& m) {
  PutDouble(out, m.seconds);
  PutU64(out, m.output_rows);
  PutU64(out, m.io.sequential_reads);
  PutU64(out, m.io.skip_reads);
  PutU64(out, m.io.random_reads);
  PutU64(out, m.io.writes);
  PutU64(out, m.io.buffer_hits);
  PutU64(out, m.io.bytes_read);
  PutU64(out, m.io.bytes_written);
  PutString(out, m.plan_label);
}

inline Status GetMeasurement(Cursor* c, Measurement* m) {
  RM_RETURN_IF_ERROR(c->GetDouble(&m->seconds));
  RM_RETURN_IF_ERROR(c->GetU64(&m->output_rows));
  RM_RETURN_IF_ERROR(c->GetU64(&m->io.sequential_reads));
  RM_RETURN_IF_ERROR(c->GetU64(&m->io.skip_reads));
  RM_RETURN_IF_ERROR(c->GetU64(&m->io.random_reads));
  RM_RETURN_IF_ERROR(c->GetU64(&m->io.writes));
  RM_RETURN_IF_ERROR(c->GetU64(&m->io.buffer_hits));
  RM_RETURN_IF_ERROR(c->GetU64(&m->io.bytes_read));
  RM_RETURN_IF_ERROR(c->GetU64(&m->io.bytes_written));
  RM_RETURN_IF_ERROR(c->GetString(&m->plan_label));
  return Status::OK();
}

}  // namespace wire
}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_WIRE_FORMAT_H_
