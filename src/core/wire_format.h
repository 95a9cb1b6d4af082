#ifndef ROBUSTMAP_CORE_WIRE_FORMAT_H_
#define ROBUSTMAP_CORE_WIRE_FORMAT_H_

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
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

// ---- little-endian encoding ----
//
// `Store*` write a fixed-width field at `p` in a buffer already sized for
// it and return the byte after it; compilers fold the shift loop into one
// little-endian store. `Put*` append one field to a growing buffer, whole,
// so the buffer grows once per field rather than once per byte.

inline char* StoreU32(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>(v >> (8 * i));
  return p + 4;
}

inline char* StoreU64(char* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>(v >> (8 * i));
  return p + 8;
}

inline char* StoreDouble(char* p, double v) {
  return StoreU64(p, std::bit_cast<uint64_t>(v));
}

/// The bytes `s` serializes to: its u32 length, then its bytes.
inline size_t StringBytes(const std::string& s) {
  return sizeof(uint32_t) + s.size();
}

inline char* StoreString(char* p, const std::string& s) {
  p = StoreU32(p, static_cast<uint32_t>(s.size()));
  return std::copy(s.begin(), s.end(), p);
}

inline void PutU32(std::string* out, uint32_t v) {
  char chunk[4];
  out->append(chunk, StoreU32(chunk, v));
}

inline void PutU64(std::string* out, uint64_t v) {
  char chunk[8];
  out->append(chunk, StoreU64(chunk, v));
}

inline void PutDouble(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

inline void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// ---- little-endian decoding of bytes already bounds-checked ----

inline uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

inline uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
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

/// Writes `bytes` to `path` by write-then-rename: readers only ever see
/// either no file or a complete one. The temp name carries the buffer's
/// address and the pid, so concurrent writers never clobber each other's
/// in-flight writes. `what` names the artifact in errors ("map tile").
inline Status WriteFileAtomically(const std::string& path,
                                  const std::string& bytes,
                                  const char* what) {
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
      return Status::Internal(std::string(what) + " write failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

/// Appends `bytes` to the existing file at `path`, but only while that
/// file is still exactly `expected_size` bytes long: true when appended,
/// false (nothing written) when its size has moved, i.e. someone else
/// replaced or extended it. A file that cannot be opened, sized, written
/// or closed is `Internal`; after a failed write the file may end in a
/// partial append, which a reader of an appendable format must detect.
inline Result<bool> AppendFileIfSize(const std::string& path,
                                     uint64_t expected_size,
                                     const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal("cannot open " + path + " for appending: " +
                            std::strerror(errno));
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal("cannot size " + path);
  }
  if (static_cast<uint64_t>(st.st_size) != expected_size) {
    ::close(fd);
    return false;
  }
  for (size_t done = 0; done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const std::string why = n < 0 ? std::strerror(errno) : "no progress";
      ::close(fd);
      return Status::Internal("append to " + path + " failed: " + why);
    }
    done += static_cast<size_t>(n);
  }
  if (::close(fd) != 0) {
    return Status::Internal("append to " + path + " failed on close");
  }
  return true;
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

  /// Claims the next `n` bytes: points `*p` at them and moves past them.
  Status Take(size_t n, const char** p) {
    RM_RETURN_IF_ERROR(Need(n));
    *p = data_ + pos_;
    pos_ += n;
    return Status::OK();
  }

  Status GetU32(uint32_t* v) {
    const char* p = nullptr;
    RM_RETURN_IF_ERROR(Take(sizeof(uint32_t), &p));
    *v = LoadU32(p);
    return Status::OK();
  }

  Status GetU64(uint64_t* v) {
    const char* p = nullptr;
    RM_RETURN_IF_ERROR(Take(sizeof(uint64_t), &p));
    *v = LoadU64(p);
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
    const char* p = nullptr;
    RM_RETURN_IF_ERROR(Take(n, &p));
    s->assign(p, n);
    return Status::OK();
  }

  Status Skip(size_t n) {
    const char* p = nullptr;
    return Take(n, &p);
  }

  size_t position() const { return pos_; }
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
/// bytes a freshly measured one would have produced: the seconds, eight
/// u64 counters and the plan label's length (the fixed part), then the
/// label's bytes.
inline constexpr size_t kMeasurementFixedBytes =
    sizeof(double) + 8 * sizeof(uint64_t) + sizeof(uint32_t);

/// The bytes `m` serializes to — the one size both formats presize with.
inline size_t MeasurementBytes(const Measurement& m) {
  return kMeasurementFixedBytes + m.plan_label.size();
}

/// Writes `m` at `p`, which has `MeasurementBytes(m)` bytes of room.
inline char* StoreMeasurement(char* p, const Measurement& m) {
  p = StoreDouble(p, m.seconds);
  p = StoreU64(p, m.output_rows);
  p = StoreU64(p, m.io.sequential_reads);
  p = StoreU64(p, m.io.skip_reads);
  p = StoreU64(p, m.io.random_reads);
  p = StoreU64(p, m.io.writes);
  p = StoreU64(p, m.io.buffer_hits);
  p = StoreU64(p, m.io.bytes_read);
  p = StoreU64(p, m.io.bytes_written);
  return StoreString(p, m.plan_label);
}

inline void PutMeasurement(std::string* out, const Measurement& m) {
  const size_t at = out->size();
  out->resize(at + MeasurementBytes(m));
  StoreMeasurement(out->data() + at, m);
}

/// Reads one measurement with two bounds checks: its fixed part, then its
/// label.
inline Status GetMeasurement(Cursor* c, Measurement* m) {
  const char* p = nullptr;
  RM_RETURN_IF_ERROR(c->Take(kMeasurementFixedBytes, &p));
  const auto next_u64 = [&p] {
    const uint64_t v = LoadU64(p);
    p += sizeof(uint64_t);
    return v;
  };
  m->seconds = std::bit_cast<double>(next_u64());
  m->output_rows = next_u64();
  m->io.sequential_reads = next_u64();
  m->io.skip_reads = next_u64();
  m->io.random_reads = next_u64();
  m->io.writes = next_u64();
  m->io.buffer_hits = next_u64();
  m->io.bytes_read = next_u64();
  m->io.bytes_written = next_u64();
  const uint32_t label_size = LoadU32(p);
  RM_RETURN_IF_ERROR(c->Take(label_size, &p));
  m->plan_label.assign(p, label_size);
  return Status::OK();
}

}  // namespace wire
}  // namespace robustmap

#endif  // ROBUSTMAP_CORE_WIRE_FORMAT_H_
