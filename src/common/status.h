#ifndef ROBUSTMAP_COMMON_STATUS_H_
#define ROBUSTMAP_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace robustmap {

/// RocksDB-style status code returned by fallible operations.
///
/// The library does not throw exceptions across public API boundaries; every
/// operation that can fail returns a `Status` (or a `Result<T>`, see below).
///
/// The class itself is `[[nodiscard]]`: any function returning a `Status`
/// by value inherits the warning, so a silently dropped error is a compile
/// error under `-Werror` (the CI default) everywhere in the tree — not just
/// on the handful of APIs that remembered to annotate themselves. Callers
/// that genuinely cannot act on a failure (best-effort artifact writers)
/// must say so explicitly with a `(void)` cast or a logging helper.
class [[nodiscard]] Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kCorruption,
    kResourceExhausted,
    kOutOfRange,
    kNotSupported,
    kInternal,
  };

  /// Constructs an OK status.
  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(Code::kResourceExhausted, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(Code::kOutOfRange, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(Code::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(Code::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsResourceExhausted() const {
    return code_ == Code::kResourceExhausted;
  }
  bool IsOutOfRange() const { return code_ == Code::kOutOfRange; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }
  bool IsInternal() const { return code_ == Code::kInternal; }

  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "InvalidArgument: bad page id".
  std::string ToString() const;

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

/// Value-or-status result, for operations that produce a value on success.
/// `[[nodiscard]]` for the same reason as `Status`: discarding a `Result`
/// discards the error it may carry.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value: `return 42;`.
  Result(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  /// Implicit construction from an error: `return Status::NotFound(...)`.
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  /// Value access with an explicit crash on error (for tests / examples).
  const T& ValueOrDie() const&;
  T&& ValueOrDie() &&;

 private:
  Status status_;
  std::optional<T> value_;
};

namespace internal {
[[noreturn]] void DieOnBadResult(const Status& status);
}  // namespace internal

template <typename T>
const T& Result<T>::ValueOrDie() const& {
  if (!status_.ok()) internal::DieOnBadResult(status_);
  return *value_;
}

template <typename T>
T&& Result<T>::ValueOrDie() && {
  if (!status_.ok()) internal::DieOnBadResult(status_);
  return *std::move(value_);
}

/// Thread-safe `std::strerror` replacement for building Status messages:
/// `strerror` returns an internal static buffer (clang-tidy
/// concurrency-mt-unsafe, an error in this tree), so errno formatting
/// goes through `strerror_r` here instead.
std::string ErrnoString(int errnum);

/// Propagates a non-OK status to the caller.
#define RM_RETURN_IF_ERROR(expr)               \
  do {                                         \
    ::robustmap::Status _s = (expr);           \
    if (!_s.ok()) return _s;                   \
  } while (0)

}  // namespace robustmap

#endif  // ROBUSTMAP_COMMON_STATUS_H_
