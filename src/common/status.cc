#include "common/status.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace robustmap {

namespace {
// strerror_r comes in two flavors: XSI returns int and fills the buffer,
// GNU returns the message pointer directly (which may ignore the buffer).
// Deducing the actual return type accepts whichever libc provides.
template <typename R>
const char* AdaptStrerror(R rc_or_msg, const char* buf) {
  if constexpr (std::is_integral_v<R>) {
    return rc_or_msg == 0 ? buf : "Unknown error";
  } else {
    return rc_or_msg;
  }
}
}  // namespace

std::string ErrnoString(int errnum) {
  char buf[256] = {};
  return AdaptStrerror(strerror_r(errnum, buf, sizeof(buf)), buf);
}

std::string Status::ToString() const {
  const char* name = nullptr;
  switch (code_) {
    case Code::kOk:
      return "OK";
    case Code::kInvalidArgument:
      name = "InvalidArgument";
      break;
    case Code::kNotFound:
      name = "NotFound";
      break;
    case Code::kCorruption:
      name = "Corruption";
      break;
    case Code::kResourceExhausted:
      name = "ResourceExhausted";
      break;
    case Code::kOutOfRange:
      name = "OutOfRange";
      break;
    case Code::kNotSupported:
      name = "NotSupported";
      break;
    case Code::kInternal:
      name = "Internal";
      break;
  }
  std::string out = name;
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

namespace internal {
void DieOnBadResult(const Status& status) {
  std::fprintf(stderr, "Result<T>::ValueOrDie on error: %s\n",
               status.ToString().c_str());
  std::abort();
}
}  // namespace internal

}  // namespace robustmap
