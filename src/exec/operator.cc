#include "exec/operator.h"

namespace robustmap {

Result<uint64_t> DrainCount(RunContext* ctx, Operator* op) {
  Status s = op->Open(ctx);
  uint64_t count = 0;
  if (s.ok()) {
    Row row;
    while (op->Next(ctx, &row)) ++count;
    s = op->status();
  }
  op->Close(ctx);
  if (!s.ok()) return s;
  return count;
}

}  // namespace robustmap
