#include "testing/counting_new.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> g_heap_allocations{0};

}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// All three out of line, so no caller's new/delete pair is inlined into one
// frame where GCC would see `free` meet `operator new` memory and warn.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace robustmap::testing {

uint64_t HeapAllocations() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

}  // namespace robustmap::testing
