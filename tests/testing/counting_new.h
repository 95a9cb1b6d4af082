#ifndef ROBUSTMAP_TESTS_TESTING_COUNTING_NEW_H_
#define ROBUSTMAP_TESTS_TESTING_COUNTING_NEW_H_

#include <cstdint>

namespace robustmap::testing {

/// The global `operator new` calls this binary has made so far. Defined in
/// counting_new.cc, which replaces the global `operator new`/`delete` of
/// every binary it is linked into, so a test or micro can pin how many
/// allocations a stretch of work makes.
uint64_t HeapAllocations();

}  // namespace robustmap::testing

#endif  // ROBUSTMAP_TESTS_TESTING_COUNTING_NEW_H_
