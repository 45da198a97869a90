// Global operator new calls, counted only in the traced binary
// (alloc_count_on.cc); the untraced binary links alloc_count_off.cc and
// keeps the library's allocator untouched.
#ifndef QMAP_E2E_BENCH_ALLOC_COUNT_H_
#define QMAP_E2E_BENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace e2e {

/// True when this binary counts allocations.
bool AllocCounting();

/// operator new calls so far, summed over all threads; 0 when not counting.
uint64_t AllocCount();

}  // namespace e2e

#endif  // QMAP_E2E_BENCH_ALLOC_COUNT_H_
