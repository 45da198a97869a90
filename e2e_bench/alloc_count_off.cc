#include "alloc_count.h"

namespace e2e {

bool AllocCounting() { return false; }
uint64_t AllocCount() { return 0; }

}  // namespace e2e
