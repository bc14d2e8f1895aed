// Worker-count resolution for harness headers. The library runs every call
// on its caller's thread and calls nothing here; mm2bench stamps its
// `workers=` header field with ResolveThreadCount(0).
#ifndef MM2_COMMON_THREAD_POOL_H_
#define MM2_COMMON_THREAD_POOL_H_

#include <cstddef>

namespace mm2::common {

// Resolves the effective worker count: `requested` if nonzero, else the
// MM2_THREADS environment variable (when set to a positive integer), else 1.
// The result is clamped to [1, 256].
std::size_t ResolveThreadCount(std::size_t requested);

}  // namespace mm2::common

#endif  // MM2_COMMON_THREAD_POOL_H_
