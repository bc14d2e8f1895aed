#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

namespace mm2::common {

std::size_t ResolveThreadCount(std::size_t requested) {
  std::size_t resolved = requested;
  if (resolved == 0) {
    if (const char* env = std::getenv("MM2_THREADS")) {
      char* end = nullptr;
      long parsed = std::strtol(env, &end, 10);
      if (end != env && parsed > 0) {
        resolved = static_cast<std::size_t>(parsed);
      }
    }
  }
  if (resolved == 0) resolved = 1;
  return std::min<std::size_t>(resolved, 256);
}

}  // namespace mm2::common
