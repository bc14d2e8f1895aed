// Unit tests for ResolveThreadCount: an explicit request wins over the
// MM2_THREADS environment variable, which wins over the serial default.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace mm2::common {
namespace {

TEST(ResolveThreadCount, ExplicitRequestWins) {
  ::setenv("MM2_THREADS", "7", 1);
  EXPECT_EQ(ResolveThreadCount(3), 3u);
  ::unsetenv("MM2_THREADS");
}

TEST(ResolveThreadCount, EnvFallbackThenSerial) {
  ::unsetenv("MM2_THREADS");
  EXPECT_EQ(ResolveThreadCount(0), 1u);
  ::setenv("MM2_THREADS", "4", 1);
  EXPECT_EQ(ResolveThreadCount(0), 4u);
  ::setenv("MM2_THREADS", "garbage", 1);
  EXPECT_EQ(ResolveThreadCount(0), 1u);
  ::setenv("MM2_THREADS", "-2", 1);
  EXPECT_EQ(ResolveThreadCount(0), 1u);
  ::unsetenv("MM2_THREADS");
}

TEST(ResolveThreadCount, ClampedTo256) {
  EXPECT_EQ(ResolveThreadCount(100000), 256u);
}

}  // namespace
}  // namespace mm2::common
