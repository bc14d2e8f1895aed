// Unit tests for the work-stealing pool behind the parallel hash join:
// inline single-thread fallback, value/exception propagation
// through Submit futures, ParallelFor chunking invariants (contiguous,
// ordered, complete), concurrent correctness under many tasks, and
// MM2_THREADS resolution.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

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

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  auto future = pool.Submit([] { return 41 + 1; });
  EXPECT_EQ(future.get(), 42);
  ThreadPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.stolen, 0u);
}

TEST(ThreadPool, SubmitPropagatesValuesAndExceptions) {
  ThreadPool pool(4);
  auto ok = pool.Submit([] { return std::string("done"); });
  auto boom = pool.Submit(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(ok.get(), "done");
  EXPECT_THROW(boom.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllExecute) {
  constexpr int kTasks = 500;
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.Submit([&sum, i] {
      sum.fetch_add(i, std::memory_order_relaxed);
    }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(sum.load(), kTasks * (kTasks - 1) / 2);
  ThreadPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(stats.executed, static_cast<std::uint64_t>(kTasks));
  EXPECT_GE(stats.peak_queue, 1u);
}

// ParallelFor must cover [0, total) with at most size() contiguous,
// disjoint chunks whose indices ascend with the chunk index — the
// property the chase relies on to concatenate partial results in serial
// order.
TEST(ThreadPool, ParallelForChunksAreContiguousOrderedComplete) {
  ThreadPool pool(4);
  for (std::size_t total : {0u, 1u, 3u, 4u, 7u, 100u}) {
    std::mutex mu;
    std::vector<std::array<std::size_t, 3>> chunks;
    std::vector<char> seen(total, 0);
    pool.ParallelFor(total, [&](std::size_t begin, std::size_t end,
                                std::size_t chunk) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.push_back({begin, end, chunk});
      for (std::size_t i = begin; i < end; ++i) seen[i]++;
    });
    for (std::size_t i = 0; i < total; ++i) {
      EXPECT_EQ(seen[i], 1) << "total " << total << " index " << i;
    }
    EXPECT_LE(chunks.size(), pool.size());
    std::sort(chunks.begin(), chunks.end(),
              [](const auto& a, const auto& b) { return a[2] < b[2]; });
    std::size_t expect_begin = 0;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      EXPECT_EQ(chunks[c][2], c);
      EXPECT_EQ(chunks[c][0], expect_begin) << "total " << total;
      EXPECT_LT(chunks[c][0], chunks[c][1]);
      expect_begin = chunks[c][1];
    }
    if (total > 0) {
      EXPECT_EQ(expect_begin, total);
    }
  }
}

TEST(ThreadPool, ParallelForSerialFallback) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.ParallelFor(10, [&](std::size_t begin, std::size_t end,
                           std::size_t chunk) {
    EXPECT_EQ(chunk, 0u);
    for (std::size_t i = begin; i < end; ++i) order.push_back(i);
  });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, StealingObservableUnderImbalance) {
  // Round-robin placement + one slow task per queue makes thieves find
  // work; we only assert the counters are consistent, not a specific
  // steal count (scheduling is nondeterministic).
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(ran.load(), 200);
  ThreadPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.executed, 200u);
  EXPECT_LE(stats.stolen, stats.executed);
}

}  // namespace
}  // namespace mm2::common
