// Work-stealing thread pool behind the parallel hash join in
// algebra::Evaluate (sharded build + partitioned probe). Design points:
//
//   * One deque per worker, guarded by a per-worker mutex. Owners push/pop
//     at the back (LIFO, cache-friendly), thieves steal from the front
//     (FIFO, oldest-first). No lock-free cleverness: the tasks this pool
//     runs are chunk-sized (hundreds of probes each), so a mutex per deque
//     is nowhere near the critical path, and mutexes keep the pool
//     trivially ThreadSanitizer-clean.
//   * Submit returns a std::future so callers can propagate values and
//     exceptions from workers; parallel regions are fork/join (ParallelFor)
//     and results are always concatenated in submission order, which is how
//     the join keeps its output row order identical to the serial join.
//   * Construction with size() <= 1 never spawns threads; Submit runs the
//     task inline. This is the graceful single-thread fallback that keeps
//     the serial join the differential oracle.
//
// Thread-count resolution (ResolveThreadCount): an explicit request wins,
// else the MM2_THREADS environment variable, else 1 (serial). The pool
// never silently defaults to hardware_concurrency — parallelism is opt-in.
#ifndef MM2_COMMON_THREAD_POOL_H_
#define MM2_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace mm2::common {

// Resolves the effective worker count: `requested` if nonzero, else the
// MM2_THREADS environment variable (when set to a positive integer), else 1.
// The result is clamped to [1, 256].
std::size_t ResolveThreadCount(std::size_t requested);

// Aggregate counters, readable while the pool runs (relaxed atomics inside;
// Stats() returns a plain-value snapshot).
struct ThreadPoolStats {
  std::uint64_t submitted = 0;   // tasks handed to Submit()
  std::uint64_t executed = 0;    // tasks dequeued and run (counted at start,
                                 // so a completed future implies inclusion)
  std::uint64_t stolen = 0;      // tasks a thief took from another deque
  std::uint64_t peak_queue = 0;  // max pending tasks observed across deques
};

class ThreadPool {
 public:
  // Spawns `threads` workers when threads > 1 (the submitting thread only
  // blocks on futures; all chunks run on pool workers); threads <= 1 spawns
  // none and Submit runs inline.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Logical width of the pool (what the caller asked for, >= 1). Partition
  // work into ~size() chunks.
  std::size_t size() const { return size_; }

  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    if (workers_.empty()) {
      // Single-thread fallback: run inline, still counting the task so
      // telemetry stays comparable across thread counts.
      BumpSubmitted();
      (*task)();
      BumpExecuted();
      return future;
    }
    Enqueue([task] { (*task)(); });
    return future;
  }

  // Runs fn(chunk_begin, chunk_end, chunk_index) over [0, total) split into
  // at most size() contiguous chunks, blocking until every chunk completes.
  // Chunk 0 covers the lowest indices — callers that append chunk-local
  // results in chunk order reproduce the serial iteration order exactly.
  void ParallelFor(
      std::size_t total,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

  ThreadPoolStats Stats() const;

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void Enqueue(std::function<void()> task);
  void WorkerLoop(std::size_t worker_index);
  bool TryRunOne(std::size_t worker_index);
  void BumpSubmitted();
  void BumpExecuted();

  std::size_t size_ = 1;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool shutting_down_ = false;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> peak_queue_{0};
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<std::size_t> next_queue_{0};
};

}  // namespace mm2::common

#endif  // MM2_COMMON_THREAD_POOL_H_
