// Fixed-size worker pool with a blocking ParallelFor. It has two owners:
//
//   - Intra-query: ExecContext owns one instance when the query runs with
//     parallelism > 1, and operators use ParallelFor to fan morsels out over
//     it. Only the query's driver thread (the one pulling Next() through the
//     operator tree) starts parallel regions.
//   - Across queries: SessionManager (server/session_manager.h) owns one
//     for its lifetime and runs a batch's independent executions over it,
//     the batch's coordinating thread taking part. An execution with
//     parallelism > 1 nests its own ExecContext pool inside that region.
//
// Each owner starts regions from one thread at a time, and every region
// blocks until all of its indexes complete, so at most one region is
// active per pool at any time — tasks never observe another region's.
#ifndef FUSIONDB_EXEC_THREAD_POOL_H_
#define FUSIONDB_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/status.h"

namespace fusiondb {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers. 0 is valid: every ParallelFor then runs
  /// entirely on the calling thread (useful for tests and as the degenerate
  /// parallelism=1 configuration).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Pool threads (excluding callers participating in ParallelFor).
  size_t num_threads() const { return threads_.size(); }

  /// Workers a ParallelFor region can use: pool threads + the caller.
  size_t num_workers() const { return threads_.size() + 1; }

  /// Enqueues one task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Runs body(worker, index) for every index in [0, n), handing indexes
  /// out morsel-at-a-time through an atomic cursor. The calling thread
  /// participates as worker 0; pool threads join as workers 1..W-1. Blocks
  /// until every claimed index has finished. `worker` is stable for the
  /// duration of one body invocation and always < num_workers(), so callers
  /// can index per-worker accumulators with it (note: one worker id can
  /// process many indexes, and with fewer busy threads than workers some
  /// worker ids may process none).
  ///
  /// The first non-OK Status returned by any body stops further claims and
  /// becomes the region's result (bodies already running still complete).
  Status ParallelFor(size_t n,
                     const std::function<Status(size_t worker, size_t index)>&
                         body);

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  bool stop_ = false;
};

}  // namespace fusiondb

#endif  // FUSIONDB_EXEC_THREAD_POOL_H_
