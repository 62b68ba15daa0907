// Fixed-size thread pool with a parallel_for helper.
//
// Pool threads are created once; parallel_for partitions [0, n) into
// contiguous ranges, which matches the SPMD decomposition used by both the
// host chunker (§5.1) and the GPU-simulator block scheduler.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/queue.h"

namespace shredder {

class ThreadPool {
 public:
  // threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  // Schedules fn; returns a future for completion/exception propagation.
  std::future<void> submit(std::function<void()> fn);

  // Runs fn(begin, end) over a partition of [0, n) into at most size()
  // contiguous ranges: the first on the calling thread, the rest on the
  // pool. Returns once every range has finished; the first exception (the
  // caller's own range first) is then rethrown.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  // Runs fn(i) for each i in [0, n) with one task per index (used when items
  // are coarse, e.g. map tasks). Waits for completion.
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Task {
    std::packaged_task<void()> work;
  };

  void worker_loop();
  // Waits on every future (so by-reference captures stay alive until all
  // tasks finish), then rethrows `first_error` if set, else the first
  // captured exception, if any.
  static void drain(std::vector<std::future<void>>& futures,
                    std::exception_ptr first_error = nullptr);

  BoundedQueue<Task> queue_;
  std::vector<std::thread> workers_;
};

}  // namespace shredder
