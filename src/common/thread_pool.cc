#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

namespace shredder {

ThreadPool::ThreadPool(std::size_t threads)
    : queue_(1024),
      workers_() {
  std::size_t n = threads == 0 ? std::max(1u, std::thread::hardware_concurrency())
                               : threads;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  queue_.close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::worker_loop() {
  while (auto task = queue_.pop()) {
    task->work();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  Task task{std::packaged_task<void()>(std::move(fn))};
  auto future = task.work.get_future();
  queue_.push(std::move(task));
  return future;
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t parts = std::min(n, size());
  const std::size_t base = n / parts;
  const std::size_t rem = n % parts;
  // Range 0 runs on the caller, so the caller works instead of sleeping in
  // drain() and only parts - 1 pool threads have to wake up.
  const std::size_t first_end = base + (rem > 0 ? 1 : 0);
  std::vector<std::future<void>> futures;
  futures.reserve(parts - 1);
  std::size_t begin = first_end;
  for (std::size_t p = 1; p < parts; ++p) {
    const std::size_t end = begin + base + (p < rem ? 1 : 0);
    futures.push_back(submit([&fn, begin, end] { fn(begin, end); }));
    begin = end;
  }
  std::exception_ptr first_error;
  try {
    fn(0, first_end);
  } catch (...) {
    first_error = std::current_exception();
  }
  drain(futures, first_error);
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  drain(futures);
}

// Tasks capture `fn` by reference, so every future must be waited on before
// the caller's frame can unwind — rethrowing on the first failure would leave
// queued tasks reading a dead stack slot. Wait for all, then surface the
// first error: `first_error` if the caller already has one, else the first
// task's.
void ThreadPool::drain(std::vector<std::future<void>>& futures,
                       std::exception_ptr first_error) {
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace shredder
