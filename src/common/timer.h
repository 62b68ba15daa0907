// Wall-clock timing utilities.
#pragma once

#include <chrono>

namespace shredder {

// Monotonic stopwatch. Started on construction.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(Clock::now()) {}

  double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace shredder
