// Summary statistics and a fixed-width table printer for benches and tests.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace shredder {

// Streaming summary (count/mean/min/max/stddev) over doubles.
class Summary {
 public:
  void add(double x) noexcept;

  // A summary carrying only first-moment window data — count, sum,
  // mean = sum/count — plus caller-provided extrema; m2 (hence stddev) is
  // zero. Used by metric snapshot deltas, where a window's second moments
  // are not recoverable from two cumulative snapshots.
  static Summary from_window(std::uint64_t count, double sum, double min,
                             double max) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  // sum/count (0 when empty), the figure a snapshot delta reports too.
  // Welford's running mean_ below drifts from it by a few ULPs and only
  // feeds m2_.
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double stddev() const noexcept;
  double sum() const noexcept { return sum_; }

 private:
  // Welford's online algorithm: mean_ and m2_ (sum of squared deviations)
  // stay numerically stable even when the mean dwarfs the spread, where the
  // naive sum_sq - sum^2/n form cancels catastrophically.
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Table printer: fixed-width columns for figure reproduction output.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers, int col_width = 14);

  void add_row(const std::vector<std::string>& cells);
  std::string to_string() const;
  void print() const;  // to stdout

  static std::string fmt(double v, int precision = 3);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  int col_width_;
};

}  // namespace shredder
