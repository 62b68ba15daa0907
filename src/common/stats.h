// Summary statistics and fixed-bucket histograms for benches and tests.
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

// Histogram with caller-supplied bucket upper bounds (last bucket is
// unbounded). Used to inspect chunk-size and latency distributions.
//
// NaN observations are counted separately (nan_count) instead of being
// bucketed: every comparison against NaN is false, so lower_bound would
// silently file them in the overflow bucket and skew quantiles.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void add(double x) noexcept;

  std::uint64_t bucket_count(std::size_t i) const;
  std::size_t num_buckets() const noexcept { return counts_.size(); }
  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t nan_count() const noexcept { return nan_count_; }
  const std::vector<double>& bounds() const noexcept { return bounds_; }

  // Approximate quantile (linear within buckets). q in [0,1].
  double quantile(double q) const;

  std::string to_string() const;

 private:
  std::vector<double> bounds_;  // ascending
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t nan_count_ = 0;
};

// `count` geometrically spaced bucket bounds from `lo` to `hi` inclusive —
// the natural shape for latency histograms, whose interesting structure
// spans orders of magnitude. Requires 0 < lo < hi and count >= 2.
std::vector<double> log_spaced_bounds(double lo, double hi,
                                      std::size_t count);

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
