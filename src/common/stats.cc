#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/check.h"

namespace shredder {

void Summary::add(double x) noexcept {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

Summary Summary::from_window(std::uint64_t count, double sum, double min,
                             double max) noexcept {
  Summary s;
  if (count == 0) return s;
  s.count_ = count;
  s.sum_ = sum;
  s.mean_ = sum / static_cast<double>(count);
  s.min_ = min;
  s.max_ = max;
  return s;
}

double Summary::stddev() const noexcept {
  if (count_ < 2) return 0.0;
  const double var = m2_ / (static_cast<double>(count_) - 1.0);
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) throw std::invalid_argument("Histogram: no buckets");
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bounds must be ascending");
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::add(double x) noexcept {
  // NaN compares false against every bound, so lower_bound would file it in
  // the overflow bucket; count it separately and keep it out of total_ (and
  // thus out of quantiles).
  if (std::isnan(x)) {
    ++nan_count_;
    return;
  }
  // Bucket i holds values in (bounds[i-1], bounds[i]] — bounds are inclusive
  // upper bounds.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  counts_[static_cast<std::size_t>(it - bounds_.begin())]++;
  ++total_;
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  if (i >= counts_.size()) throw std::out_of_range("Histogram::bucket_count");
  return counts_[i];
}

double Histogram::quantile(double q) const {
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q in [0,1]");
  if (total_ == 0) return 0.0;
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      // The overflow bucket has no upper edge; interpolating into an invented
      // one would fabricate mass, so clamp its quantiles to the last bound.
      if (i >= bounds_.size()) return bounds_.back();
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const double frac =
          counts_[i] == 0 ? 0.0 : (target - cum) / static_cast<double>(counts_[i]);
      return lo + frac * (hi - lo);
    }
    cum = next;
  }
  return bounds_.back();
}

std::string Histogram::to_string() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (i < bounds_.size()) {
      out << "<= " << bounds_[i];
    } else {
      out << " > " << bounds_.back();
    }
    out << ": " << counts_[i] << "\n";
  }
  return out.str();
}

std::vector<double> log_spaced_bounds(double lo, double hi,
                                      std::size_t count) {
  if (!(lo > 0.0) || !(hi > lo)) {
    throw std::invalid_argument("log_spaced_bounds: need 0 < lo < hi");
  }
  if (count < 2) {
    throw std::invalid_argument("log_spaced_bounds: need count >= 2");
  }
  std::vector<double> bounds;
  bounds.reserve(count);
  const double step =
      std::log(hi / lo) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(lo * std::exp(step * static_cast<double>(i)));
  }
  bounds.back() = hi;  // exact endpoint despite float rounding
  return bounds;
}

TablePrinter::TablePrinter(std::vector<std::string> headers, int col_width)
    : headers_(std::move(headers)), col_width_(col_width) {
  SHREDDER_CHECK_MSG(!headers_.empty(), "table needs at least one column");
}

void TablePrinter::add_row(const std::vector<std::string>& cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("TablePrinter: row width mismatch");
  }
  rows_.push_back(cells);
}

std::string TablePrinter::fmt(double v, int precision) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TablePrinter::to_string() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& cells) {
    // Columns live on a fixed grid at i * col_width_. A cell wider than its
    // column borrows from the gap but later cells re-align to the grid, so
    // one oversized value cannot shift the rest of the row.
    std::size_t len = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      out << cells[i];
      len += cells[i].size();
      const std::size_t next_col = (i + 1) * static_cast<std::size_t>(col_width_);
      const std::size_t pad = len < next_col ? next_col - len : 1;
      for (std::size_t p = 0; p < pad; ++p) out << ' ';
      len += pad;
    }
    out << '\n';
  };
  emit(headers_);
  std::string rule(headers_.size() * static_cast<std::size_t>(col_width_), '-');
  out << rule << '\n';
  for (const auto& row : rows_) emit(row);
  return out.str();
}

void TablePrinter::print() const { std::fputs(to_string().c_str(), stdout); }

}  // namespace shredder
