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
