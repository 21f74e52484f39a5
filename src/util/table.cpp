#include "util/table.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace qolsr::util {

std::string format_double(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  assert(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row, char pad) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << ' ' << '|' << ' ';
      const std::size_t padding = widths[c] - row[c].size();
      os << std::string(padding, pad == ' ' ? ' ' : '-') << row[c];
    }
    os << '\n';
  };
  emit_row(header_, ' ');
  std::vector<std::string> rule;
  rule.reserve(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    rule.push_back(std::string(widths[c], '-'));
  emit_row(rule, '-');
  for (const auto& row : rows_) emit_row(row, ' ');
  return os.str();
}

}  // namespace qolsr::util
