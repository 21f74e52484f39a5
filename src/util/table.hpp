#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace qolsr::util {

/// Fixed-width ASCII table printer behind the pretty-table result sink.
///
/// Collects rows of cells, then renders with every column padded to the
/// widest cell, e.g.:
///
///   density | qolsr | topo_filter | fnbp
///   ------- | ----- | ----------- | ----
///        10 |  5.81 |        3.12 | 2.40
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; must have exactly as many cells as the header.
  void add_row(std::vector<std::string> cells);

  std::string to_string() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (no trailing-zero stripping; keeps
/// table columns aligned).
std::string format_double(double v, int precision);

}  // namespace qolsr::util
