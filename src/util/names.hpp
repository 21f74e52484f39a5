#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace qolsr::util {

/// One row of an enum's name table: the value and its CLI/JSON spelling.
/// Each enum a flag parses has exactly one table (`{kA, "a"}, ...`), and
/// parsing, error text and emitted names all read it.
template <typename E>
struct Named {
  E value;
  std::string_view name;
};

/// The spelling of `value`; empty when the table has no row for it.
template <typename E, std::size_t N>
constexpr std::string_view name_of(const Named<E> (&table)[N], E value) {
  for (const Named<E>& row : table)
    if (row.value == value) return row.name;
  return {};
}

/// The value spelled `name`; nullopt when no row has that name.
template <typename E, std::size_t N>
constexpr std::optional<E> value_of(const Named<E> (&table)[N],
                                    std::string_view name) {
  for (const Named<E>& row : table)
    if (row.name == name) return row.value;
  return std::nullopt;
}

/// Every spelling in table order, pipe-separated ("a|b|c"). Takes any
/// table whose rows have a `name`.
template <typename Row, std::size_t N>
std::string names_of(const Row (&table)[N]) {
  std::string out;
  for (const Row& row : table) {
    if (!out.empty()) out += '|';
    out += row.name;
  }
  return out;
}

}  // namespace qolsr::util
