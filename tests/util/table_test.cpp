#include "util/table.hpp"

#include <gtest/gtest.h>

#include <string>

namespace qolsr::util {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"density", "fnbp"});
  t.add_row({"10", "2.5"});
  t.add_row({"35", "2.41"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("density | fnbp"), std::string::npos);
  EXPECT_NE(s.find("------- | ----"), std::string::npos);
  EXPECT_NE(s.find("     35 | 2.41"), std::string::npos);
}

TEST(Table, RowCount) {
  Table t({"h"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"r"});
  EXPECT_EQ(t.rows(), 1u);
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(1.5, 2), "1.50");
  EXPECT_EQ(format_double(10.0, 0), "10");
  EXPECT_EQ(format_double(-0.125, 3), "-0.125");
}

}  // namespace
}  // namespace qolsr::util
