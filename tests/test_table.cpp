/// Unit tests for table rendering and number formatting (lbmem/util).

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "lbmem/util/table.hpp"

namespace lbmem {
namespace {

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"long-name", "23"});
  const std::string out = t.to_string();
  std::istringstream lines(out);
  std::string header, underline, row1, row2;
  std::getline(lines, header);
  std::getline(lines, underline);
  std::getline(lines, row1);
  std::getline(lines, row2);
  // The "value" column starts at the same offset in every row.
  EXPECT_EQ(header.find("value"), row2.find("23"));
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NE(t.to_string().find("only"), std::string::npos);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(2.0, 0), "2");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace lbmem
