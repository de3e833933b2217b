#include "benchutil/table.h"

#include <gtest/gtest.h>

#include "benchutil/measure.h"

namespace gepc {
namespace {

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"a", "long-header"});
  table.AddRow({"xx", "y"});
  const std::string out = table.ToString();
  // Header line, separator, one row.
  EXPECT_NE(out.find("a   long-header"), std::string::npos);
  EXPECT_NE(out.find("xx  y"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTableTest, MultipleRowsKeepOrder) {
  TextTable table({"k", "v"});
  table.AddRow({"first", "1"});
  table.AddRow({"second", "2"});
  const std::string out = table.ToString();
  EXPECT_LT(out.find("first"), out.find("second"));
}

TEST(FormatUtilityTest, PlainSmallScientificLarge) {
  EXPECT_EQ(FormatUtility(12.345), "12.35");
  EXPECT_EQ(FormatUtility(34306.0), "34306");
  EXPECT_EQ(FormatUtility(5.903e7), "5.903e+07");
}

TEST(FormatSecondsTest, PrecisionBands) {
  EXPECT_EQ(FormatSeconds(0.0441), "0.0441");
  EXPECT_EQ(FormatSeconds(1.32), "1.32");
  EXPECT_EQ(FormatSeconds(12383.0), "12383");
}

TEST(FormatMegabytesTest, OneDecimal) {
  EXPECT_EQ(FormatMegabytes(3 * 1024 * 1024 + 950 * 1024), "3.9");
  EXPECT_EQ(FormatMegabytes(0), "0.0");
}

TEST(RunMeasuredTest, MeasuresElapsedTime) {
  const Measurement m = RunMeasured([] {
    volatile double x = 0.0;
    for (int i = 0; i < 2000000; ++i) x = x + 1.0;
  });
  EXPECT_GT(m.seconds, 0.0);
  EXPECT_LT(m.seconds, 10.0);
  EXPECT_GE(m.peak_bytes, 0);
}

TEST(RunMeasuredTest, CapturesOutputByReference) {
  int out = 0;
  RunMeasured([&] { out = 42; });
  EXPECT_EQ(out, 42);
}

}  // namespace
}  // namespace gepc
