// Unit tests for the tolerance-aware golden-CSV comparator.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "check/golden.h"

namespace hsw::check {
namespace {

TEST(SplitCsvRecord, PlainFields) {
  EXPECT_EQ(split_csv_record("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv_record(""), (std::vector<std::string>{""}));
  EXPECT_EQ(split_csv_record("a,,c"),
            (std::vector<std::string>{"a", "", "c"}));
}

TEST(SplitCsvRecord, QuotedFields) {
  EXPECT_EQ(split_csv_record("\"a,b\",c"),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(split_csv_record("\"say \"\"hi\"\"\",2"),
            (std::vector<std::string>{"say \"hi\"", "2"}));
  EXPECT_EQ(split_csv_record("\"12 per socket, 2.5 GHz\",x"),
            (std::vector<std::string>{"12 per socket, 2.5 GHz", "x"}));
}

TEST(CellsMatch, NumericWithinTolerance) {
  const GoldenTolerance tol;  // rel 1e-3, abs 5e-3
  EXPECT_TRUE(cells_match("100.0", "100.0", tol));
  EXPECT_TRUE(cells_match("100.0", "100.05", tol));   // rel 5e-4
  EXPECT_FALSE(cells_match("100.0", "100.2", tol));   // rel 2e-3
  EXPECT_TRUE(cells_match("0.000", "0.004", tol));    // abs guard near zero
  EXPECT_FALSE(cells_match("0.000", "0.010", tol));
}

TEST(CellsMatch, NonNumericIsExact) {
  const GoldenTolerance tol;
  EXPECT_TRUE(cells_match("16 KiB", "16 KiB", tol));
  EXPECT_FALSE(cells_match("16 KiB", "16 kib", tol));
  // Partial numeric prefixes must not be treated as numbers.
  EXPECT_FALSE(cells_match("12 cores", "12.0001 cores", tol));
  EXPECT_FALSE(cells_match("1e3", "1000x", tol));
}

class CompareCsvFiles : public ::testing::Test {
 protected:
  // ctest runs cases in parallel: every case must pass its own names.
  std::string write_file(const char* name, const std::string& content) {
    const std::string path =
        ::testing::TempDir() + "hswsim_golden_" + name + ".csv";
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << content;
    return path;
  }
};

TEST_F(CompareCsvFiles, IdenticalFilesMatch) {
  const std::string a = write_file("a", "h1,h2\n1.0,x\n");
  const std::string b = write_file("b", "h1,h2\n1.0,x\n");
  EXPECT_TRUE(compare_csv_files(a, b, {}).ok);
}

TEST_F(CompareCsvFiles, ToleratesLastDigitDrift) {
  const std::string a = write_file("c", "size,ns\n16384,21.200\n");
  const std::string b = write_file("d", "size,ns\n16384,21.201\n");
  EXPECT_TRUE(compare_csv_files(a, b, {}).ok);
}

TEST_F(CompareCsvFiles, ReportsFirstMismatchWithLocation) {
  const std::string a = write_file("e", "size,ns\n16384,21.2\n32768,23.0\n");
  const std::string b = write_file("f", "size,ns\n16384,21.2\n32768,42.0\n");
  const GoldenDiff diff = compare_csv_files(a, b, {});
  EXPECT_FALSE(diff.ok);
  EXPECT_NE(diff.message.find("42"), std::string::npos) << diff.message;
}

TEST_F(CompareCsvFiles, RowAndColumnCountMismatches) {
  const std::string a = write_file("g", "h\n1\n2\n");
  const std::string b = write_file("h", "h\n1\n");
  EXPECT_FALSE(compare_csv_files(a, b, {}).ok);
  const std::string c = write_file("i", "h,extra\n1,2\n");
  EXPECT_FALSE(compare_csv_files(a, c, {}).ok);
}

TEST_F(CompareCsvFiles, MissingFileIsAnError) {
  const std::string a = write_file("j", "h\n1\n");
  const GoldenDiff diff =
      compare_csv_files(a, ::testing::TempDir() + "does_not_exist.csv", {});
  EXPECT_FALSE(diff.ok);
  EXPECT_FALSE(diff.message.empty());
}

TEST_F(CompareCsvFiles, IgnoresTrailingCarriageReturns) {
  const std::string a = write_file("k", "h1,h2\n1.0,x\n");
  const std::string b = write_file("l", "h1,h2\r\n1.0,x\r\n");
  EXPECT_TRUE(compare_csv_files(a, b, {}).ok);
}

}  // namespace
}  // namespace hsw::check
