#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/cli.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace tanglefl {
namespace {

/// A file path owned by the running test: ctest runs every test as its own
/// process, so a path shared between tests races under `ctest -j`.
std::string test_temp_path(const std::string& extension) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "tanglefl_" + info->test_suite_name() + "." +
         info->name() + extension;
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter table({"a", "long-header"});
  table.add_row({"xxxxxx", "1"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("a       long-header"), std::string::npos);
  EXPECT_NE(text.find("xxxxxx  1"), std::string::npos);
}

TEST(TablePrinter, ShortRowsPadded) {
  TablePrinter table({"a", "b", "c"});
  table.add_row({"1"});
  EXPECT_EQ(table.row_count(), 1u);
  std::ostringstream out;
  table.print(out);  // must not crash
  EXPECT_FALSE(out.str().empty());
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path = test_temp_path(".csv");
  {
    CsvWriter csv(path, {"round", "accuracy"});
    csv.add_row({"1", "0.5"});
    csv.add_row({"2", "0.75"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "round,accuracy");
  std::getline(in, line);
  EXPECT_EQ(line, "1,0.5");
  std::remove(path.c_str());
}

TEST(CsvWriter, EscapesSpecialCharacters) {
  const std::string path = test_temp_path(".csv");
  {
    CsvWriter csv(path, {"name"});
    csv.add_row({"has,comma"});
    csv.add_row({"has\"quote"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  std::getline(in, line);
  EXPECT_EQ(line, "\"has,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "\"has\"\"quote\"");
  std::remove(path.c_str());
}

TEST(CsvWriter, BadPathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), std::runtime_error);
}

TEST(FormatFixed, RendersDigits) {
  EXPECT_EQ(format_fixed(0.5, 3), "0.500");
  EXPECT_EQ(format_fixed(-1.23456, 2), "-1.23");
}

TEST(ArgParser, ParsesSpaceSeparated) {
  const char* argv[] = {"prog", "--rounds", "42"};
  ArgParser args(3, argv);
  EXPECT_EQ(args.get_int("rounds", 1, "h"), 42);
  EXPECT_FALSE(args.should_exit());
}

TEST(ArgParser, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--alpha=0.25"};
  ArgParser args(2, argv);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0, "h"), 0.25);
}

TEST(ArgParser, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  ArgParser args(1, argv);
  EXPECT_EQ(args.get_int("rounds", 7, "h"), 7);
  EXPECT_EQ(args.get_string("out", "x.csv", "h"), "x.csv");
  EXPECT_FALSE(args.get_flag("verbose", "h"));
}

TEST(ArgParser, FlagPresence) {
  const char* argv[] = {"prog", "--verbose"};
  ArgParser args(2, argv);
  EXPECT_TRUE(args.get_flag("verbose", "h"));
}

TEST(ArgParser, UnknownFlagIsError) {
  const char* argv[] = {"prog", "--bogus", "1"};
  ArgParser args(3, argv);
  (void)args.get_int("rounds", 1, "h");
  EXPECT_TRUE(args.should_exit());
}

TEST(ArgParser, MalformedIntIsError) {
  const char* argv[] = {"prog", "--rounds", "abc"};
  ArgParser args(3, argv);
  (void)args.get_int("rounds", 1, "h");
  EXPECT_FALSE(args.error().empty());
}

TEST(ArgParser, HelpRequested) {
  const char* argv[] = {"prog", "--help"};
  ArgParser args(2, argv);
  (void)args.get_int("rounds", 1, "the round count");
  EXPECT_TRUE(args.help_requested());
  EXPECT_NE(args.help_text().find("rounds"), std::string::npos);
  EXPECT_NE(args.help_text().find("the round count"), std::string::npos);
}

TEST(ArgParser, NegativeNumberAsValue) {
  const char* argv[] = {"prog", "--shift=-5"};
  ArgParser args(2, argv);
  EXPECT_EQ(args.get_int("shift", 0, "h"), -5);
}

TEST(Log, LevelFiltering) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  log_info() << "should be suppressed";  // visible check: no crash
  set_log_level(saved);
  SUCCEED();
}

TEST(Stopwatch, MeasuresNonNegativeTime) {
  Stopwatch watch;
  EXPECT_GE(watch.seconds(), 0.0);
  watch.restart();
  EXPECT_GE(watch.seconds(), 0.0);
}

}  // namespace
}  // namespace tanglefl
