// Tests for src/util: thread pool, argparse, table, strings, timer.
// (threading_test.cpp covers run_tasks.)
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "util/argparse.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/threading.hpp"
#include "util/timer.hpp"

namespace scoris::util {
namespace {

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, TasksCanSubmitMoreWork) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] {
    count.fetch_add(1);
    pool.submit([&] { count.fetch_add(1); });
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2);
}

TEST(Args, ParsesFlagValueForms) {
  // Note: a flag greedily consumes the next non-flag token, so positionals
  // must precede flags (or use --flag=value forms).
  const char* argv[] = {"prog",         "input.fa", "--w", "11",
                        "--scale=0.04", "--verbose"};
  const Args args = Args::parse(6, argv);
  EXPECT_EQ(args.get_int("w", 0), 11);
  EXPECT_DOUBLE_EQ(args.get_double("scale", 0.0), 0.04);
  EXPECT_TRUE(args.get_flag("verbose"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.fa");
}

TEST(Args, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  const Args args = Args::parse(1, argv);
  EXPECT_EQ(args.get("name", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_FALSE(args.get_flag("x"));
  EXPECT_TRUE(args.get_flag("y", true));
}

TEST(Args, BooleanFalseSpellings) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=no", "--d=yes"};
  const Args args = Args::parse(5, argv);
  EXPECT_FALSE(args.get_flag("a"));
  EXPECT_FALSE(args.get_flag("b"));
  EXPECT_FALSE(args.get_flag("c"));
  EXPECT_TRUE(args.get_flag("d"));
}

TEST(Args, LastFlagWithoutValueIsTrue) {
  const char* argv[] = {"prog", "--end"};
  const Args args = Args::parse(2, argv);
  EXPECT_TRUE(args.get_flag("end"));
}

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream ss;
  t.print(ss);
  const std::string s = ss.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  std::ostringstream ss;
  t.print(ss);
  EXPECT_NE(ss.str().find("only"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt_int(42), "42");
  EXPECT_EQ(Table::fmt_pct(3.456, 2), "3.46 %");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a\t\tb", '\t');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  a  b\t c \n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Timer, MeasuresNonNegativeTime) {
  WallTimer t;
  double sink = 0;
  for (int i = 0; i < 10000; ++i) sink += i;
  (void)sink;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), 0.0);
  t.reset();
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(Timer, TimedRunsFunction) {
  bool ran = false;
  const double s = timed([&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_GE(s, 0.0);
}

}  // namespace
}  // namespace scoris::util
