// Tests for the harness-side arithmetic: the /proc/stat steal share and
// the outcome record. (stats.py's arithmetic is tested by
// test_stats.py.)
//
//   cmake --build .bench_build/cmake --target e2ebench_test
//   .bench_build/cmake/e2ebench_test

#include <vector>

#include <gtest/gtest.h>

#include "ledger.h"

namespace e2ebench {
namespace {

TEST(ParseCpuLine, SumsFieldsThroughSteal) {
  CpuTimes t;
  // user nice system idle iowait irq softirq steal guest guest_nice
  ASSERT_TRUE(ParseCpuLine("cpu  100 5 50 800 10 0 5 30 7 3", &t));
  EXPECT_EQ(t.total, 1000u);  // guest fields are inside user/nice
  EXPECT_EQ(t.steal, 30u);
}

TEST(ParseCpuLine, ShortLinePadsWithZeros) {
  CpuTimes t;
  ASSERT_TRUE(ParseCpuLine("cpu 1 2 3 4", &t));
  EXPECT_EQ(t.total, 10u);
  EXPECT_EQ(t.steal, 0u);
}

TEST(ParseCpuLine, RejectsPerCpuAndOtherLines) {
  CpuTimes t;
  EXPECT_FALSE(ParseCpuLine("cpu0 1 2 3 4 5 6 7 8", &t));
  EXPECT_FALSE(ParseCpuLine("intr 12345", &t));
  EXPECT_FALSE(ParseCpuLine("", &t));
}

TEST(StealShare, ShareOfTheDelta) {
  // Deltas: 60 user + 20 system + 100 idle + 20 steal = 200 jiffies.
  const CpuTimes before{1000, 30};
  const CpuTimes after{1200, 50};
  EXPECT_DOUBLE_EQ(StealShare(before, after), 0.1);
  EXPECT_DOUBLE_EQ(StealShare(before, before), 0.0);
  EXPECT_DOUBLE_EQ(StealShare(CpuTimes{}, CpuTimes{}), 0.0);
}

TEST(StealShare, ReadsThisHost) {
  const CpuTimes now = ReadCpuTimes();
  EXPECT_LE(now.steal, now.total);
}

TEST(Outcome, WorkingSetIsTakenOnce) {
  Outcome out;
  out.MarkWorkingSet();
  ASSERT_EQ(out.values.count("working_rss_mb"), 1u);
  const double first = out.values["working_rss_mb"];
  EXPECT_GT(first, 0.0);
  std::vector<char> grow(64 << 20, 1);  // raises the peak by 64 MB
  out.MarkWorkingSet();
  EXPECT_EQ(out.values["working_rss_mb"], first);
  EXPECT_EQ(grow[grow.size() / 2], 1);
}

TEST(Outcome, FailedCheckCountsAsFailedOperation) {
  Outcome out;
  out.AddCheck("ok", true, "");
  out.AddCheck("bad", false, "mismatch");
  EXPECT_EQ(out.failed, 1u);
  EXPECT_EQ(out.checks.size(), 2u);
}

}  // namespace
}  // namespace e2ebench
