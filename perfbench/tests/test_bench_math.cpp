// Unit tests for the benchmark's own arithmetic (perfbench/src/bench_math.h).
#include <gtest/gtest.h>

#include "bench_math.h"

namespace perfbench {
namespace {

TEST(BenchMath, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(BenchMath, QuantileInterpolatesBetweenRanks) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.9), 46.0);  // pos 3.6
  EXPECT_DOUBLE_EQ(quantile_sorted({7.0}, 0.99), 7.0);
}

TEST(BenchMath, SummaryCountsItsSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<double>(i));
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 1000U);
  EXPECT_DOUBLE_EQ(s.p50, 500.5);
  EXPECT_DOUBLE_EQ(s.p99, 990.01);  // pos 989.01 -> 990 + 0.01
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_EQ(s.beyond_p99, 10U);  // 991..1000: enough to trust the p99

  const Summary small = summarize({5.0, 1.0, 3.0});
  EXPECT_EQ(small.n, 3U);
  EXPECT_DOUBLE_EQ(small.p50, 3.0);
  EXPECT_EQ(small.beyond_p99, 1U);  // too few: the p99 is nearly the max
  EXPECT_EQ(summarize({}).n, 0U);
}

TEST(BenchMath, WindowedMedianTakesTheMedianAcrossWindows) {
  // Three full windows of 100 samples; window 1 holds a stall. A short
  // fourth window is below min_samples and ignored.
  std::vector<double> v;
  std::vector<std::size_t> w;
  for (std::size_t win = 0; win < 3; ++win)
    for (int i = 1; i <= 100; ++i) {
      v.push_back(win == 1 ? 1000.0 : static_cast<double>(i));
      w.push_back(win);
    }
  for (int i = 0; i < 5; ++i) {
    v.push_back(1e6);
    w.push_back(3);
  }
  const WindowedMedian s = median_of_windows(v, w, 50);
  EXPECT_EQ(s.windows, 3U);
  EXPECT_EQ(s.samples, 300U);
  EXPECT_DOUBLE_EQ(s.p50, 50.5);  // median of {50.5, 1000, 50.5}
  EXPECT_EQ(median_of_windows({}, {}, 1).windows, 0U);
}

TEST(BenchMath, TrimmedMeanDropsBothTails) {
  // Ten values, 10% trim: the 0 and the 1000 go, the mean of 1..8 stays.
  EXPECT_DOUBLE_EQ(
      trimmed_mean({1000.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 0.0}, 0.1),
      4.5);
  EXPECT_DOUBLE_EQ(trimmed_mean({2.0, 4.0}, 0.5), 3.0);  // keeps both
  EXPECT_DOUBLE_EQ(trimmed_mean({7.0}, 0.4), 7.0);
  EXPECT_DOUBLE_EQ(trimmed_mean({}, 0.1), 0.0);
}

TEST(BenchMath, RelativeSpeedAveragesSpeedNotTime) {
  // Half the samples at nominal speed, half at half speed: the host ran
  // at 0.75 of the reference on average over the interval.
  EXPECT_DOUBLE_EQ(relative_speed({2.0, 4.0, 2.0, 4.0}, 2.0), 0.75);
  EXPECT_DOUBLE_EQ(relative_speed({1.0, 1.0, 1.0}, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(relative_speed({}, 2.0), 1.0);
}

TEST(BenchMath, CoveredUnionMergesOverlaps) {
  EXPECT_EQ(covered_ns({}), 0);
  EXPECT_EQ(covered_ns({{0, 10}, {5, 15}, {20, 25}}), 20);
  EXPECT_EQ(covered_ns({{0, 10}, {2, 3}}), 10);  // contained
  EXPECT_EQ(covered_ns({{5, 5}, {7, 6}}), 0);    // empty intervals
}

TEST(BenchMath, SelfTimeSubtractsOnlyDirectChildren) {
  // root [0,100) > a [10,40) > a1 [15,25); root > b [50,70).
  std::vector<Span> spans(4);
  spans[0] = {"root", 0, 100, -1, 1};
  spans[1] = {"a", 10, 40, 0, 1};
  spans[2] = {"a1", 15, 25, 1, 1};
  spans[3] = {"b", 50, 70, 0, 1};
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 30 - 20);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 20);
  // Self times of a well-nested tree add up to the root's duration.
  EXPECT_EQ(self[0] + self[1] + self[2] + self[3], 100);
}

TEST(BenchMath, SelfTimeClipsChildrenToTheParent) {
  std::vector<Span> spans(3);
  spans[0] = {"root", 0, 50, -1, 0};
  spans[1] = {"x", 40, 60, 0, 0};  // runs past the parent's end
  spans[2] = {"y", 45, 48, 0, 0};  // overlaps x: counted once
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 40);
}

TEST(BenchMath, TracerNestsAndDisabledRecordsNothing) {
  Tracer t(true);
  {
    Tracer::Scope outer(t, "outer", 7);
    { Tracer::Scope inner(t, "inner", 7); }
    { Tracer::Scope inner(t, "inner", 8); }
  }
  ASSERT_EQ(t.spans().size(), 3U);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, 0);
  EXPECT_EQ(t.spans()[1].request, 7U);
  EXPECT_EQ(t.spans()[2].request, 8U);
  EXPECT_LE(t.spans()[0].start_ns, t.spans()[1].start_ns);
  EXPECT_GE(t.spans()[0].end_ns, t.spans()[2].end_ns);
  const auto& sp = t.spans();
  EXPECT_NEAR(total_s(sp, "inner"),
              static_cast<double>(sp[1].end_ns - sp[1].start_ns +
                                  sp[2].end_ns - sp[2].start_ns) * 1e-9,
              1e-12);

  Tracer off(false);
  { Tracer::Scope s(off, "x", 1); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(BenchMath, FailedShareCountsFailuresAgainstAttempts) {
  Tally t;
  EXPECT_DOUBLE_EQ(t.failed_share(), 0.0);
  t.add(90, 0);
  t.add(10, 5);
  EXPECT_EQ(t.attempted, 100U);
  EXPECT_EQ(t.failed, 5U);
  EXPECT_DOUBLE_EQ(t.failed_share(), 0.05);
}

TEST(BenchMath, SloMissShareCountsEveryUndeliveredResult) {
  SloTally slo;
  slo.due = 10;
  slo.deliver(12.0, 50.0);  // on time
  slo.deliver(50.0, 50.0);  // exactly at the limit: on time
  slo.deliver(50.5, 50.0);  // late: a miss
  // Seven due results never arrived (drops, deadline drops, rejects).
  EXPECT_EQ(slo.on_time, 2U);
  EXPECT_EQ(slo.missed(), 8U);
  EXPECT_DOUBLE_EQ(slo.miss_share(), 0.8);
  EXPECT_DOUBLE_EQ(SloTally{}.miss_share(), 0.0);
}

}  // namespace
}  // namespace perfbench
