// Self-test of the benchmark's own statistics (stats.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats.hpp"

namespace leafbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileRule, PicksHighestPercentileWithTenSamplesBeyond) {
  // 99 samples: even p90 leaves only 9.9 beyond it -> median only.
  TailSummary s = tail_summary(ramp(99));
  EXPECT_EQ(s.n, 99u);
  EXPECT_EQ(s.tail_pct, 0.0);
  EXPECT_EQ(s.median, 50.0);

  s = tail_summary(ramp(100));  // p90 has exactly 10 beyond
  EXPECT_EQ(s.tail_pct, 90.0);
  EXPECT_EQ(s.tail, 90.0);
  EXPECT_EQ(s.beyond, 10u);

  s = tail_summary(ramp(999));  // p99 would leave 9.99
  EXPECT_EQ(s.tail_pct, 90.0);

  s = tail_summary(ramp(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_EQ(s.beyond, 10u);

  s = tail_summary(ramp(9999));
  EXPECT_EQ(s.tail_pct, 99.0);
  s = tail_summary(ramp(10000));
  EXPECT_EQ(s.tail_pct, 99.9);
  EXPECT_EQ(s.tail, 9990.0);
}

TEST(PercentileRule, ThinningKeepsTheRuleOnP99) {
  EXPECT_EQ(thin(ramp(9000), 9000).size(), 9000u);
  const std::vector<double> t = thin(ramp(25000), 9000);  // every 3rd
  EXPECT_EQ(t.size(), 8334u);
  EXPECT_EQ(t[1], 4.0);
  EXPECT_EQ(tail_summary(t).tail_pct, 99.0);
}

TEST(PercentileRule, FailedRequestsCountBeyondAnyLimit) {
  std::vector<double> v = ramp(1000);
  for (int i = 0; i < 11; ++i) v[static_cast<std::size_t>(i)] = kInf;
  const TailSummary s = tail_summary(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_TRUE(std::isinf(s.tail));  // 11 failures > 1% -> p99 is infinite
}

TEST(SelfTime, SubtractsChildrenAndMergesOverlaps) {
  // root [0,10] with children [1,3] and [2,5] (overlapping) and [8,9].
  const std::vector<Span> spans = {
      {"root", 0, 10, -1}, {"a", 1, 3, 0}, {"b", 2, 5, 0}, {"c", 8, 9, 0}};
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
}

TEST(SelfTime, NestedDecoratorSpansAddUpToTheRoot) {
  // run -> explain -> fit (candidate) -> nothing; run -> predict; the
  // explain span's self time excludes the model call nested in it, and the
  // self times of the whole tree sum to the root's duration.
  const std::vector<Span> spans = {
      {"run.LEAF", 0.0, 1.0, -1},
      {"predict.gbdt", 0.1, 0.2, 0},
      {"explain", 0.3, 0.9, 0},
      {"predict.gbdt", 0.35, 0.45, 2},
      {"fit.gbdt", 0.5, 0.8, 2},
  };
  const auto by = self_time_by_name(spans);
  EXPECT_NEAR(by.at("explain"), 0.6 - 0.1 - 0.3, 1e-12);
  EXPECT_NEAR(by.at("predict.gbdt"), 0.2, 1e-12);
  EXPECT_NEAR(by.at("fit.gbdt"), 0.3, 1e-12);
  EXPECT_NEAR(by.at("run.LEAF"), 1.0 - 0.1 - 0.6, 1e-12);
  double sum = 0.0;
  for (const auto& [name, v] : by) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  const std::vector<Span> spans = {{"p", 0, 2, -1}, {"c", 1, 5, 0}};
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 1.0);
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  const auto a = poisson_schedule(42, 500.0, 4.0);
  const auto b = poisson_schedule(42, 500.0, 4.0);
  const auto c = poisson_schedule(43, 500.0, 4.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Mean rate within a few percent of the asked one (2000 expected).
  EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 200.0);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  EXPECT_LT(a.back(), 4.0);
}

TEST(DueTimeLatency, CountsAStalledRequestsWait) {
  // A stall from t=1.0 to t=1.5 delays both requests: one due at 1.1 sent
  // late at 1.5 and answered at 1.502 waited 402 ms, not 2 ms.
  EXPECT_NEAR(due_latency(1.1, 1.502, true), 0.402, 1e-12);
  EXPECT_NEAR(due_latency(1.0, 1.501, true), 0.501, 1e-12);
  EXPECT_TRUE(std::isinf(due_latency(1.0, 1.2, false)));
}

}  // namespace
}  // namespace leafbench
