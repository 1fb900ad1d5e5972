#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/metrics.h"

namespace nonserial {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(CounterTest, ConcurrentAddsAllLand) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), 40000);
}

TEST(HistogramTest, BasicStatistics) {
  Histogram h;
  h.Record(1);
  h.Record(2);
  h.Record(3);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum(), 6);
  EXPECT_EQ(h.max(), 3);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(HistogramTest, PercentileIsMonotoneAndBounded) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  int64_t p50 = h.ApproxPercentile(0.5);
  int64_t p99 = h.ApproxPercentile(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_GT(p50, 0);
  // Log-bucketed: answers are within a factor of two of the truth.
  EXPECT_LE(p99, 2048);
}

TEST(HistogramTest, ZeroAndLargeValues) {
  Histogram h;
  h.Record(0);
  h.Record(int64_t{1} << 40);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.max(), int64_t{1} << 40);
  EXPECT_EQ(h.ApproxPercentile(1.0), h.max());
  EXPECT_FALSE(h.ToString().empty());
  // A bucket's upper bound can exceed every sample in it.
  Histogram one;
  one.Record(5);
  EXPECT_EQ(one.ApproxPercentile(0.5), 5);
  EXPECT_EQ(one.ApproxPercentile(0.99), 5);
}

TEST(ProtocolMetricsTest, SummaryMentionsActivity) {
  ProtocolMetrics metrics;
  metrics.validations.Add(3);
  metrics.lock_blocks.Add(2);
  metrics.search_nodes.Record(17);
  std::string summary = metrics.Summary();
  EXPECT_NE(summary.find("validation"), std::string::npos);
  EXPECT_NE(summary.find("locks"), std::string::npos);
  metrics.Reset();
  EXPECT_EQ(metrics.validations.value(), 0);
  EXPECT_EQ(metrics.search_nodes.count(), 0);
}

}  // namespace
}  // namespace nonserial
