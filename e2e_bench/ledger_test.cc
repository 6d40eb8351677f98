// Tests for the benchmark's own reporting rules (ledger.h).
//
//   cmake --build .bench_build/e2e_bench --target ledger_test
//   .bench_build/e2e_bench/ledger_test
#include "ledger.h"
#include "speed.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace e2e {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) {
    values.push_back(i);
  }
  return values;
}

TEST(PercentileTest, ReportedOnlyWithTenSamplesBeyond) {
  // p99 of 1000 samples is rank 990: exactly ten samples lie beyond it.
  std::optional<double> p99 = Percentile(Range(1000), 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 990);
  // One sample fewer leaves only nine beyond rank 990.
  EXPECT_FALSE(Percentile(Range(999), 0.99).has_value());
  // p50 of 20 samples is rank 10, with ten beyond; of 19, nine beyond.
  EXPECT_EQ(Percentile(Range(20), 0.50), 10);
  EXPECT_FALSE(Percentile(Range(19), 0.50).has_value());
}

TEST(PercentileTest, OrderIndependentNearestRank) {
  std::vector<double> values = Range(100);
  std::reverse(values.begin(), values.end());
  EXPECT_EQ(Percentile(values, 0.50), 50);
  EXPECT_EQ(Percentile(values, 0.90), 90);
  EXPECT_FALSE(Percentile(values, 0.95).has_value());
}

TEST(PercentileTest, RejectsEmptyAndOutOfRange) {
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
  EXPECT_FALSE(Percentile(Range(100), 0.0).has_value());
  EXPECT_FALSE(Percentile(Range(100), 1.0).has_value());
}

TEST(MetricNameTest, AcceptsTheBenchmarkAlphabet) {
  EXPECT_TRUE(IsValidMetricName("update_us.p99"));
  EXPECT_TRUE(IsValidMetricName("host.generate.clone_us"));
  EXPECT_TRUE(IsValidMetricName("setup_s"));
  EXPECT_TRUE(IsValidMetricName("9-lives"));
  EXPECT_TRUE(IsValidMetricName(std::string(64, 'a')));
}

TEST(MetricNameTest, RejectsEverythingElse) {
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(IsValidMetricName(".hidden"));
  EXPECT_FALSE(IsValidMetricName("_private"));
  EXPECT_FALSE(IsValidMetricName("wall us"));
  EXPECT_FALSE(IsValidMetricName("1/s"));
  EXPECT_FALSE(IsValidMetricName("latency\"ms"));
}

TEST(LedgerTest, ResidualIsMeanMinusBothSides) {
  Ledger ledger = ComputeLedger(1000.0, 600.0, 250.0);
  EXPECT_DOUBLE_EQ(ledger.host_us, 600.0);
  EXPECT_DOUBLE_EQ(ledger.participant_us, 250.0);
  EXPECT_DOUBLE_EQ(ledger.unattributed_us, 150.0);
  EXPECT_DOUBLE_EQ(ledger.unattributed_share, 0.15);
}

TEST(LedgerTest, OverAttributionGoesNegative) {
  Ledger ledger = ComputeLedger(100.0, 80.0, 40.0);
  EXPECT_DOUBLE_EQ(ledger.unattributed_us, -20.0);
  EXPECT_DOUBLE_EQ(ledger.unattributed_share, -0.2);
}

TEST(LedgerTest, ZeroMeanHasNoShare) {
  EXPECT_DOUBLE_EQ(ComputeLedger(0.0, 5.0, 5.0).unattributed_share, 0.0);
}

TEST(SpeedTimelineTest, NoSamplesLeavesTimeUnscaled) {
  SpeedTimeline timeline({});
  EXPECT_DOUBLE_EQ(timeline.Normalize(Interval{100, 350}), 250.0);
  EXPECT_DOUBLE_EQ(timeline.MedianKernelNs(), 0.0);
}

TEST(SpeedTimelineTest, ScalesByTheReferenceOverTheKernelTime) {
  // The kernel took twice its reference time throughout: the machine ran at
  // half speed, so every stretch counts half.
  const int64_t slow = static_cast<int64_t>(2 * kReferenceNs);
  SpeedTimeline timeline({{0, slow}, {1000, slow}, {2000, slow}});
  EXPECT_DOUBLE_EQ(timeline.Normalize(Interval{0, 2000}), 1000.0);
  // Before the first and after the last sample the nearest speed holds.
  EXPECT_DOUBLE_EQ(timeline.Normalize(Interval{-400, 0}), 200.0);
  EXPECT_DOUBLE_EQ(timeline.Normalize(Interval{2000, 2600}), 300.0);
  EXPECT_DOUBLE_EQ(timeline.MedianKernelNs(), static_cast<double>(slow));
}

TEST(SpeedTimelineTest, SpeedFollowsTheMedianOfNearbySamples) {
  // A slow first stretch then a fast one, far enough apart that each gap's
  // neighbourhood sees only its own side; one outlier in the slow side does
  // not move its median.
  const int64_t slow = static_cast<int64_t>(2 * kReferenceNs);
  const int64_t fast = static_cast<int64_t>(kReferenceNs);
  std::vector<KernelSample> samples;
  const int n = 4 * kNeighbours;
  for (int i = 0; i < n; ++i) {
    samples.push_back(KernelSample{i * 1000, i < n / 2 ? slow : fast});
  }
  samples[1].kernel_ns = 100 * slow;
  SpeedTimeline timeline(samples);
  EXPECT_DOUBLE_EQ(timeline.Normalize(Interval{0, 1000}), 500.0);
  EXPECT_DOUBLE_EQ(
      timeline.Normalize(Interval{(n - 2) * 1000, (n - 1) * 1000}), 1000.0);
  // Normalizing is additive over adjacent stretches.
  EXPECT_DOUBLE_EQ(timeline.Normalize(Interval{0, (n - 1) * 1000}),
                   timeline.Normalize(Interval{0, 7000}) +
                       timeline.Normalize(Interval{7000, (n - 1) * 1000}));
}

TEST(SpanRecorderTest, SelfTimeSubtractsDirectChildren) {
  SpanRecorder recorder;
  uint32_t update = recorder.NameId("update");
  uint32_t generate = recorder.NameId("host.generate");
  uint32_t encode = recorder.NameId("host.encode");
  EXPECT_EQ(recorder.NameId("update"), update);
  uint32_t root = recorder.Add(update, kNoParent, 1, 0, 100);
  uint32_t child = recorder.Add(generate, root, 1, 10, 60);
  recorder.Add(encode, child, 1, 20, 30);  // grandchild
  recorder.Add(encode, root, 1, 60, 90);
  std::vector<int64_t> self = recorder.SelfTimesNs();
  EXPECT_EQ(self[0], 100 - 50 - 30);
  EXPECT_EQ(self[1], 50 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 30);
}

TEST(ResultJsonTest, OneLineWithEveryMetric) {
  std::string json = ResultJson(
      true, 1000, 0,
      {Metric{"latency_ms", 1.25, "ms"}, Metric{"setup_s", 0.5, "s"}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace e2e
