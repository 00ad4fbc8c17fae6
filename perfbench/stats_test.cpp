// Tests for the benchmark's statistics and input sampler.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Median, OddEvenAndUnsorted) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // Expected values from Python: statistics.quantiles(data, n=4).
  const Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  const Quartiles b = quartiles({10.0, 1.0, 7.0, 4.0});
  EXPECT_DOUBLE_EQ(b.q1, 1.75);
  EXPECT_DOUBLE_EQ(b.q2, 5.5);
  EXPECT_DOUBLE_EQ(b.q3, 9.25);
  // Exclusive method extrapolates past the ends of a 2-sample input.
  const Quartiles c = quartiles({2.0, 4.0});
  EXPECT_DOUBLE_EQ(c.q1, 1.5);
  EXPECT_DOUBLE_EQ(c.q2, 3.0);
  EXPECT_DOUBLE_EQ(c.q3, 4.5);
  EXPECT_NEAR(a.relative_iqr(), (8.25 - 2.75) / 5.5, 1e-12);
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.90), 90.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 0.99), 5.0);
  EXPECT_DOUBLE_EQ(percentile_of({3.0, 1.0, 2.0, 4.0}, 0.50), 2.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 6.0}), 3.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  // p90 of 100 samples leaves exactly 10 beyond it: supported.
  EXPECT_EQ(samples_beyond(100, 0.90), 10u);
  EXPECT_TRUE(percentile_supported(100, 0.90));
  // 99 samples: rank ceil(89.1) = 90, 9 beyond: not supported.
  EXPECT_EQ(samples_beyond(99, 0.90), 9u);
  EXPECT_FALSE(percentile_supported(99, 0.90));
  // p99 needs 1000 samples.
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
  EXPECT_EQ(samples_beyond(1, 0.99), 0u);
}

TEST(Windows, SplitByTime) {
  const std::vector<double> t = {0.1, 0.5, 1.2, 2.9, 2.0, 0.99};
  const std::vector<double> v = {1, 2, 3, 4, 5, 6};
  const auto w = split_windows(t, v, 1.0);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0], (std::vector<double>{1, 2, 6}));
  EXPECT_EQ(w[1], (std::vector<double>{3}));
  EXPECT_EQ(w[2], (std::vector<double>{4, 5}));
  EXPECT_THROW(split_windows({0.0}, {}, 1.0), std::invalid_argument);
}

TEST(Windows, MedianOfWindowPercentilesSkipsThinWindows) {
  std::vector<double> t, v;
  // Window 0: 1000 samples valued 0..999; window 1: 1000 samples valued
  // 1000..1999; window 2: 999 samples valued 5000.. (too thin for p99).
  for (int i = 0; i < 1000; ++i) { t.push_back(0.5); v.push_back(i); }
  for (int i = 0; i < 1000; ++i) { t.push_back(1.5); v.push_back(1000 + i); }
  for (int i = 0; i < 999; ++i) { t.push_back(2.5); v.push_back(5000 + i); }
  const auto w = split_windows(t, v, 1.0);
  EXPECT_DOUBLE_EQ(median_window_percentile(w, 0.99), (989.0 + 1989.0) / 2.0);
  EXPECT_TRUE(std::isnan(median_window_percentile({{1.0, 2.0}}, 0.99)));
}

TEST(Windows, RatesCountWholeWindowsOnly) {
  // 2.5 s span in 1 s windows: the trailing half window is dropped.
  const auto r = window_rates({0.1, 0.2, 0.9, 1.5, 2.2, 2.4}, 1.0, 2.5);
  EXPECT_EQ(r, (std::vector<double>{3.0, 1.0}));
  const auto half = window_rates({0.1, 0.3, 0.6}, 0.5, 1.0);
  EXPECT_EQ(half, (std::vector<double>{4.0, 2.0}));
}

TEST(KeyStream, DeterministicForSeedAndSeedSensitive) {
  KeyMix mix;
  mix.domains = 50'000;
  mix.ips = 4'000;
  mix.prefixes = 4'000;
  const auto a = key_stream(mix, 20'000, 7);
  const auto b = key_stream(mix, 20'000, 7);
  const auto c = key_stream(mix, 20'000, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(KeyStream, ZipfHeadAndMix) {
  KeyMix mix;
  mix.domains = 50'000;
  mix.ips = 4'000;
  mix.prefixes = 4'000;
  const auto keys = key_stream(mix, 200'000, 1);
  std::size_t domain = 0, ip = 0, prefix = 0, summary = 0, top = 0;
  for (const Key& k : keys) {
    switch (k.endpoint) {
      case Endpoint::kDomain:
        ++domain;
        ASSERT_LT(k.index, mix.domains);
        if (k.index == 0) ++top;
        break;
      case Endpoint::kIp: ++ip; ASSERT_LT(k.index, mix.ips); break;
      case Endpoint::kPrefix: ++prefix; ASSERT_LT(k.index, mix.prefixes); break;
      case Endpoint::kSummary: ++summary; break;
    }
  }
  const double n = static_cast<double>(keys.size());
  EXPECT_NEAR(ip / n, 0.08, 0.01);
  EXPECT_NEAR(prefix / n, 0.05, 0.01);
  EXPECT_NEAR(summary / n, 0.02, 0.005);
  // Zipf(1) over 50k ranks: rank 1 carries 1/H(50000) ~ 8.8% of draws.
  EXPECT_NEAR(static_cast<double>(top) / static_cast<double>(domain), 0.088, 0.01);
}

}  // namespace
}  // namespace perfbench
