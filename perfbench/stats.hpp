// Order statistics and input samplers shared by the benchmark workloads.
//
// Every figure the benchmark reports is a median or a percentile over
// many samples — single-shot timings on a shared 4-vCPU host drift by
// 10–20% — and the tail percentile it reports is the highest one that
// still has at least ten samples beyond it (choosing-metrics §1).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/prng.hpp"

namespace perfbench {

/// Median of `values` (mean of the two middle samples for an even count).
/// Throws on an empty input: a metric with no samples is a harness bug.
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method),
/// so figures printed here match the spread check applied to them.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / q2: the run-to-run spread as a share of the median.
  double relative_iqr() const { return q2 != 0.0 ? (q3 - q1) / q2 : 0.0; }
};

inline Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2) throw std::invalid_argument("quartiles need >= 2 samples");
  std::sort(values.begin(), values.end());
  const long long n = 4;
  const long long size = static_cast<long long>(values.size());
  const long long m = size + 1;
  double cut[3];
  for (long long i = 1; i < n; ++i) {
    long long j = i * m / n;
    j = std::clamp(j, 1LL, size - 1);
    const long long delta = i * m - j * n;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
                  values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return Quartiles{cut[0], cut[1], cut[2]};
}

/// Nearest-rank percentile of an ascending-sorted sample, p in (0, 1].
inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const std::size_t index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Nearest-rank percentile of an unsorted sample (sorts a copy).
inline double percentile_of(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile(values, p);
}

/// Arithmetic mean; 0 for an empty sample.
inline double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Samples strictly beyond the nearest-rank p-th percentile position.
inline std::size_t samples_beyond(std::size_t count, double p) {
  const double rank = std::ceil(p * static_cast<double>(count));
  const std::size_t at = static_cast<std::size_t>(std::max(1.0, rank));
  return at >= count ? 0 : count - at;
}

/// True when the p-th percentile of `count` samples has at least
/// `min_beyond` samples past it — the rule for reporting a tail figure.
inline bool percentile_supported(std::size_t count, double p,
                                 std::size_t min_beyond = 10) {
  return samples_beyond(count, p) >= min_beyond;
}

/// Splits timestamped samples into consecutive windows of `window_s`
/// seconds, starting at time 0. Samples are (time_s, value) pairs with
/// time_s >= 0; each returned window keeps its samples in input order.
/// Trailing empty windows are not emitted.
inline std::vector<std::vector<double>> split_windows(
    const std::vector<double>& times_s, const std::vector<double>& values,
    double window_s) {
  if (times_s.size() != values.size() || window_s <= 0.0)
    throw std::invalid_argument("split_windows: bad input");
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::size_t w =
        static_cast<std::size_t>(std::max(0.0, times_s[i]) / window_s);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(values[i]);
  }
  return windows;
}

/// Median over windows of each window's p-th percentile, skipping windows
/// whose percentile lacks `min_beyond` samples past it. Returns NaN when
/// no window qualifies.
inline double median_window_percentile(
    const std::vector<std::vector<double>>& windows, double p,
    std::size_t min_beyond = 10) {
  std::vector<double> per_window;
  for (std::vector<double> w : windows) {
    if (!percentile_supported(w.size(), p, min_beyond)) continue;
    std::sort(w.begin(), w.end());
    per_window.push_back(percentile(w, p));
  }
  return per_window.empty() ? std::nan("") : median(per_window);
}

/// Events per second in each whole window of `window_s` seconds that ends
/// by `span_s`, from event completion times (s since the phase start).
inline std::vector<double> window_rates(const std::vector<double>& times_s,
                                        double window_s, double span_s) {
  if (window_s <= 0.0) throw std::invalid_argument("window_rates: bad window");
  const std::size_t whole = static_cast<std::size_t>(span_s / window_s);
  std::vector<double> counts(whole, 0.0);
  for (const double t : times_s) {
    const std::size_t w = static_cast<std::size_t>(std::max(0.0, t) / window_s);
    if (w < whole) counts[w] += 1.0;
  }
  for (double& c : counts) c /= window_s;
  return counts;
}

/// Request mix of the serve-zipf workload: which endpoint each request
/// of the stream targets, and the Zipf rank within that endpoint's keys.
enum class Endpoint : std::uint8_t { kDomain, kIp, kPrefix, kSummary };

struct Key {
  Endpoint endpoint = Endpoint::kDomain;
  std::uint32_t index = 0;  // 0-based rank within the endpoint's key list

  bool operator==(const Key&) const = default;
};

struct KeyMix {
  std::size_t domains = 0;
  std::size_t ips = 0;
  std::size_t prefixes = 0;
  double ip_share = 0.08;
  double prefix_share = 0.05;
  double summary_share = 0.02;
  double zipf_s = 1.0;
};

/// Deterministic request stream: a pure function of (mix, count, seed).
/// Domains, addresses and prefixes are each drawn Zipf(s) by rank, so
/// the popular head repeats (cache hits) and the long tail does not.
inline std::vector<Key> key_stream(const KeyMix& mix, std::size_t count,
                                   std::uint64_t seed) {
  if (mix.domains == 0) throw std::invalid_argument("key_stream: no domains");
  ripki::util::Prng prng(seed);
  std::vector<Key> keys;
  keys.reserve(count);
  const auto rank = [&](std::size_t n) {
    return static_cast<std::uint32_t>(prng.zipf(n, mix.zipf_s) - 1);
  };
  for (std::size_t i = 0; i < count; ++i) {
    const double r = prng.uniform01();
    if (r < mix.ip_share && mix.ips > 0) {
      keys.push_back({Endpoint::kIp, rank(mix.ips)});
    } else if (r < mix.ip_share + mix.prefix_share && mix.prefixes > 0) {
      keys.push_back({Endpoint::kPrefix, rank(mix.prefixes)});
    } else if (r < mix.ip_share + mix.prefix_share + mix.summary_share) {
      keys.push_back({Endpoint::kSummary, 0});
    } else {
      keys.push_back({Endpoint::kDomain, rank(mix.domains)});
    }
  }
  return keys;
}

}  // namespace perfbench
