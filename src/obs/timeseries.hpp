// Metric history: a bounded ring of per-interval registry views so the
// /varz endpoint can serve trend lines (QPS, cache hit rate, per-endpoint
// p99) instead of point-in-time values.
//
// Feed record() one Registry::collect() result per tick (ripkid does so
// once per pipeline interval); the ring stores the delta_snapshots()
// against the previous tick — counters and histogram buckets become
// per-interval increments, gauges stay point-in-time — and evicts the
// oldest interval beyond `capacity`. render_json() emits one series per
// metric, oldest interval first: counters as deltas plus per-second
// rates, gauges as values, histograms as per-interval count/rate and the
// p50/p99 recomputed over each interval's own delta buckets.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/ring.hpp"

namespace ripki::obs {

class TimeSeriesRing {
 public:
  struct Interval {
    std::uint64_t seq = 0;   // 1-based tick number, never recycled
    double seconds = 0;      // wall-clock length of the interval
    std::vector<MetricSnapshot> deltas;
  };

  explicit TimeSeriesRing(std::size_t capacity = 64);

  TimeSeriesRing(const TimeSeriesRing&) = delete;
  TimeSeriesRing& operator=(const TimeSeriesRing&) = delete;

  /// Appends one tick: `collected` is a fresh Registry::collect() result,
  /// `seconds` the wall-clock time since the previous record() (must be
  /// > 0 for rates; clamped to a minimum internally). The first tick
  /// deltas against an empty baseline, i.e. stores absolute values.
  void record(std::vector<MetricSnapshot> collected, double seconds);

  /// Buffered intervals, oldest first.
  std::vector<Interval> history() const;

  std::size_t size() const;
  std::size_t capacity() const { return intervals_.capacity(); }
  std::uint64_t ticks() const;  // record() calls ever made

  /// {"varz": {"ticks":.., "intervals":[{"seq":..,"seconds":..}, ..],
  ///  "series": {"<metric>": {"kind":"counter","deltas":[..],
  ///                          "per_sec":[..]} | {"kind":"gauge",
  ///  "values":[..]} | {"kind":"histogram","counts":[..],"per_sec":[..],
  ///  "p50":[..],"p99":[..]}, ...}}}
  /// Metrics absent in an interval (registered later) pad with zeros so
  /// every series has one entry per interval.
  std::string render_json() const;

 private:
  mutable std::mutex mutex_;
  std::vector<MetricSnapshot> previous_;
  Ring<Interval> intervals_;
};

}  // namespace ripki::obs
