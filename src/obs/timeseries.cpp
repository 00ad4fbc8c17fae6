#include "obs/timeseries.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace ripki::obs {

namespace {

std::string fmt_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

TimeSeriesRing::TimeSeriesRing(std::size_t capacity) : intervals_(capacity) {}

void TimeSeriesRing::record(std::vector<MetricSnapshot> collected,
                            double seconds) {
  std::lock_guard lock(mutex_);
  Interval interval;
  interval.seq = intervals_.total() + 1;
  interval.seconds = std::max(seconds, 1e-9);
  interval.deltas = delta_snapshots(previous_, collected);
  previous_ = std::move(collected);
  intervals_.push(std::move(interval));
}

std::vector<TimeSeriesRing::Interval> TimeSeriesRing::history() const {
  std::lock_guard lock(mutex_);
  return intervals_.snapshot();
}

std::size_t TimeSeriesRing::size() const {
  std::lock_guard lock(mutex_);
  return intervals_.size();
}

std::uint64_t TimeSeriesRing::ticks() const {
  std::lock_guard lock(mutex_);
  return intervals_.total();
}

std::string TimeSeriesRing::render_json() const {
  const std::vector<Interval> intervals = history();

  // Union of metric names across the window: a metric registered mid-way
  // pads earlier intervals with zeros so every series is rectangular.
  std::map<std::string, MetricSnapshot::Kind> names;
  for (const Interval& interval : intervals) {
    for (const MetricSnapshot& m : interval.deltas) {
      names.emplace(m.name, m.kind);
    }
  }

  std::ostringstream os;
  os << "{\"varz\":{\"ticks\":" << (intervals.empty() ? 0 : intervals.back().seq)
     << ",\"intervals\":[";
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    if (i > 0) os << ',';
    os << "{\"seq\":" << intervals[i].seq << ",\"seconds\":"
       << fmt_number(intervals[i].seconds) << '}';
  }
  os << "],\"series\":{";

  bool first_series = true;
  for (const auto& [name, kind] : names) {
    if (!first_series) os << ',';
    first_series = false;
    os << '"' << name << "\":{";

    // One pass per field keeps the arrays aligned with `intervals`.
    const auto emit_array = [&](const char* label, auto&& value_of) {
      os << '"' << label << "\":[";
      for (std::size_t i = 0; i < intervals.size(); ++i) {
        if (i > 0) os << ',';
        const MetricSnapshot* found = nullptr;
        for (const MetricSnapshot& m : intervals[i].deltas) {
          if (m.name == name) {
            found = &m;
            break;
          }
        }
        os << (found != nullptr ? value_of(*found, intervals[i].seconds)
                                : std::string("0"));
      }
      os << ']';
    };

    switch (kind) {
      case MetricSnapshot::Kind::kCounter:
        os << "\"kind\":\"counter\",";
        emit_array("deltas", [](const MetricSnapshot& m, double) {
          return std::to_string(m.counter_value);
        });
        os << ',';
        emit_array("per_sec", [](const MetricSnapshot& m, double seconds) {
          return fmt_number(static_cast<double>(m.counter_value) / seconds);
        });
        break;
      case MetricSnapshot::Kind::kGauge:
        os << "\"kind\":\"gauge\",";
        emit_array("values", [](const MetricSnapshot& m, double) {
          return std::to_string(m.gauge_value);
        });
        break;
      case MetricSnapshot::Kind::kHistogram:
        os << "\"kind\":\"histogram\",";
        emit_array("counts", [](const MetricSnapshot& m, double) {
          return std::to_string(m.count);
        });
        os << ',';
        emit_array("per_sec", [](const MetricSnapshot& m, double seconds) {
          return fmt_number(static_cast<double>(m.count) / seconds);
        });
        os << ',';
        emit_array("p50", [](const MetricSnapshot& m, double) {
          return fmt_number(m.p50);
        });
        os << ',';
        emit_array("p99", [](const MetricSnapshot& m, double) {
          return fmt_number(m.p99);
        });
        break;
    }
    os << '}';
  }
  os << "}}}";
  return os.str();
}

}  // namespace ripki::obs
