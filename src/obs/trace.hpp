// Event tracer: a bounded, sampled ring buffer of span begin/end events
// exportable as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing).
//
// Where span *histograms* (span.hpp) aggregate repeated spans into
// percentiles, the tracer keeps an event-level timeline: which span ran
// when, on which thread, for how long. The buffer is a fixed-capacity
// ring — when it wraps, the oldest events are overwritten (and counted as
// dropped), so a long-running daemon always holds the most recent window
// of activity. Sampling (`sample_every`) decides per span whether both
// its begin and end events are recorded, keeping recorded pairs balanced.
//
// Hooked into obs::Span through Registry::set_tracer: a registry without
// a tracer costs spans one relaxed pointer load; a null registry still
// costs nothing at all.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/ring.hpp"

namespace ripki::obs {

class SchedTelemetry;

struct TraceEvent {
  enum class Phase : std::uint8_t { kBegin, kEnd };

  std::uint64_t ts_us = 0;  // microseconds since the tracer's epoch
  std::uint32_t tid = 0;    // dense per-thread track id (0, 1, ...)
  Phase phase = Phase::kBegin;
  std::string name;         // dotted span path
};

class EventTracer {
 public:
  /// `capacity` bounds the ring in events (a begin/end pair is two);
  /// `sample_every` records one of every N spans (1 = all).
  explicit EventTracer(std::size_t capacity = 1 << 16,
                       std::uint32_t sample_every = 1);

  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  /// Records a begin event unless the span is sampled out. Returns whether
  /// it was recorded — the caller must emit the matching end() exactly
  /// when this returned true.
  bool begin(std::string_view name, std::chrono::steady_clock::time_point at);
  void end(std::string_view name, std::chrono::steady_clock::time_point at);

  /// Buffered events, oldest first (chronological).
  std::vector<TraceEvent> snapshot() const;

  std::uint64_t recorded() const;     // events currently buffered or wrapped
  std::uint64_t dropped() const;      // events overwritten by ring wrap
  std::uint64_t sampled_out() const;  // spans skipped by sampling
  std::uint32_t sample_every() const { return sample_every_; }
  std::size_t capacity() const { return ring_.capacity(); }
  /// The tracer's time zero (construction), for aligning its timestamps
  /// with other steady_clock-based sources (e.g. SchedTelemetry).
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  /// Empties the ring and resets drop/sample counters (thread ids and the
  /// time epoch persist, so ts stays monotonic across clears).
  void clear();

  /// Chrome trace-event JSON ({"traceEvents": [...]}): one "B"/"E" pair
  /// per recorded span, per-thread track ids, plus process/thread metadata.
  /// Events whose partner was lost to ring wrap (an end whose begin was
  /// overwritten, or a begin still unclosed) are filtered out so the
  /// output always holds balanced pairs.
  void export_chrome_trace(std::ostream& os) const;
  std::string chrome_trace_json() const;

 private:
  /// Writes the process/track metadata and the balanced span events,
  /// each timestamp shifted by `offset_us`, as comma-separated
  /// trace-event objects.
  void write_trace_events(std::ostream& os, bool& first,
                          std::int64_t offset_us) const;
  friend void export_combined_trace(const EventTracer* tracer,
                                    const SchedTelemetry* sched,
                                    std::ostream& os);

  void push(TraceEvent event);
  std::uint32_t track_id_locked();
  std::uint64_t now_us(std::chrono::steady_clock::time_point at) const;

  const std::uint32_t sample_every_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  Ring<TraceEvent> ring_;
  std::map<std::thread::id, std::uint32_t> track_ids_;
  std::atomic<std::uint64_t> sequence_{0};     // sampling decision counter
  std::atomic<std::uint64_t> sampled_out_{0};
};

/// Filters `events` (chronological) down to balanced begin/end pairs: per
/// thread, an end without a live begin and a begin without an end are both
/// removed. Exposed for the well-formedness tests.
std::vector<TraceEvent> balance_events(const std::vector<TraceEvent>& events);

}  // namespace ripki::obs
