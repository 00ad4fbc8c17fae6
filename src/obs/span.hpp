// Trace spans: RAII scoped timers with parent/child nesting.
//
// A span opened while another span is live on the same thread becomes its
// child; the full dotted path ("pipeline.run.stage2_dns.resolve") names a
// duration histogram `ripki.trace.<path>` in the registry, so repeated
// spans (one per domain, say) aggregate into count/total/percentiles
// instead of an unbounded event list.
//
// A span constructed with a null registry is inert: no clock read, no
// allocation, no thread-local traffic — instrumented code paths cost
// nothing when observability is off.
//
// When the registry carries an EventTracer (Registry::set_tracer), spans
// additionally emit begin/end events into its timeline ring; without one,
// the only extra cost is a relaxed pointer load per span.
//
// A span tagged with a SweepStage also charges its wall time to that
// stage on the calling thread's bound SchedTelemetry lane (see
// sched.hpp), from the same two clock reads. The lane is charged even
// with a null registry; a tagged span on a thread with no bound lane and
// no registry is as inert as an untagged one.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace ripki::obs {

class SchedTelemetry;
enum class SweepStage : std::uint8_t;  // defined in obs/sched.hpp

/// Metric-name prefix for span duration histograms.
inline constexpr std::string_view kTracePrefix = "ripki.trace.";

class Span {
 public:
  Span(Registry* registry, std::string_view name);
  /// As above, and charges the scope to `stage` on the calling thread's
  /// bound scheduler lane.
  Span(Registry* registry, std::string_view name, SweepStage stage);
  /// A stage slice with no histogram, trace event or request record.
  explicit Span(SweepStage stage) : Span(nullptr, {}, stage) {}
  ~Span() { stop(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Records the duration now instead of at scope exit; idempotent.
  void stop();

  /// Whether the span records a histogram and has not stopped yet.
  bool active() const { return registry_ != nullptr && !stopped_; }
  std::uint64_t elapsed_ns() const;
  /// Dotted path including every ancestor ("" for an inert span).
  const std::string& path() const { return path_; }

  /// The innermost live span on this thread, or nullptr.
  static const Span* current();

 private:
  Span(Registry* registry, std::string_view name, SchedTelemetry* sched,
       SweepStage stage);

  Registry* registry_ = nullptr;
  EventTracer* tracer_ = nullptr;  // registry's tracer, cached at open
  SchedTelemetry* sched_ = nullptr;  // bound lane's owner, for tagged spans
  Span* parent_ = nullptr;
  std::string path_;
  std::chrono::steady_clock::time_point start_{};
  SweepStage stage_{};
  bool stopped_ = true;
  bool traced_ = false;  // begin event recorded (not sampled out)
};

/// Records `ns` under the current span's path extended with `name` — for
/// durations accumulated manually (e.g. trie-insert time summed across a
/// parse loop) where a scoped timer per item would be too intrusive.
void record_duration_ns(Registry* registry, std::string_view name,
                        std::uint64_t ns);

/// Renders every `ripki.trace.*` histogram as an aligned table — span
/// path, call count, total/mean milliseconds, p50/p90/p99 microseconds —
/// the stage-timing breakdown printed after a pipeline run. The snapshot
/// overload also accepts delta_snapshots() output for per-interval views.
void render_stage_report(const std::vector<MetricSnapshot>& metrics,
                         std::ostream& os);
void render_stage_report(const Registry& registry, std::ostream& os);
std::string stage_report(const Registry& registry);
std::string stage_report(const std::vector<MetricSnapshot>& metrics);

}  // namespace ripki::obs
