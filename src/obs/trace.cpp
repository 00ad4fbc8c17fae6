#include "obs/trace.hpp"

#include <sstream>

#include "util/strings.hpp"

namespace ripki::obs {

EventTracer::EventTracer(std::size_t capacity, std::uint32_t sample_every)
    : sample_every_(sample_every == 0 ? 1 : sample_every),
      epoch_(std::chrono::steady_clock::now()),
      ring_(capacity) {}

std::uint64_t EventTracer::now_us(
    std::chrono::steady_clock::time_point at) const {
  if (at < epoch_) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(at - epoch_)
          .count());
}

std::uint32_t EventTracer::track_id_locked() {
  const auto id = std::this_thread::get_id();
  const auto it = track_ids_.find(id);
  if (it != track_ids_.end()) return it->second;
  const auto track = static_cast<std::uint32_t>(track_ids_.size());
  track_ids_.emplace(id, track);
  return track;
}

void EventTracer::push(TraceEvent event) {
  std::lock_guard lock(mutex_);
  event.tid = track_id_locked();
  ring_.push(std::move(event));
}

bool EventTracer::begin(std::string_view name,
                        std::chrono::steady_clock::time_point at) {
  const std::uint64_t seq =
      sequence_.fetch_add(1, std::memory_order_relaxed);
  if (sample_every_ > 1 && seq % sample_every_ != 0) {
    sampled_out_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  TraceEvent event;
  event.ts_us = now_us(at);
  event.phase = TraceEvent::Phase::kBegin;
  event.name = std::string(name);
  push(std::move(event));
  return true;
}

void EventTracer::end(std::string_view name,
                      std::chrono::steady_clock::time_point at) {
  TraceEvent event;
  event.ts_us = now_us(at);
  event.phase = TraceEvent::Phase::kEnd;
  event.name = std::string(name);
  push(std::move(event));
}

std::vector<TraceEvent> EventTracer::snapshot() const {
  std::lock_guard lock(mutex_);
  return ring_.snapshot();
}

std::uint64_t EventTracer::recorded() const {
  std::lock_guard lock(mutex_);
  return ring_.total();
}

std::uint64_t EventTracer::dropped() const {
  std::lock_guard lock(mutex_);
  return ring_.dropped();
}

std::uint64_t EventTracer::sampled_out() const {
  return sampled_out_.load(std::memory_order_relaxed);
}

void EventTracer::clear() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  sampled_out_.store(0, std::memory_order_relaxed);
}

std::vector<TraceEvent> balance_events(const std::vector<TraceEvent>& events) {
  // Ring wrap drops a chronological prefix, so per thread the surviving
  // stream can open with orphan ends and close with unfinished begins.
  // Walk with a per-thread stack: an end pairs with the innermost live
  // begin; anything unpaired is excluded.
  std::vector<bool> keep(events.size(), false);
  std::map<std::uint32_t, std::vector<std::size_t>> open;  // tid -> begin idx
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    auto& stack = open[event.tid];
    if (event.phase == TraceEvent::Phase::kBegin) {
      stack.push_back(i);
      continue;
    }
    if (stack.empty()) continue;  // begin lost to wrap
    keep[stack.back()] = true;
    keep[i] = true;
    stack.pop_back();
  }
  std::vector<TraceEvent> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (keep[i]) out.push_back(events[i]);
  }
  return out;
}

void EventTracer::write_trace_events(std::ostream& os, bool& first,
                                     std::int64_t offset_us) const {
  const auto events = balance_events(snapshot());
  std::uint32_t max_tid = 0;
  for (const auto& event : events) max_tid = std::max(max_tid, event.tid);
  const auto comma = [&] {
    if (!first) os << ',';
    first = false;
  };
  comma();
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"ripki\"}}";
  if (!events.empty()) {
    for (std::uint32_t tid = 0; tid <= max_tid; ++tid) {
      comma();
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
         << ",\"args\":{\"name\":\"track-" << tid << "\"}}";
    }
  }
  for (const auto& event : events) {
    comma();
    os << "{\"name\":\"" << util::json_escape(event.name)
       << "\",\"cat\":\"ripki\",\"ph\":\""
       << (event.phase == TraceEvent::Phase::kBegin ? 'B' : 'E')
       << "\",\"ts\":" << static_cast<std::int64_t>(event.ts_us) + offset_us
       << ",\"pid\":1,\"tid\":" << event.tid << '}';
  }
}

void EventTracer::export_chrome_trace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  write_trace_events(os, first, 0);
  os << "]}\n";
}

std::string EventTracer::chrome_trace_json() const {
  std::ostringstream os;
  export_chrome_trace(os);
  return os.str();
}

}  // namespace ripki::obs
