// Bounded request observability for the serve path: a structured access
// log (ring of the last N finished requests) and a slow-request recorder
// (the K worst requests per endpoint, each with the span tree its
// obs::RequestContext collected while the handler ran).
//
// Both are diagnostic rings, not durable logs: fixed capacity, oldest
// evicted, readable at any time over HTTP (/accessz as key=value text,
// /slowz as JSON). The slow recorder keeps its admission floor in an
// atomic so the common case — a fast request that cannot possibly enter
// any full ring — costs one relaxed load and no lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/request_context.hpp"
#include "obs/ring.hpp"

namespace ripki::serve {

/// Ring of the last `capacity` finished requests, one structured entry
/// each. Sequence numbers are 1-based lifetime admission counts and never
/// recycle, so a scraper can detect how many entries it missed.
class AccessLog {
 public:
  struct Entry {
    std::uint64_t seq = 0;  // assigned by record()
    std::string request_id;
    std::string client;
    std::string method;
    std::string target;
    std::string endpoint;  // routing tag: "domain", "cached", "rejected", ...
    int status = 0;
    std::uint64_t duration_us = 0;
  };

  explicit AccessLog(std::size_t capacity = 256);

  /// Stamps the next sequence number onto `entry` and admits it, evicting
  /// the oldest entry at capacity.
  void record(Entry entry);

  /// The current window, oldest first.
  std::vector<Entry> entries() const;
  /// Lifetime count of recorded requests (>= entries().size()).
  std::uint64_t total() const;
  std::size_t capacity() const { return ring_.capacity(); }

  /// One `key=value` line per entry, oldest first — the /accessz body.
  std::string render_text() const;

 private:
  mutable std::mutex mutex_;
  obs::Ring<Entry> ring_;
};

/// Keeps the `per_endpoint` slowest requests for every endpoint tag, with
/// the span tree captured by the request's obs::RequestContext, so /slowz
/// can answer "what were the worst requests lately and where did their
/// time go" without external tooling.
///
/// Admission fast path: `floor_us()` is the smallest duration that could
/// possibly enter any ring (0 while any known ring still has room).
/// offer() compares against it with one relaxed atomic load before taking
/// the mutex, so at steady state almost every request skips the lock. The
/// floor is computed over *known* endpoints only: the first requests of a
/// brand-new endpoint tag appearing after every existing ring has filled
/// may be skipped until one of them beats the floor. Endpoint tags are a
/// small fixed set assigned by routing, so in practice every ring exists
/// within the first few requests of a run.
class SlowRequestRecorder {
 public:
  struct Entry {
    std::string request_id;
    std::string client;
    std::string method;
    std::string target;
    std::string endpoint;
    int status = 0;
    std::uint64_t duration_us = 0;
    std::vector<obs::RequestContext::SpanRecord> spans;
    std::uint64_t spans_dropped = 0;
  };

  explicit SlowRequestRecorder(std::size_t per_endpoint = 8);

  /// Admits `entry` into its endpoint's ring when it is slower than the
  /// ring's current fastest member (or the ring has room).
  void offer(Entry entry);

  /// The ring for one endpoint, slowest first; empty when unseen.
  std::vector<Entry> worst(std::string_view endpoint) const;
  /// Every endpoint with a ring, sorted.
  std::vector<std::string> endpoints() const;

  std::uint64_t offered() const {
    return offered_.load(std::memory_order_relaxed);
  }
  std::uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t floor_us() const {
    return floor_us_.load(std::memory_order_relaxed);
  }
  std::size_t per_endpoint() const { return per_endpoint_; }

  /// The /slowz body: every endpoint's ring, slowest first, spans inline.
  std::string render_json() const;

 private:
  /// Recomputes floor_us_ from the rings; call with mutex_ held.
  void refresh_floor_locked();

  mutable std::mutex mutex_;
  std::size_t per_endpoint_;
  /// Per-endpoint rings, each sorted by duration descending.
  std::map<std::string, std::vector<Entry>, std::less<>> rings_;
  std::atomic<std::uint64_t> floor_us_{0};
  std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> admitted_{0};
};

}  // namespace ripki::serve
