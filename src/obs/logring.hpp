// Log flight recorder: a lock-protected ring of the last-N structured log
// records, captured regardless of the logger's verbosity level.
//
// Attached via Logger::attach_ring, it sees every record that reaches
// Logger::log — including severities the stderr sink filters out — so
// when something goes wrong the recent debug context is still available.
// The buffer is dumpable on demand (`render`, or the /logz telemetry
// endpoint) and dumps itself once to a configurable stream on the first
// error-severity record it captures.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <vector>

#include "obs/log.hpp"
#include "obs/ring.hpp"

namespace ripki::obs {

class LogRing {
 public:
  explicit LogRing(std::size_t capacity = 256);

  LogRing(const LogRing&) = delete;
  LogRing& operator=(const LogRing&) = delete;

  void append(const LogRecord& record);

  /// Buffered records, oldest first.
  std::vector<LogRecord> snapshot() const;

  std::size_t size() const;
  std::size_t capacity() const { return records_.capacity(); }
  std::uint64_t total() const;    // records ever appended
  std::uint64_t dropped() const;  // records evicted by the ring bound

  /// Writes every buffered record as a formatted line plus a header with
  /// total/dropped counts.
  void render(std::ostream& os) const;

  /// Target for the one-shot dump triggered by the first kError record
  /// (nullptr disables; the trigger re-arms on clear()). Defaults to off.
  void set_dump_on_error(std::ostream* os);

  void clear();

 private:
  void render_locked(std::ostream& os) const;

  mutable std::mutex mutex_;
  Ring<LogRecord> records_;
  std::ostream* dump_on_error_ = nullptr;
  bool error_dumped_ = false;
};

}  // namespace ripki::obs
