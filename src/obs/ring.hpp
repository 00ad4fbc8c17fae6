// The one bounded event buffer under every overwrite-oldest recorder
// (EventTracer, SchedTelemetry lanes, LogRing, TimeSeriesRing,
// serve::AccessLog): fixed capacity, oldest entry overwritten when full,
// and 1-based sequence numbers that are never recycled, so a reader can
// tell how many entries it missed.
//
// No locking of its own: each owner guards its ring with the mutex that
// already protects its other state. Slots are reserved up front and a
// full ring move-assigns into the oldest slot, so a push allocates
// nothing beyond what moving the value itself costs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ripki::obs {

template <typename T>
class Ring {
 public:
  /// `capacity` is clamped to at least 1.
  explicit Ring(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {
    slots_.reserve(capacity_);
  }

  /// Stores `value`, overwriting the oldest entry when full, and returns
  /// its sequence number (1 for the first push since construction or
  /// clear()).
  std::uint64_t push(T&& value) {
    if (slots_.size() < capacity_) {
      slots_.push_back(std::move(value));
    } else {
      // Pushes fill slots in order, so the oldest entry sits where the
      // next sequence number lands.
      slots_[total_ % capacity_] = std::move(value);
    }
    return ++total_;
  }

  /// Calls `fn(entry)` for every buffered entry, oldest first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t start = total_ > capacity_ ? total_ % capacity_ : 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      fn(slots_[(start + i) % capacity_]);
    }
  }

  /// Buffered entries, oldest first.
  std::vector<T> snapshot() const {
    std::vector<T> out;
    out.reserve(slots_.size());
    for_each([&out](const T& entry) { out.push_back(entry); });
    return out;
  }

  std::size_t size() const { return slots_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Entries pushed since construction or clear().
  std::uint64_t total() const { return total_; }
  /// Entries overwritten by wrap: total() - size().
  std::uint64_t dropped() const { return total_ - slots_.size(); }

  /// Empties the ring and restarts the sequence at 1.
  void clear() {
    slots_.clear();
    total_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<T> slots_;
  std::uint64_t total_ = 0;
};

}  // namespace ripki::obs
