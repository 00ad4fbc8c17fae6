// Authoritative DNS server over a ZoneSource: answers one-question
// queries, adding the CNAME record when the owner name is an alias
// (leaving the chase to the resolver, as authoritative servers that do
// not host the target zone must).
//
// One server instance may be queried concurrently from many threads as
// long as the ZoneSource's lookup is const-thread-safe (the in-memory and
// ecosystem sources are): the handlers are const, the stats counters
// are relaxed atomics, and the wire handlers decode and answer into
// per-thread scratch messages. The parallel sweep shares a single server
// view across all workers.
#pragma once

#include <atomic>

#include "dns/zone.hpp"

namespace ripki::dns {

class AuthoritativeServer {
 public:
  /// Classic DNS-over-UDP payload ceiling (RFC 1035 §4.2.1).
  static constexpr std::size_t kUdpPayloadLimit = 512;

  /// `zones` is borrowed and must outlive the server.
  explicit AuthoritativeServer(const ZoneSource* zones) : zones_(zones) {}

  /// Full wire path: decode query bytes, answer, encode response bytes.
  /// Malformed queries yield a FORMERR response (never a crash).
  /// Equivalent to handle_stream (no size limit).
  util::Bytes handle_bytes(std::span<const std::uint8_t> query_bytes) const;

  /// UDP path: responses larger than kUdpPayloadLimit are truncated — the
  /// answer section is emptied and TC is set, telling the client to retry
  /// over TCP (RFC 1035 §4.2.1 / RFC 2181 §9).
  util::Bytes handle_datagram(std::span<const std::uint8_t> query_bytes) const;

  /// TCP path: never truncates.
  util::Bytes handle_stream(std::span<const std::uint8_t> query_bytes) const;

  /// Scratch-buffer variants: encode the response into `out` (cleared
  /// first, capacity reused). The resolver's per-sweep hot path calls
  /// these with per-worker scratch so steady-state queries allocate
  /// nothing on the wire path.
  void handle_datagram(std::span<const std::uint8_t> query_bytes,
                       util::Bytes& out) const;
  void handle_stream(std::span<const std::uint8_t> query_bytes,
                     util::Bytes& out) const;

  /// Protocol-level handler.
  Message handle(const Message& query) const;
  /// handle() into `response` (reset first, capacity reused); the wire
  /// handlers answer through it into per-thread scratch messages.
  void handle(const Message& query, Message& response) const;

  /// Relaxed atomics: increments race-free under concurrent queries, each
  /// field individually consistent (no cross-field snapshot guarantee).
  struct Stats {
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> nxdomain{0};
    std::atomic<std::uint64_t> formerr{0};
    std::atomic<std::uint64_t> truncated{0};
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Decodes `query_bytes` into `query` and answers into `response`; a
  /// malformed query gets a FORMERR response.
  void answer(std::span<const std::uint8_t> query_bytes, Message& query,
              Message& response) const;

  const ZoneSource* zones_;
  mutable Stats stats_;
};

}  // namespace ripki::dns
