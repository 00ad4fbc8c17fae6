// Stub resolver with CNAME chasing — the measurement's step-2 client
// ("using Google DNS, we collect all A, AAAA, and CNAME records").
//
// Every lookup goes through wire bytes against an AuthoritativeServer, and
// CNAME chains are followed hop by hop with loop and depth protection.
// The full chain is preserved: the CDN classifier of §4.3 counts the
// number of CNAME indirections per domain.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dns/server.hpp"
#include "obs/metrics.hpp"

namespace ripki::dns {

/// Result of resolving one (name, address family) pair.
struct Resolution {
  /// CNAME chain in traversal order, starting at the queried name
  /// (www.huffingtonpost.com -> ...edgesuite.net -> a495.g.akamai.net).
  std::vector<DnsName> chain;
  std::vector<net::IpAddress> addresses;
  Rcode rcode = Rcode::kNoError;

  /// Number of CNAME indirections (chain hops past the original name).
  std::size_t cname_hops() const { return chain.empty() ? 0 : chain.size() - 1; }
};

class StubResolver {
 public:
  static constexpr std::size_t kMaxChainDepth = 16;

  /// `server` is borrowed; it is the recursive vantage being queried.
  explicit StubResolver(const AuthoritativeServer* server) : server_(server) {}

  /// Attaches a metrics registry (nullptr detaches): query/retry/CNAME
  /// counters go to `ripki.dns.*` and each resolve_all is timed as a
  /// `dns.resolve` trace span. Handles are cached here so the per-query
  /// hot path only touches pre-resolved atomics.
  void attach(obs::Registry* registry);

  /// Resolves A (v4) or AAAA (v6) records for `name`, chasing CNAMEs.
  util::Result<Resolution> resolve(const DnsName& name, RecordType type);
  /// resolve() into `out` (cleared first, capacity reused): a warm
  /// resolver and `out` resolve without allocating.
  util::Result<void> resolve_into(const DnsName& name, RecordType type,
                                  Resolution& out);

  /// Resolves both A and AAAA; merges addresses, keeps the longer chain.
  util::Result<Resolution> resolve_all(const DnsName& name);
  /// resolve_all() into `out` (cleared first, capacity reused) — the
  /// sweep kernel's form.
  util::Result<void> resolve_all_into(const DnsName& name, Resolution& out);

  /// One raw query/response exchange without CNAME chasing — used for
  /// non-address record types (e.g. the DNSKEY probe of the DNSSEC
  /// adoption study). The response is resolver scratch: valid until the
  /// next query through this resolver.
  util::Result<const Message*> query(const DnsName& name, RecordType type);

  std::uint64_t queries_sent() const { return queries_sent_; }
  /// Truncated-UDP responses retried over TCP.
  std::uint64_t tcp_retries() const { return tcp_retries_; }

 private:
  /// One exchange for (name, type) into response_: encode, serve over UDP
  /// (or straight over TCP when `stream`), retry a truncated UDP answer
  /// over TCP, decode, and check the response id.
  util::Result<void> exchange(const DnsName& name, RecordType type, bool stream);
  void count_query();

  const AuthoritativeServer* server_;
  std::uint64_t queries_sent_ = 0;
  std::uint64_t tcp_retries_ = 0;
  std::uint16_t next_id_ = 1;

  /// Per-resolver scratch, reused across every query of a sweep so the
  /// steady-state encode/serve/decode path allocates nothing (each worker
  /// owns its resolver, so no sharing).
  Message query_;
  Message response_;
  util::Bytes query_wire_;
  util::Bytes response_wire_;
  /// The AAAA half of resolve_all_into.
  Resolution other_family_;

  obs::Registry* registry_ = nullptr;
  obs::Counter* queries_counter_ = nullptr;
  obs::Counter* tcp_retries_counter_ = nullptr;
  obs::Counter* cname_hops_counter_ = nullptr;
};

}  // namespace ripki::dns
