#include "dns/resolver.hpp"

#include <algorithm>

#include "obs/span.hpp"

namespace ripki::dns {

void StubResolver::attach(obs::Registry* registry) {
  registry_ = registry;
  if (registry == nullptr) {
    queries_counter_ = nullptr;
    tcp_retries_counter_ = nullptr;
    cname_hops_counter_ = nullptr;
    return;
  }
  queries_counter_ = &registry->counter("ripki.dns.queries");
  tcp_retries_counter_ = &registry->counter("ripki.dns.tcp_retries");
  cname_hops_counter_ = &registry->counter("ripki.dns.cname_hops");
  registry->describe("ripki.dns.queries",
                     "DNS queries sent by the stub resolver (UDP and TCP "
                     "retries both count)");
  registry->describe("ripki.dns.tcp_retries",
                     "Queries retried over TCP after a truncated UDP "
                     "response (RFC 1035 §4.2.1)");
  registry->describe("ripki.dns.cname_hops",
                     "CNAME links followed while chasing resolution chains");
}

util::Result<void> StubResolver::exchange(const DnsName& name, RecordType type,
                                          bool stream) {
  query_.id = next_id_++;
  query_.questions.clear();
  query_.questions.push_back(Question{name, type});
  count_query();
  encode_into(query_, query_wire_);
  if (!stream) {
    // UDP first; a TC response triggers a TCP retry (RFC 1035 §4.2.1).
    server_->handle_datagram(query_wire_, response_wire_);
    if (auto r = decode_into(response_wire_, response_); !r.ok()) return r.error();
    stream = response_.truncated;
    if (stream) {
      ++tcp_retries_;
      if (tcp_retries_counter_ != nullptr) tcp_retries_counter_->inc();
      count_query();
    }
  }
  if (stream) {
    server_->handle_stream(query_wire_, response_wire_);
    if (auto r = decode_into(response_wire_, response_); !r.ok()) return r.error();
  }
  if (response_.id != query_.id) return util::Err("resolver: response id mismatch");
  return {};
}

void StubResolver::count_query() {
  ++queries_sent_;
  if (queries_counter_ != nullptr) queries_counter_->inc();
}

util::Result<Resolution> StubResolver::resolve(const DnsName& name, RecordType type) {
  Resolution result;
  if (auto r = resolve_into(name, type, result); !r.ok()) return r.error();
  return result;
}

util::Result<void> StubResolver::resolve_into(const DnsName& name, RecordType type,
                                              Resolution& out) {
  out.chain.clear();
  out.addresses.clear();
  out.rcode = Rcode::kNoError;
  out.chain.push_back(name);

  for (std::size_t depth = 0; depth <= kMaxChainDepth; ++depth) {
    const DnsName& current = out.chain.back();
    if (auto r = exchange(current, type, false); !r.ok()) return r.error();
    if (!response_.is_response) return util::Err("resolver: answer not a response");
    if (response_.rcode != Rcode::kNoError) {
      out.rcode = response_.rcode;
      return {};
    }

    const DnsName* next_target = nullptr;
    for (const auto& rr : response_.answers) {
      if (rr.name != current) continue;
      if (rr.type == type) {
        out.addresses.push_back(std::get<net::IpAddress>(rr.rdata));
      } else if (rr.type == RecordType::kCname) {
        next_target = &std::get<DnsName>(rr.rdata);
      }
    }
    if (!out.addresses.empty() || next_target == nullptr) return {};

    // Follow the alias; a name repeating in the chain is a loop.
    if (std::find(out.chain.begin(), out.chain.end(), *next_target) !=
        out.chain.end()) {
      return util::Err("resolver: CNAME loop at " + next_target->to_string());
    }
    out.chain.push_back(*next_target);
  }
  return util::Err("resolver: CNAME chain exceeds depth limit");
}

util::Result<const Message*> StubResolver::query(const DnsName& name, RecordType type) {
  if (auto r = exchange(name, type, true); !r.ok()) return r.error();
  return &response_;
}

util::Result<Resolution> StubResolver::resolve_all(const DnsName& name) {
  Resolution merged;
  if (auto r = resolve_all_into(name, merged); !r.ok()) return r.error();
  return merged;
}

util::Result<void> StubResolver::resolve_all_into(const DnsName& name,
                                                  Resolution& out) {
  obs::Span span(registry_, "dns.resolve");
  if (auto r = resolve_into(name, RecordType::kA, out); !r.ok()) return r.error();
  Resolution& v6 = other_family_;
  if (auto r = resolve_into(name, RecordType::kAaaa, v6); !r.ok()) return r.error();
  const Rcode v4_rcode = out.rcode;
  const Rcode v6_rcode = v6.rcode;

  // The longer chain wins (A on a tie) and its addresses come first; the
  // swaps move storage between `out` and the scratch instead of copying.
  if (v6.chain.size() > out.chain.size()) {
    std::swap(out.chain, v6.chain);
    std::swap(out.addresses, v6.addresses);
    out.rcode = v6_rcode;
  }
  out.addresses.insert(out.addresses.end(), v6.addresses.begin(), v6.addresses.end());
  // NXDOMAIN only if both lookups failed to produce data.
  if (v4_rcode == Rcode::kNoError || v6_rcode == Rcode::kNoError) {
    out.rcode = Rcode::kNoError;
    if (out.addresses.empty() && v4_rcode != Rcode::kNoError) out.rcode = v4_rcode;
    if (out.addresses.empty() && v6_rcode != Rcode::kNoError) out.rcode = v6_rcode;
  }
  if (cname_hops_counter_ != nullptr && out.cname_hops() > 0) {
    cname_hops_counter_->inc(out.cname_hops());
  }
  return {};
}

}  // namespace ripki::dns
