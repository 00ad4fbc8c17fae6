// The measurement kernel: the paper's steps 2–4 (Figure 2) for one domain.
//
//   resolve  — A/AAAA with CNAME chasing for www.<d> and <d>
//   filter   — IANA special-purpose answers dropped
//   covering — all covering RIB prefixes of every kept address; origin =
//              right-most ASN; AS_SET-terminated entries excluded (RFC 6472)
//   classify — every deduplicated (prefix, origin) pair per RFC 6811
//
// plus the DNSKEY probe of the DNSSEC-adoption comparison. This is the
// only implementation of those steps: the batch sweep runs one kernel per
// pool worker, and the incremental pipeline runs it for init, for every
// tick's dirty rows and for its full-rebuild oracle. The kernel reads the
// RIB and the VRP index directly; it keeps no cache.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/rib.hpp"
#include "core/dataset.hpp"
#include "dns/name.hpp"
#include "dns/resolver.hpp"
#include "dns/server.hpp"
#include "net/ip.hpp"
#include "rpki/origin_validation.hpp"

namespace ripki::obs {
class Registry;
}

namespace ripki::core {

/// Everything the kernel measured for one domain row.
struct RowResult {
  VariantResult www;
  VariantResult apex;
  bool excluded_dns = false;   // neither variant resolved
  bool dnssec_signed = false;  // the apex publishes a DNSKEY
  /// Addresses that survived the special-purpose filter, www first.
  std::vector<net::IpAddress> kept_addresses;
  /// RIB entries on the row's covering prefixes skipped for ending in an
  /// AS_SET (counted once per address and entry, both variants).
  std::uint64_t as_set_excluded = 0;
};

/// Adds (sign = +1) or removes (sign = -1) one row's contribution to the
/// aggregate counters. Every per-row field of PipelineCounters comes from
/// here; `dns_queries` is not per row, and callers add resolver totals.
void count_row(PipelineCounters& counters, const RowResult& row, int sign);

class MeasureKernel {
 public:
  /// Everything is borrowed and must outlive the kernel. The RIB and the
  /// VRP index are only read, so kernels on several threads may share
  /// them. `registry` (stage spans, resolver counters) is optional; null
  /// leaves it inert. The stage spans charge sweep-stage time to the
  /// calling thread's bound SchedTelemetry lane, if any (obs/span.hpp).
  MeasureKernel(const dns::AuthoritativeServer* server, const bgp::Rib* rib,
                const rpki::VrpIndex* vrps, obs::Registry* registry = nullptr);

  /// Measures the domain `apex` (and www.<apex>). The result is kernel
  /// scratch: valid until the next measure() call.
  const RowResult& measure(const dns::DnsName& apex);

  /// Queries this kernel's resolver has sent so far.
  std::uint64_t queries_sent() const { return resolver_.queries_sent(); }

 private:
  void measure_variant(const dns::DnsName& name, VariantResult& out);

  dns::StubResolver resolver_;
  const bgp::Rib* rib_;
  const rpki::VrpIndex* vrps_;
  obs::Registry* registry_;
  RowResult row_;
  // Per-variant scratch, reused so a warm kernel measures without
  // allocating beyond what the row itself keeps.
  dns::Resolution resolution_;
  std::vector<bgp::Rib::CoveringResult> covering_;
};

}  // namespace ripki::core
