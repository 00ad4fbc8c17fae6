#include "core/kernel.hpp"

#include <algorithm>
#include <cstdint>

#include "net/special.hpp"
#include "obs/sched.hpp"
#include "obs/span.hpp"

namespace ripki::core {

void count_row(PipelineCounters& counters, const RowResult& row, int sign) {
  const auto add = [sign](std::uint64_t& field, std::uint64_t value) {
    field = static_cast<std::uint64_t>(static_cast<std::int64_t>(field) +
                                       sign * static_cast<std::int64_t>(value));
  };
  add(counters.domains_total, 1);
  add(counters.domains_excluded_dns, row.excluded_dns ? 1 : 0);
  add(counters.addresses_www, row.www.address_count);
  add(counters.addresses_apex, row.apex.address_count);
  add(counters.special_purpose_excluded,
      static_cast<std::uint64_t>(row.www.special_purpose_excluded) +
          row.apex.special_purpose_excluded);
  add(counters.unrouted_addresses,
      static_cast<std::uint64_t>(row.www.unrouted_addresses) +
          row.apex.unrouted_addresses);
  add(counters.pairs_www, row.www.pairs.size());
  add(counters.pairs_apex, row.apex.pairs.size());
  add(counters.as_set_entries_excluded, row.as_set_excluded);
  add(counters.dnssec_signed_domains, row.dnssec_signed ? 1 : 0);
}

MeasureKernel::MeasureKernel(const dns::AuthoritativeServer* server,
                             const bgp::Rib* rib, const rpki::VrpIndex* vrps,
                             obs::Registry* registry)
    : resolver_(server), rib_(rib), vrps_(vrps), registry_(registry) {
  resolver_.attach(registry);
}

const RowResult& MeasureKernel::measure(const dns::DnsName& apex) {
  row_.kept_addresses.clear();
  row_.as_set_excluded = 0;
  measure_variant(apex.prepended("www"), row_.www);
  measure_variant(apex, row_.apex);
  row_.excluded_dns = !row_.www.resolved && !row_.apex.resolved;

  // DNSSEC adoption probe (future-work comparison): does the zone apex
  // publish a DNSKEY?
  row_.dnssec_signed = false;
  obs::Span probe_stage(obs::SweepStage::kDns);
  if (auto dnskey = resolver_.query(apex, dns::RecordType::kDnskey);
      dnskey.ok()) {
    for (const auto& rr : dnskey.value().answers) {
      if (rr.type == dns::RecordType::kDnskey) {
        row_.dnssec_signed = true;
        break;
      }
    }
  }
  return row_;
}

void MeasureKernel::measure_variant(const dns::DnsName& name,
                                    VariantResult& out) {
  out.reset();

  // Step 2: resolve A/AAAA with CNAME chasing.
  obs::Span dns_span(registry_, "stage2.dns", obs::SweepStage::kDns);
  auto resolution = resolver_.resolve_all(name);
  dns_span.stop();
  if (!resolution.ok()) return;  // treated as unresolvable
  const dns::Resolution& res = resolution.value();
  out.cname_hops =
      static_cast<std::uint8_t>(std::min<std::size_t>(res.cname_hops(), 255));
  if (res.cname_hops() > 0) out.terminal_cname = res.chain.back().to_string();
  if (res.rcode != dns::Rcode::kNoError) return;

  // Filter IANA special-purpose answers; this variant's kept addresses
  // are the tail of row_.kept_addresses from `first` on.
  std::vector<net::IpAddress>& kept = row_.kept_addresses;
  const std::size_t first = kept.size();
  for (const auto& addr : res.addresses) {
    if (net::is_special_purpose(addr)) {
      ++out.special_purpose_excluded;
      continue;
    }
    kept.push_back(addr);
  }
  const std::size_t count = kept.size() - first;
  if (count == 0) return;
  out.resolved = true;
  out.address_count =
      static_cast<std::uint16_t>(std::min<std::size_t>(count, UINT16_MAX));

  // Step 3: all covering prefixes and their origin ASes.
  obs::Span lookup_span(registry_, "stage3.prefix_origin",
                        obs::SweepStage::kCovering);
  for (std::size_t i = first; i < kept.size(); ++i) {
    const auto covering = rib_->covering(kept[i]);
    if (covering.empty()) {
      ++out.unrouted_addresses;
      continue;
    }
    for (const auto& match : covering) {
      for (const auto& entry : *match.entries) {
        if (entry.as_path.contains_as_set()) {
          ++row_.as_set_excluded;
          continue;
        }
        const auto origin = entry.origin();
        if (!origin.has_value()) continue;
        out.pairs.push_back(PrefixAsPair{match.prefix, *origin});
      }
    }
  }
  // A domain with several addresses in one prefix yields the pair once.
  dedupe_pairs(out.pairs);
  lookup_span.stop();

  // Step 4: RFC 6811 origin validation of each unique pair.
  obs::Span validate_span(registry_, "stage4.origin_validation",
                          obs::SweepStage::kValidation);
  for (auto& pair : out.pairs) {
    pair.validity = vrps_->validate(pair.prefix, pair.origin);
  }
}

}  // namespace ripki::core
