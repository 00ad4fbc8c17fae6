#include "serve/snapshot.hpp"

#include <cstdio>
#include <set>
#include <span>
#include <utility>

#include "core/reports.hpp"
#include "util/strings.hpp"

namespace ripki::serve {

namespace {

using util::json_escape;

/// Fixed-precision fraction — one formatting for service, tests, and the
/// load-generator oracle, so byte comparison is meaningful.
std::string json_fraction(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", value);
  return buf;
}

void append_pairs_json(std::string& out,
                       std::span<const core::PrefixAsPair> pairs) {
  out += '[';
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"prefix\":\"";
    out += pairs[i].prefix.to_string();
    out += "\",\"origin\":";
    out += std::to_string(pairs[i].origin.value());
    out += ",\"validity\":\"";
    out += rpki::to_string(pairs[i].validity);
    out += "\"}";
  }
  out += ']';
}

template <typename Variant>
void append_variant_json(std::string& out, const char* label,
                         const Variant& variant) {
  out += '"';
  out += label;
  out += "\":{\"resolved\":";
  out += variant.resolved ? "true" : "false";
  out += ",\"addresses\":";
  out += std::to_string(variant.address_count);
  out += ",\"cname_hops\":";
  out += std::to_string(variant.cname_hops);
  out += ",\"coverage\":";
  out += json_fraction(variant.coverage());
  out += ",\"valid\":";
  out += json_fraction(variant.fraction(rpki::OriginValidity::kValid));
  out += ",\"invalid\":";
  out += json_fraction(variant.fraction(rpki::OriginValidity::kInvalid));
  out += ",\"pairs\":";
  append_pairs_json(out, variant.pairs);
  out += '}';
}

/// The /v1/summary body: always rendered in full from the dataset rows —
/// its %.6f fractions are not reconstructible from a previous rendering
/// plus a delta, so both construction paths re-derive it identically.
std::string render_summary_json(const core::Dataset& dataset,
                                std::size_t vrp_count,
                                std::uint64_t generation,
                                std::uint64_t parent_generation) {
  const auto bins = core::reports::figure4_rpki_by_rank(dataset);
  const auto summary = core::reports::figure4_summary(dataset);
  std::string out;
  out += "{\"generation\":";
  out += std::to_string(generation);
  out += ",\"parent_generation\":";
  out += std::to_string(parent_generation);
  out += ",\"domains\":";
  out += std::to_string(dataset.domains.size());
  out += ",\"rank_space\":";
  out += std::to_string(dataset.rank_space);
  out += ",\"vrps\":";
  out += std::to_string(vrp_count);
  out += ",\"mean_coverage\":";
  out += json_fraction(summary.mean_coverage);
  out += ",\"top_100k_coverage\":";
  out += json_fraction(summary.top_100k_coverage);
  out += ",\"mean_invalid\":";
  out += json_fraction(summary.mean_invalid);
  out += ",\"bins\":[";
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"rank_lo\":";
    out += std::to_string(bins[i].rank_lo);
    out += ",\"rank_hi\":";
    out += std::to_string(bins[i].rank_hi);
    out += ",\"domains\":";
    out += std::to_string(bins[i].domains);
    out += ",\"covered\":";
    out += json_fraction(bins[i].covered);
    out += ",\"valid\":";
    out += json_fraction(bins[i].valid);
    out += ",\"invalid\":";
    out += json_fraction(bins[i].invalid);
    out += ",\"not_found\":";
    out += json_fraction(bins[i].not_found);
    out += '}';
  }
  out += "]}";
  return out;
}

/// Re-indexes the RIB as prefix -> sorted distinct origins. AS_SET
/// terminated paths carry no usable origin (RFC 6472) and are skipped,
/// exactly as the measurement's step 3 does.
std::shared_ptr<const trie::PrefixTrie<std::vector<net::Asn>>> index_routes(
    const bgp::Rib& rib) {
  auto routes = std::make_shared<trie::PrefixTrie<std::vector<net::Asn>>>();
  rib.visit([&](const net::Prefix& prefix,
                const std::vector<bgp::RibEntry>& entries) {
    std::set<net::Asn> origins;
    for (const auto& entry : entries) {
      if (const auto origin = entry.origin()) origins.insert(*origin);
    }
    routes->insert(prefix,
                   std::vector<net::Asn>(origins.begin(), origins.end()));
  });
  return routes;
}

}  // namespace

std::shared_ptr<const Snapshot> Snapshot::build(const core::Dataset& dataset,
                                                const bgp::Rib& rib,
                                                const rpki::VrpSet& vrps,
                                                std::uint64_t generation,
                                                std::uint64_t parent_generation) {
  auto snapshot = std::shared_ptr<Snapshot>(new Snapshot());
  snapshot->generation_ = generation;
  snapshot->parent_generation_ = parent_generation;
  snapshot->rank_space_ = dataset.rank_space;
  snapshot->domains_ = dataset.domains;
  const core::DomainTable& domains = snapshot->domains_;
  snapshot->by_name_ = std::make_shared<const util::NameIndex>(
      domains.size(), [&](std::uint32_t row) { return domains.name(row); });

  snapshot->routes_ = index_routes(rib);
  snapshot->vrps_ = std::make_shared<const rpki::VrpIndex>(vrps);

  // /v1/summary is identical for every request against one snapshot, so
  // render it once here.
  snapshot->summary_json_ = render_summary_json(
      dataset, snapshot->vrps_->size(), generation, parent_generation);

  return snapshot;
}

std::shared_ptr<const Snapshot> Snapshot::apply_delta(
    std::shared_ptr<const Snapshot> base, const core::Dataset& dataset,
    const std::vector<std::uint32_t>& changed_rows,
    const bgp::Rib* rib_if_changed, const rpki::VrpSet* vrps_if_changed,
    std::uint64_t generation) {
  auto snapshot = std::shared_ptr<Snapshot>(new Snapshot());
  snapshot->generation_ = generation;
  snapshot->parent_generation_ = base->generation_;
  snapshot->delta_applied_ = true;
  snapshot->rank_space_ = base->rank_space_;

  // Flatten: point at the nearest FULL snapshot, and start from the
  // parent's overlay so earlier re-sweeps stay visible. Dropped
  // intermediate generations then free as soon as their readers finish.
  const Snapshot& parent = *base;
  snapshot->base_ = parent.base_ ? parent.base_ : base;
  snapshot->overlay_ = parent.overlay_;  // empty when the parent is full
  snapshot->by_name_ = parent.by_name_;

  for (const std::uint32_t row : changed_rows) {
    snapshot->overlay_[row] = dataset.domains.record(row);
  }

  snapshot->routes_ =
      rib_if_changed ? index_routes(*rib_if_changed) : parent.routes_;
  snapshot->vrps_ = vrps_if_changed
                        ? std::make_shared<const rpki::VrpIndex>(*vrps_if_changed)
                        : parent.vrps_;

  snapshot->summary_json_ =
      render_summary_json(dataset, snapshot->vrps_->size(), generation,
                          snapshot->parent_generation_);
  return snapshot;
}

core::DomainTable::RecordView Snapshot::record_view(
    const core::DomainRecord& record) {
  const auto variant = [](const core::VariantResult& v) {
    core::DomainTable::VariantView out;
    out.resolved = v.resolved;
    out.address_count = v.address_count;
    out.special_purpose_excluded = v.special_purpose_excluded;
    out.unrouted_addresses = v.unrouted_addresses;
    out.cname_hops = v.cname_hops;
    out.terminal_cname = v.terminal_cname;
    out.pairs = std::span<const core::PrefixAsPair>(v.pairs);
    return out;
  };
  core::DomainTable::RecordView out;
  out.rank = record.rank;
  out.name = record.name;
  out.excluded_dns = record.excluded_dns;
  out.dnssec_signed = record.dnssec_signed;
  out.www = variant(record.www);
  out.apex = variant(record.apex);
  return out;
}

std::optional<core::DomainTable::RecordView> Snapshot::find_domain(
    std::string_view name) const {
  const core::DomainTable& domains = table();
  const std::uint32_t row = by_name_->find(
      name, [&](std::uint32_t index) { return domains.name(index); });
  if (row == util::NameIndex::kAbsent) return std::nullopt;
  if (const auto overlay = overlay_.find(row); overlay != overlay_.end()) {
    return record_view(overlay->second);
  }
  return domains.view(row);
}

namespace {

/// Shared body for both record shapes: field names and access syntax are
/// identical between DomainRecord and DomainTable::RecordView.
template <typename Record>
std::string render_domain_json_impl(const Record& record,
                                    std::uint64_t generation) {
  std::string out;
  out.reserve(512);
  out += "{\"generation\":";
  out += std::to_string(generation);
  out += ",\"name\":\"";
  out += json_escape(record.name);
  out += "\",\"rank\":";
  out += std::to_string(record.rank);
  out += ",\"excluded_dns\":";
  out += record.excluded_dns ? "true" : "false";
  out += ",\"dnssec_signed\":";
  out += record.dnssec_signed ? "true" : "false";
  out += ',';
  append_variant_json(out, "www", record.www);
  out += ',';
  append_variant_json(out, "apex", record.apex);
  out += '}';
  return out;
}

}  // namespace

std::string Snapshot::render_domain_json(
    const core::DomainTable::RecordView& record, std::uint64_t generation) {
  return render_domain_json_impl(record, generation);
}

std::string Snapshot::render_domain_json(const core::DomainRecord& record,
                                         std::uint64_t generation) {
  return render_domain_json_impl(record, generation);
}

std::string Snapshot::ip_json(const net::IpAddress& address) const {
  const auto covering = routes_->covering(address);
  std::string out;
  out.reserve(256);
  out += "{\"generation\":";
  out += std::to_string(generation_);
  out += ",\"address\":\"";
  out += address.to_string();
  out += "\",\"routed\":";
  out += covering.empty() ? "false" : "true";
  out += ",\"prefixes\":[";
  for (std::size_t i = 0; i < covering.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"prefix\":\"";
    out += covering[i].prefix.to_string();
    out += "\",\"origins\":[";
    const std::vector<net::Asn>& origins = *covering[i].value;
    for (std::size_t j = 0; j < origins.size(); ++j) {
      if (j != 0) out += ',';
      out += "{\"asn\":";
      out += std::to_string(origins[j].value());
      out += ",\"validity\":\"";
      out += rpki::to_string(vrps_->validate(covering[i].prefix, origins[j]));
      out += "\"}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string Snapshot::prefix_json(const net::Prefix& prefix,
                                  net::Asn origin) const {
  const auto validity = vrps_->validate(prefix, origin);
  std::string out;
  out.reserve(128);
  out += "{\"generation\":";
  out += std::to_string(generation_);
  out += ",\"prefix\":\"";
  out += prefix.to_string();
  out += "\",\"origin\":";
  out += std::to_string(origin.value());
  out += ",\"validity\":\"";
  out += rpki::to_string(validity);
  out += "\",\"covered\":";
  out += vrps_->covered(prefix) ? "true" : "false";
  out += '}';
  return out;
}

}  // namespace ripki::serve
