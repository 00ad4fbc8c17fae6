#include "delta/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <utility>

#include "rpki/validator.hpp"

namespace ripki::delta {

namespace {

/// Highest address inside `prefix` (host bits set), same family.
net::IpAddress prefix_last(const net::Prefix& prefix) {
  std::array<std::uint8_t, 16> bytes = prefix.address().bytes();
  const int width = prefix.is_v4() ? 32 : 128;
  for (int bit = prefix.length(); bit < width; ++bit)
    bytes[bit / 8] |= static_cast<std::uint8_t>(0x80u >> (bit % 8));
  if (prefix.is_v4())
    return net::IpAddress::v4(bytes[0], bytes[1], bytes[2], bytes[3]);
  return net::IpAddress::v6(bytes);
}

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

void append_fixed(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  out += buf;
}

}  // namespace

IncrementalPipeline::IncrementalPipeline(const web::Ecosystem& ecosystem,
                                         DeltaConfig config)
    : eco_(ecosystem), config_(config) {}

dns::DnsName IncrementalPipeline::apex_name(std::uint32_t row) const {
  auto parsed = dns::DnsName::parse(eco_.plan_name(row));
  assert(parsed.ok());
  return std::move(parsed).value();
}

void IncrementalPipeline::init() {
  rows_ = eco_.domain_count();

  // DNS world: churn overlay over the ecosystem's vantage zone.
  overlay_ = std::make_unique<dns::OverlayZone>(eco_.zone_source(config_.vantage));
  server_ = std::make_unique<dns::AuthoritativeServer>(overlay_.get());
  active_.assign(rows_, 1);
  current_target_.assign(rows_, {});
  apex_to_row_.reserve(rows_);
  for (std::size_t row = 0; row < rows_; ++row)
    apex_to_row_[std::string(eco_.plan_name(row))] =
        static_cast<std::uint32_t>(row);
  for (const std::uint32_t row : initial_inactive_rows(config_.churn, rows_)) {
    active_[row] = 0;
    const dns::DnsName apex = apex_name(row);
    overlay_->suppress(apex);
    overlay_->suppress(apex.prepended("www"));
  }
  // The spare suppressions are part of the generation-1 world, not churn.
  overlay_->drain_dirty();

  // BGP world: private copy of the collector table (withdraw/announce
  // must not mutate the shared ecosystem RIB).
  for (const bgp::PeerEntry& peer : eco_.rib().peers()) rib_.add_peer(peer);
  eco_.rib().visit(
      [&](const net::Prefix&, const std::vector<bgp::RibEntry>& entries) {
        for (const bgp::RibEntry& entry : entries) rib_.add(entry);
      });
  rib_.freeze();
  for (const web::PrefixRecord& record : eco_.prefixes()) {
    if (record.announced && record.prefix.is_v4() &&
        record.prefix.length() <= 24)
      retarget_prefix_pool_.push_back(record.prefix);
  }

  // RPKI world: validate the repositories, then establish the RTR session
  // the router-side VRP shadow is checked against on every VRP tick.
  rpki::RepositoryValidator validator(eco_.config().now);
  rpki::ValidationReport report = validator.validate(eco_.repositories());
  current_vrps_ = std::move(report.vrps);
  std::sort(current_vrps_.begin(), current_vrps_.end());
  current_vrps_.erase(std::unique(current_vrps_.begin(), current_vrps_.end()),
                      current_vrps_.end());
  cache_ = std::make_unique<rtr::CacheServer>(0x5157, current_vrps_);
  const auto synced = client_.sync(*cache_);
  rtr_in_sync_ = synced.ok() && client_.vrps() == cache_->current() &&
                 client_.serial() == cache_->serial();
  vrp_index_ = rpki::VrpIndex(current_vrps_);

  // Measure every row and build the reverse indices.
  dataset_ = core::Dataset{};
  dataset_.rank_space = eco_.config().rank_space;
  dataset_.domains.reserve(rows_);
  row_prefixes_.assign(rows_, {});
  row_addrs_.assign(rows_, {});
  row_as_set_.assign(rows_, 0);
  core::MeasureKernel kernel(server_.get(), &rib_, &vrp_index_);
  for (std::uint32_t row = 0; row < rows_; ++row) {
    const core::RowResult& result = kernel.measure(apex_name(row));
    dataset_.domains.append(eco_.plan(row).rank, eco_.plan_name(row),
                            result.excluded_dns, result.dnssec_signed,
                            result.www, result.apex);
    core::count_row(dataset_.counters, result, +1);
    row_as_set_[row] = result.as_set_excluded;
    index_row(row, result);
  }
  dataset_.counters.dns_queries = kernel.queries_sent();

  generation_ = 1;
  snapshot_ = serve::Snapshot::build(dataset_, rib_, current_vrps_,
                                     generation_, 0);
  initialized_ = true;
}

ChurnUniverse IncrementalPipeline::universe() const {
  assert(initialized_);
  ChurnUniverse universe;
  universe.domain_count = rows_;
  universe.initial_vrps = current_vrps_;
  rib_.visit([&](const net::Prefix& prefix,
                 const std::vector<bgp::RibEntry>& entries) {
    if (entries.empty()) return;
    universe.announced_prefixes.push_back(prefix);
    std::set<net::Asn> origins;
    for (const bgp::RibEntry& entry : entries) {
      if (entry.as_path.contains_as_set()) continue;
      if (const auto origin = entry.origin()) origins.insert(*origin);
    }
    for (const net::Asn origin : origins) {
      const rpki::Vrp candidate{
          prefix, static_cast<std::uint8_t>(prefix.length()), origin};
      if (!std::binary_search(current_vrps_.begin(), current_vrps_.end(),
                              candidate))
        universe.candidate_vrps.push_back(candidate);
    }
  });
  return universe;
}

// --- Reverse indices ------------------------------------------------------

void IncrementalPipeline::index_row(std::uint32_t row,
                                    const core::RowResult& result) {
  std::vector<net::Prefix>& prefixes = row_prefixes_[row];
  prefixes.clear();
  for (const auto& pair : result.www.pairs) prefixes.push_back(pair.prefix);
  for (const auto& pair : result.apex.pairs) prefixes.push_back(pair.prefix);
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                 prefixes.end());
  for (const net::Prefix& prefix : prefixes)
    prefix_rows_[prefix].push_back(row);

  std::vector<net::IpAddress>& addrs = row_addrs_[row];
  addrs = result.kept_addresses;
  std::sort(addrs.begin(), addrs.end());
  addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
  for (const net::IpAddress& addr : addrs) addr_rows_[addr].push_back(row);
}

void IncrementalPipeline::unindex_row(std::uint32_t row) {
  for (const net::Prefix& prefix : row_prefixes_[row]) {
    const auto it = prefix_rows_.find(prefix);
    if (it == prefix_rows_.end()) continue;
    std::erase(it->second, row);
    if (it->second.empty()) prefix_rows_.erase(it);
  }
  row_prefixes_[row].clear();
  for (const net::IpAddress& addr : row_addrs_[row]) {
    const auto it = addr_rows_.find(addr);
    if (it == addr_rows_.end()) continue;
    std::erase(it->second, row);
    if (it->second.empty()) addr_rows_.erase(it);
  }
  row_addrs_[row].clear();
}

void IncrementalPipeline::fan_out_prefix(const net::Prefix& prefix,
                                         std::set<std::uint32_t>& dirty) const {
  // Any row with a kept address inside the prefix can change covering set,
  // pairs, or unrouted count. Range scan over the ordered address index,
  // then an exact containment filter (the byte range is a superset).
  const net::IpAddress last = prefix_last(prefix);
  for (auto it = addr_rows_.lower_bound(prefix.address());
       it != addr_rows_.end(); ++it) {
    if (it->first > last) break;
    if (it->first.family() != prefix.family()) continue;
    if (!prefix.contains(it->first)) continue;
    dirty.insert(it->second.begin(), it->second.end());
  }
}

void IncrementalPipeline::fan_out_vrp(const rpki::Vrp& vrp,
                                      std::set<std::uint32_t>& dirty) const {
  // A VRP can only change the verdict of routes it covers: pair prefixes
  // equal to or more specific than vrp.prefix. Those sort at or after
  // vrp.prefix in the ordered prefix index (their addresses fall inside
  // its byte range), so a bounded range scan plus containment filter
  // finds every affected row.
  const net::IpAddress last = prefix_last(vrp.prefix);
  for (auto it = prefix_rows_.lower_bound(
           net::Prefix(vrp.prefix.address(), vrp.prefix.length()));
       it != prefix_rows_.end(); ++it) {
    if (it->first.address() > last) break;
    if (it->first.family() != vrp.prefix.family()) continue;
    if (!vrp.prefix.contains(it->first)) continue;
    dirty.insert(it->second.begin(), it->second.end());
  }
}

// --- Tick application -----------------------------------------------------

void IncrementalPipeline::install_retarget(std::uint32_t row,
                                           std::uint64_t tick) {
  if (retarget_prefix_pool_.empty()) return;
  if (!current_target_[row].empty()) {
    if (auto parsed = dns::DnsName::parse(current_target_[row]); parsed.ok())
      overlay_->clear_records(parsed.value());
    aux_name_to_row_.erase(current_target_[row]);
  }
  const std::uint64_t h = util::mix64(
      util::hash_combine(config_.churn.seed, util::hash_combine(tick, row)));
  const std::string target = "edge-t" + std::to_string(tick) + "-d" +
                             std::to_string(row) + ".cdn-overlay.example";
  auto target_parsed = dns::DnsName::parse(target);
  assert(target_parsed.ok());
  const dns::DnsName target_dn = target_parsed.value();
  const dns::DnsName www_dn = apex_name(row).prepended("www");

  const auto host_in = [](const net::Prefix& prefix, std::uint8_t offset) {
    const auto& bytes = prefix.address().bytes();
    return net::IpAddress::v4(bytes[0], bytes[1], bytes[2], offset);
  };
  const net::Prefix& p1 = retarget_prefix_pool_[h % retarget_prefix_pool_.size()];
  const net::Prefix& p2 =
      retarget_prefix_pool_[(h >> 16) % retarget_prefix_pool_.size()];
  std::vector<dns::ResourceRecord> records;
  records.push_back(dns::ResourceRecord::a(
      target_dn, host_in(p1, static_cast<std::uint8_t>(1 + (h >> 32) % 250))));
  if (!(p2 == p1))
    records.push_back(dns::ResourceRecord::a(
        target_dn,
        host_in(p2, static_cast<std::uint8_t>(1 + (h >> 40) % 250))));
  overlay_->set_records(target_dn, std::move(records));
  overlay_->set_records(www_dn, {dns::ResourceRecord::cname(www_dn, target_dn)});
  aux_name_to_row_[target] = row;
  current_target_[row] = target;
}

std::uint32_t IncrementalPipeline::row_for_name(const dns::DnsName& name) const {
  const std::string text = name.to_string();
  if (const auto aux = aux_name_to_row_.find(text);
      aux != aux_name_to_row_.end())
    return aux->second;
  std::string_view view = text;
  if (view.starts_with("www.")) view.remove_prefix(4);
  if (const auto apex = apex_to_row_.find(std::string(view));
      apex != apex_to_row_.end())
    return apex->second;
  return kNoRow;
}

TickStats IncrementalPipeline::apply_tick(const Tick& tick) {
  assert(initialized_);
  const auto started = std::chrono::steady_clock::now();
  TickStats stats;
  stats.tick = tick.number;
  stats.events = tick.event_count();
  std::set<std::uint32_t> dirty;

  // 1a. DNS layer: domain removes/adds/retargets against the overlay.
  for (const std::uint32_t row : tick.domain_removes) {
    const dns::DnsName apex = apex_name(row);
    overlay_->suppress(apex);
    overlay_->suppress(apex.prepended("www"));
    active_[row] = 0;
  }
  for (const std::uint32_t row : tick.domain_adds) {
    const dns::DnsName apex = apex_name(row);
    overlay_->unsuppress(apex);
    overlay_->unsuppress(apex.prepended("www"));
    active_[row] = 1;
  }
  for (const std::uint32_t row : tick.cname_retargets)
    install_retarget(row, tick.number);

  // 1b. Changed-zone detection: the drained dirty names ARE the DNS
  // invalidation set — mapped back to rows through the name indices.
  const std::vector<dns::DnsName> dirty_names = overlay_->drain_dirty();
  stats.dns_dirty_names = dirty_names.size();
  for (const dns::DnsName& name : dirty_names) {
    const std::uint32_t row = row_for_name(name);
    if (row != kNoRow) dirty.insert(row);
  }
  stats.zone_serial = overlay_->serial();

  // 2. BGP layer: RIB diffing against the frozen trie.
  for (const net::Prefix& prefix : tick.prefix_withdraws) {
    std::vector<bgp::RibEntry> removed = rib_.withdraw(prefix);
    if (removed.empty()) continue;
    withdrawn_entries_[prefix] = std::move(removed);
    ++stats.rib_withdrawn;
    fan_out_prefix(prefix, dirty);
  }
  for (const net::Prefix& prefix : tick.prefix_announces) {
    const auto it = withdrawn_entries_.find(prefix);
    if (it == withdrawn_entries_.end()) continue;
    rib_.announce(std::move(it->second));
    withdrawn_entries_.erase(it);
    ++stats.rib_announced;
    fan_out_prefix(prefix, dirty);
  }
  stats.rib_changed = stats.rib_withdrawn + stats.rib_announced > 0;
  if (stats.rib_changed) rib_.refreeze();

  // 3. RPKI layer: VRP set delta, pushed through the RTR session and
  // cross-checked against the router's serial-synced shadow.
  for (const rpki::Vrp& vrp : tick.roa_publishes) {
    const auto pos =
        std::lower_bound(current_vrps_.begin(), current_vrps_.end(), vrp);
    if (pos != current_vrps_.end() && *pos == vrp) continue;
    current_vrps_.insert(pos, vrp);
    ++stats.vrp_added;
    fan_out_vrp(vrp, dirty);
  }
  for (const rpki::Vrp& vrp : tick.roa_revokes) {
    const auto pos =
        std::lower_bound(current_vrps_.begin(), current_vrps_.end(), vrp);
    if (pos == current_vrps_.end() || !(*pos == vrp)) continue;
    current_vrps_.erase(pos);
    ++stats.vrp_removed;
    fan_out_vrp(vrp, dirty);
  }
  stats.vrps_changed = stats.vrp_added + stats.vrp_removed > 0;
  if (stats.vrps_changed) {
    cache_->update(current_vrps_);
    const auto synced = client_.sync(*cache_);
    rtr_in_sync_ = synced.ok() && client_.vrps() == cache_->current() &&
                   client_.serial() == cache_->serial();
    vrp_index_ = rpki::VrpIndex(current_vrps_);
  }
  stats.rtr_in_sync = rtr_in_sync_;
  stats.rtr_serial = client_.serial();

  // 4. Re-sweep only the invalidated rows; rows whose re-measured record
  // is unchanged stay out of the snapshot overlay. The aggregate counters
  // trade the row's previous result for the new one, AS_SET count
  // included (it is not part of the stored record).
  stats.dirty_rows = dirty.size();
  std::vector<std::uint32_t> changed;
  core::MeasureKernel kernel(server_.get(), &rib_, &vrp_index_);
  core::RowResult previous;
  for (const std::uint32_t row : dirty) {
    const core::RowResult& result = kernel.measure(apex_name(row));
    const core::DomainTable::RecordView old = dataset_.domains.view(row);
    const bool same_record = old.excluded_dns == result.excluded_dns &&
                             old.dnssec_signed == result.dnssec_signed &&
                             old.www == result.www && old.apex == result.apex;
    if (same_record && row_as_set_[row] == result.as_set_excluded) continue;
    previous.www = old.www.to_result();
    previous.apex = old.apex.to_result();
    previous.excluded_dns = old.excluded_dns;
    previous.dnssec_signed = old.dnssec_signed;
    previous.as_set_excluded = row_as_set_[row];
    core::count_row(dataset_.counters, previous, -1);
    core::count_row(dataset_.counters, result, +1);
    row_as_set_[row] = result.as_set_excluded;
    if (same_record) continue;
    dataset_.domains.set_row(row, result.excluded_dns, result.dnssec_signed,
                             result.www, result.apex);
    unindex_row(row);
    index_row(row, result);
    changed.push_back(row);
  }
  stats.changed_rows = changed.size();
  dataset_.counters.dns_queries += kernel.queries_sent();

  // 5. Publish generation N+1: structural delta, or a compacting full
  // build when the overlay would outgrow the threshold.
  const std::uint64_t parent = generation_;
  ++generation_;
  const bool compact =
      config_.compact_denominator != 0 &&
      (snapshot_->overlay_size() + changed.size()) * config_.compact_denominator >
          rows_;
  if (compact) {
    snapshot_ = serve::Snapshot::build(dataset_, rib_, current_vrps_,
                                       generation_, parent);
    stats.compacted = true;
    ++compactions_;
  } else {
    snapshot_ = serve::Snapshot::apply_delta(
        snapshot_, dataset_, changed, stats.rib_changed ? &rib_ : nullptr,
        stats.vrps_changed ? &current_vrps_ : nullptr, generation_);
  }
  stats.generation = generation_;
  stats.overlay_size = snapshot_->overlay_size();
  stats.apply_ms = elapsed_ms(started);

  ++ticks_applied_;
  if (history_.size() >= 512) history_.erase(history_.begin());
  history_.push_back(stats);
  return stats;
}

// --- Oracle ---------------------------------------------------------------

std::shared_ptr<const serve::Snapshot> IncrementalPipeline::full_rebuild() const {
  assert(initialized_);
  core::Dataset fresh;
  fresh.rank_space = eco_.config().rank_space;
  fresh.domains.reserve(rows_);
  core::MeasureKernel kernel(server_.get(), &rib_, &vrp_index_);
  for (std::uint32_t row = 0; row < rows_; ++row) {
    const core::RowResult& result = kernel.measure(apex_name(row));
    fresh.domains.append(eco_.plan(row).rank, eco_.plan_name(row),
                         result.excluded_dns, result.dnssec_signed,
                         result.www, result.apex);
  }
  return serve::Snapshot::build(fresh, rib_, current_vrps_,
                                snapshot_->generation(),
                                snapshot_->parent_generation());
}

IncrementalPipeline::OracleReport IncrementalPipeline::check_against(
    const serve::Snapshot& full) const {
  OracleReport report;
  const serve::Snapshot& mine = *snapshot_;
  const auto fail = [&report](std::string what) {
    report.identical = false;
    report.divergence = std::move(what);
  };

  if (mine.summary_json() != full.summary_json()) {
    fail("/v1/summary");
    return report;
  }
  ++report.endpoints_checked;

  for (std::size_t row = 0; row < rows_; ++row) {
    const std::string name(dataset_.domains.name(row));
    const auto a = mine.find_domain(name);
    const auto b = full.find_domain(name);
    if (a.has_value() != b.has_value()) {
      fail("/v1/domain/" + name + " (presence)");
      return report;
    }
    if (!a.has_value()) continue;
    if (serve::Snapshot::render_domain_json(*a, mine.generation()) !=
        serve::Snapshot::render_domain_json(*b, full.generation())) {
      fail("/v1/domain/" + name);
      return report;
    }
    ++report.endpoints_checked;
  }

  // Deterministic samples of the address- and prefix-keyed endpoints.
  std::size_t i = 0;
  const std::size_t addr_stride =
      std::max<std::size_t>(1, addr_rows_.size() / 64);
  for (auto it = addr_rows_.begin(); it != addr_rows_.end(); ++it, ++i) {
    if (i % addr_stride != 0) continue;
    if (mine.ip_json(it->first) != full.ip_json(it->first)) {
      fail("/v1/ip/" + it->first.to_string());
      return report;
    }
    ++report.endpoints_checked;
  }
  i = 0;
  const std::size_t prefix_stride =
      std::max<std::size_t>(1, prefix_rows_.size() / 64);
  for (auto it = prefix_rows_.begin(); it != prefix_rows_.end(); ++it, ++i) {
    if (i % prefix_stride != 0) continue;
    const std::set<net::Asn> origins = rib_.origins_for(it->first);
    const net::Asn origin =
        origins.empty() ? net::Asn(64999) : *origins.begin();
    if (mine.prefix_json(it->first, origin) !=
        full.prefix_json(it->first, origin)) {
      fail("/v1/prefix/" + it->first.to_string() + "/" + origin.to_string());
      return report;
    }
    ++report.endpoints_checked;
  }
  return report;
}

std::string IncrementalPipeline::deltaz_json() const {
  std::string out = "{";
  out += "\"ticks\":" + std::to_string(ticks_applied_);
  out += ",\"generation\":" + std::to_string(generation_);
  out += ",\"rows\":" + std::to_string(rows_);
  out += ",\"zone_serial\":" + std::to_string(overlay_->serial());
  out += ",\"zone_overrides\":" + std::to_string(overlay_->override_count());
  out += ",\"zone_suppressed\":" + std::to_string(overlay_->suppressed_count());
  out += ",\"rtr_serial\":" + std::to_string(client_.serial());
  out += std::string(",\"rtr_in_sync\":") + (rtr_in_sync_ ? "true" : "false");
  out += ",\"vrp_count\":" + std::to_string(current_vrps_.size());
  out += ",\"withdrawn_prefixes\":" + std::to_string(withdrawn_entries_.size());
  out += ",\"overlay_size\":" +
         std::to_string(snapshot_ ? snapshot_->overlay_size() : 0);
  out += ",\"compactions\":" + std::to_string(compactions_);
  out += ",\"history\":[";
  const std::size_t window = std::min<std::size_t>(history_.size(), 32);
  for (std::size_t k = history_.size() - window; k < history_.size(); ++k) {
    const TickStats& s = history_[k];
    if (k != history_.size() - window) out += ',';
    out += "{\"tick\":" + std::to_string(s.tick);
    out += ",\"generation\":" + std::to_string(s.generation);
    out += ",\"events\":" + std::to_string(s.events);
    out += ",\"dns_dirty_names\":" + std::to_string(s.dns_dirty_names);
    out += ",\"dirty_rows\":" + std::to_string(s.dirty_rows);
    out += ",\"changed_rows\":" + std::to_string(s.changed_rows);
    out += ",\"rib_withdrawn\":" + std::to_string(s.rib_withdrawn);
    out += ",\"rib_announced\":" + std::to_string(s.rib_announced);
    out += ",\"vrp_added\":" + std::to_string(s.vrp_added);
    out += ",\"vrp_removed\":" + std::to_string(s.vrp_removed);
    out += std::string(",\"compacted\":") + (s.compacted ? "true" : "false");
    out += ",\"overlay_size\":" + std::to_string(s.overlay_size);
    out += ",\"apply_ms\":";
    append_fixed(out, s.apply_ms);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace ripki::delta
