#include "dns/zone.hpp"

namespace ripki::dns {

void InMemoryZoneDb::add(ResourceRecord record) {
  auto& by_type = names_[record.name].by_type;
  by_type[static_cast<std::uint16_t>(record.type)].push_back(std::move(record));
  ++record_count_;
}

void InMemoryZoneDb::lookup(const DnsName& name, RecordType type,
                            std::vector<ResourceRecord>& out) const {
  const auto name_it = names_.find(name);
  if (name_it == names_.end()) return;
  const auto type_it = name_it->second.by_type.find(static_cast<std::uint16_t>(type));
  if (type_it == name_it->second.by_type.end()) return;
  out.insert(out.end(), type_it->second.begin(), type_it->second.end());
}

bool InMemoryZoneDb::name_exists(const DnsName& name) const {
  return names_.find(name) != names_.end();
}

// --- OverlayZone ------------------------------------------------------------

void OverlayZone::lookup(const DnsName& name, RecordType type,
                         std::vector<ResourceRecord>& out) const {
  if (suppressed_.contains(name)) return;
  const auto it = overrides_.find(name);
  if (it != overrides_.end()) {
    for (const auto& record : it->second) {
      if (record.type == type) out.push_back(record);
    }
    return;
  }
  base_->lookup(name, type, out);
}

bool OverlayZone::name_exists(const DnsName& name) const {
  if (suppressed_.contains(name)) return false;
  if (overrides_.contains(name)) return true;
  return base_->name_exists(name);
}

void OverlayZone::set_records(const DnsName& name,
                              std::vector<ResourceRecord> records) {
  overrides_[name] = std::move(records);
  touch(name);
}

void OverlayZone::clear_records(const DnsName& name) {
  if (overrides_.erase(name) > 0) touch(name);
}

void OverlayZone::suppress(const DnsName& name) {
  if (suppressed_.insert(name).second) touch(name);
}

void OverlayZone::unsuppress(const DnsName& name) {
  if (suppressed_.erase(name) > 0) touch(name);
}

std::vector<DnsName> OverlayZone::drain_dirty() {
  std::vector<DnsName> out = std::move(dirty_);
  dirty_.clear();
  dirty_seen_.clear();
  return out;
}

void OverlayZone::touch(const DnsName& name) {
  ++serial_;
  if (dirty_seen_.insert(name).second) dirty_.push_back(name);
}

}  // namespace ripki::dns
