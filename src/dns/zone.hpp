// Zone data sources for the authoritative server.
//
// ZoneSource is an interface so record data can either live in memory
// (tests, small examples) or be synthesised on demand by the ecosystem
// generator (1M-domain experiments without 1M-domain memory footprints).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dns/message.hpp"

namespace ripki::dns {

class ZoneSource {
 public:
  virtual ~ZoneSource() = default;

  /// Appends the records of exactly (name, type) to `out` (existing
  /// contents are kept; the caller owns and reuses the storage). CNAME
  /// indirection is NOT resolved here; the server adds the CNAME record
  /// and resolvers chase it.
  virtual void lookup(const DnsName& name, RecordType type,
                      std::vector<ResourceRecord>& out) const = 0;

  /// True when any record exists for `name` (drives NXDOMAIN vs NOERROR
  /// with an empty answer section).
  virtual bool name_exists(const DnsName& name) const = 0;
};

/// Simple in-memory record store.
class InMemoryZoneDb final : public ZoneSource {
 public:
  void add(ResourceRecord record);

  void lookup(const DnsName& name, RecordType type,
              std::vector<ResourceRecord>& out) const override;
  bool name_exists(const DnsName& name) const override;

  std::size_t record_count() const { return record_count_; }

 private:
  struct TypeMap {
    std::unordered_map<std::uint16_t, std::vector<ResourceRecord>> by_type;
  };
  std::unordered_map<DnsName, TypeMap, DnsNameHash> names_;
  std::size_t record_count_ = 0;
};

/// Mutable churn overlay over a read-only zone source — the incremental
/// pipeline's model of zone change. Per-name overrides fully mask the
/// base zone (all types at once, like a zone transfer replacing one
/// owner name), a suppression set turns names into NXDOMAIN (modelling
/// domain removal without touching the base generator), and every
/// mutation bumps a zone serial and records the owner name in a dirty
/// set the pipeline drains to find re-measurement candidates.
class OverlayZone final : public ZoneSource {
 public:
  /// `base` is borrowed and must outlive the overlay.
  explicit OverlayZone(const ZoneSource& base) : base_(&base) {}

  void lookup(const DnsName& name, RecordType type,
              std::vector<ResourceRecord>& out) const override;
  bool name_exists(const DnsName& name) const override;

  /// Replaces ALL records for `name` (every type) with `records`; the
  /// override fully masks the base zone for that owner name.
  void set_records(const DnsName& name, std::vector<ResourceRecord> records);
  /// Drops an override, re-exposing the base zone's answer.
  void clear_records(const DnsName& name);
  /// NXDOMAIN for `name` (masks overrides and base alike) and the undo.
  void suppress(const DnsName& name);
  void unsuppress(const DnsName& name);
  bool suppressed(const DnsName& name) const {
    return suppressed_.contains(name);
  }

  /// SOA-style zone serial: bumped on every effective mutation.
  std::uint32_t serial() const { return serial_; }
  /// Owner names mutated since the last drain, in mutation order
  /// (deduplicated); clears the dirty set.
  std::vector<DnsName> drain_dirty();
  std::size_t dirty_count() const { return dirty_.size(); }
  std::size_t override_count() const { return overrides_.size(); }
  std::size_t suppressed_count() const { return suppressed_.size(); }

 private:
  void touch(const DnsName& name);

  const ZoneSource* base_;
  std::unordered_map<DnsName, std::vector<ResourceRecord>, DnsNameHash>
      overrides_;
  std::unordered_set<DnsName, DnsNameHash> suppressed_;
  std::uint32_t serial_ = 0;
  std::vector<DnsName> dirty_;
  std::unordered_set<DnsName, DnsNameHash> dirty_seen_;
};

}  // namespace ripki::dns
