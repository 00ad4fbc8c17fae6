// Incremental end-to-end pipeline: churn ticks in, snapshot deltas out.
//
// IncrementalPipeline owns a mutable copy of the world the batch
// MeasurementPipeline treats as frozen — an OverlayZone over the
// ecosystem's zone source (domain adds/removes/retargets), a RIB that
// supports withdraw/announce/refreeze, and a VRP set kept in sync with
// an RTR cache/router pair — plus the master Dataset over a fixed row
// set. Each apply_tick():
//
//   1. applies the tick's events to every layer,
//   2. derives the invalidation set: zone dirty names map back to rows,
//      RIB deltas fan out through an address->rows reverse index, VRP
//      deltas through a prefix->rows reverse index,
//   3. re-measures only those rows with core::MeasureKernel, the kernel
//      the batch sweep runs (DNS resolve -> covering prefixes -> RFC 6811),
//   4. publishes generation N+1 via serve::Snapshot::apply_delta (or a
//      compacting full build when the overlay grows past the threshold).
//
// full_rebuild() re-measures every row of the *current* world and builds
// a from-scratch snapshot with the same generation stamps — the oracle.
// check_against() byte-compares the two across every /v1/* endpoint
// rendering; identity on every tick is the subsystem's correctness gate.
// Delta and oracle share the kernel, so that identity checks the
// invalidation logic; the kernel itself is checked against the batch
// MeasurementPipeline (delta_test's BatchDeltaIdentity suite).
//
// The dataset's counters match a batch run over the same world field for
// field, except `dns_queries`, which counts every query the pipeline has
// sent since init() (re-sweeps included).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/rib.hpp"
#include "core/dataset.hpp"
#include "core/kernel.hpp"
#include "delta/churn.hpp"
#include "dns/name.hpp"
#include "dns/server.hpp"
#include "dns/zone.hpp"
#include "net/ip.hpp"
#include "net/prefix.hpp"
#include "rpki/origin_validation.hpp"
#include "rpki/vrp.hpp"
#include "rtr/cache.hpp"
#include "rtr/client.hpp"
#include "serve/snapshot.hpp"
#include "web/ecosystem.hpp"

namespace ripki::delta {

struct DeltaConfig {
  ChurnConfig churn;
  web::Vantage vantage = web::Vantage::kBerlin;
  /// Fall back to a compacting full build when the snapshot overlay
  /// would exceed rows / compact_denominator (0 disables compaction).
  std::size_t compact_denominator = 4;
};

/// Per-tick telemetry: delta sizes, invalidation fan-out, apply cost.
struct TickStats {
  std::uint64_t tick = 0;
  std::uint64_t generation = 0;
  std::size_t events = 0;
  std::size_t dns_dirty_names = 0;  // zone dirty set drained this tick
  std::size_t dirty_rows = 0;       // rows re-swept (invalidation fan-out)
  std::size_t changed_rows = 0;     // rows whose stored record changed
  std::size_t rib_withdrawn = 0;
  std::size_t rib_announced = 0;
  std::size_t vrp_added = 0;
  std::size_t vrp_removed = 0;
  bool rib_changed = false;
  bool vrps_changed = false;
  bool rtr_in_sync = true;
  bool compacted = false;  // apply fell back to a full build
  std::uint32_t zone_serial = 0;
  std::uint32_t rtr_serial = 0;
  std::size_t overlay_size = 0;
  double apply_ms = 0.0;
};

class IncrementalPipeline {
 public:
  /// `ecosystem` is borrowed and must outlive the pipeline.
  IncrementalPipeline(const web::Ecosystem& ecosystem, DeltaConfig config);

  /// Builds the mutable world (spare rows suppressed, RIB copied and
  /// frozen, repositories validated, RTR session established), measures
  /// every row, and publishes generation 1.
  void init();

  /// Churn candidates for a TickGenerator, derived from the initialised
  /// world. Requires init().
  ChurnUniverse universe() const;

  /// Applies one tick end to end and publishes the next generation.
  TickStats apply_tick(const Tick& tick);

  /// From-scratch oracle of the current world: every row re-measured,
  /// snapshot rebuilt with the same generation/lineage stamps as the
  /// published one.
  std::shared_ptr<const serve::Snapshot> full_rebuild() const;

  struct OracleReport {
    bool identical = true;
    std::size_t endpoints_checked = 0;
    std::string divergence;  // first mismatching endpoint, when any
  };
  /// Byte-compares the published snapshot against `full` across the
  /// summary, every /v1/domain rendering, and a deterministic sample of
  /// /v1/ip and /v1/prefix renderings.
  OracleReport check_against(const serve::Snapshot& full) const;

  std::shared_ptr<const serve::Snapshot> snapshot() const { return snapshot_; }
  const core::Dataset& dataset() const { return dataset_; }
  std::uint64_t generation() const { return generation_; }
  std::size_t row_count() const { return rows_; }
  std::uint32_t zone_serial() const { return overlay_->serial(); }
  std::uint32_t rtr_serial() const { return client_.serial(); }
  bool rtr_in_sync() const { return rtr_in_sync_; }
  std::uint64_t ticks_applied() const { return ticks_applied_; }
  std::uint64_t compactions() const { return compactions_; }
  const std::vector<TickStats>& history() const { return history_; }

  /// /deltaz payload: world serials plus the recent per-tick stats.
  std::string deltaz_json() const;

 private:
  void index_row(std::uint32_t row, const core::RowResult& result);
  void unindex_row(std::uint32_t row);
  void fan_out_prefix(const net::Prefix& prefix,
                      std::set<std::uint32_t>& dirty) const;
  void fan_out_vrp(const rpki::Vrp& vrp, std::set<std::uint32_t>& dirty) const;
  void install_retarget(std::uint32_t row, std::uint64_t tick);
  dns::DnsName apex_name(std::uint32_t row) const;
  std::uint32_t row_for_name(const dns::DnsName& name) const;

  static constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;

  const web::Ecosystem& eco_;
  DeltaConfig config_;
  std::size_t rows_ = 0;
  bool initialized_ = false;

  // --- DNS layer ---------------------------------------------------------
  std::unique_ptr<dns::OverlayZone> overlay_;
  std::unique_ptr<dns::AuthoritativeServer> server_;
  std::vector<char> active_;
  std::unordered_map<std::string, std::uint32_t> apex_to_row_;
  /// Overlay-served CNAME targets back to the row they front.
  std::unordered_map<std::string, std::uint32_t> aux_name_to_row_;
  std::vector<std::string> current_target_;  // per row; "" = no retarget
  /// Announced v4 prefixes (length <= 24) retarget addresses draw from.
  std::vector<net::Prefix> retarget_prefix_pool_;

  // --- BGP layer ---------------------------------------------------------
  bgp::Rib rib_;
  /// Entries saved by withdraw() so a later announce restores exactly.
  std::map<net::Prefix, std::vector<bgp::RibEntry>> withdrawn_entries_;

  // --- RPKI / RTR layer --------------------------------------------------
  rpki::VrpSet current_vrps_;  // sorted canonical
  std::unique_ptr<rtr::CacheServer> cache_;
  rtr::RouterClient client_;
  rpki::VrpIndex vrp_index_;
  bool rtr_in_sync_ = true;

  // --- Dataset + snapshot ------------------------------------------------
  core::Dataset dataset_;
  std::shared_ptr<const serve::Snapshot> snapshot_;
  std::uint64_t generation_ = 0;

  // --- Reverse indices (invalidation fan-out) ----------------------------
  /// prefix -> rows with a (prefix, AS) pair on it (VRP fan-out).
  std::map<net::Prefix, std::vector<std::uint32_t>> prefix_rows_;
  /// kept address -> rows it serves (BGP fan-out via range scan).
  std::map<net::IpAddress, std::vector<std::uint32_t>> addr_rows_;
  std::vector<std::vector<net::Prefix>> row_prefixes_;
  std::vector<std::vector<net::IpAddress>> row_addrs_;
  /// Per-row AS_SET exclusions, so a re-sweep can retract the old count.
  std::vector<std::uint64_t> row_as_set_;

  std::vector<TickStats> history_;
  std::uint64_t ticks_applied_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace ripki::delta
