// Immutable query-serving view of one pipeline run.
//
// A Snapshot owns everything a lookup needs — a copy of the per-domain
// dataset with an open-addressed name index over it, a prefix trie of
// announced routes rebuilt from the RIB, and a VRP index rebuilt from the
// validated VRP set — so it stays valid after the pipeline that produced
// it is gone.
// The service publishes each run's snapshot behind a shared_ptr that is
// swapped atomically (RCU-style): readers grab a reference once per
// request and keep a consistent view for its whole lifetime; the old
// snapshot is freed when the last in-flight reader drops it.
//
// Two construction paths share one rendering contract:
//
//   build()        full rebuild from a Dataset + Rib + VrpSet
//   apply_delta()  generation N+1 derived from N plus a changed-row set:
//                  unchanged rows, the name index, and (when untouched)
//                  the route trie and VRP index are structurally shared
//                  with the parent; only re-swept rows live in a small
//                  materialized overlay. The chain is flattened to depth
//                  one — a delta snapshot points at the last full build,
//                  never at another delta — so dropped generations free
//                  immediately and lookups cost one overlay probe.
//
// All JSON rendering lives here as deterministic pure functions of the
// snapshot contents, so tests, the load-generator oracle, and the delta
// pipeline's full-rebuild oracle can compute exact expected bytes from a
// core::Dataset directly. Byte identity between the two construction
// paths is the delta subsystem's correctness gate.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bgp/rib.hpp"
#include "core/dataset.hpp"
#include "net/asn.hpp"
#include "net/ip.hpp"
#include "net/prefix.hpp"
#include "rpki/origin_validation.hpp"
#include "rpki/vrp.hpp"
#include "trie/prefix_trie.hpp"
#include "util/name_index.hpp"

namespace ripki::serve {

class Snapshot {
 public:
  /// Builds the immutable view: copies `dataset.domains` (compact SoA
  /// table, flat name pool), indexes its names, re-indexes the RIB's
  /// (prefix -> origin ASes)
  /// mapping, and rebuilds a VrpIndex from `vrps`. `generation` stamps
  /// every response from this snapshot; `parent_generation` records the
  /// lineage (0 for a from-scratch build) and must match between a delta
  /// application and its full-rebuild oracle for the byte-identity gate.
  static std::shared_ptr<const Snapshot> build(const core::Dataset& dataset,
                                               const bgp::Rib& rib,
                                               const rpki::VrpSet& vrps,
                                               std::uint64_t generation,
                                               std::uint64_t parent_generation = 0);

  /// Derives generation N+1 from `base` (which must serve the same fixed
  /// row set as `dataset`): rows in `changed_rows` are materialized from
  /// `dataset` into the overlay; everything else is shared with the base
  /// chain's full snapshot. `rib_if_changed` / `vrps_if_changed` are null
  /// when that layer is untouched this tick (the trie / VRP index is then
  /// shared with the parent) and point at the new state otherwise.
  /// `dataset` must be the master dataset AFTER the tick's re-sweep — the
  /// summary is re-rendered from it in full, never patched, because its
  /// %.6f fractions are not incrementally reconstructible byte-for-byte.
  static std::shared_ptr<const Snapshot> apply_delta(
      std::shared_ptr<const Snapshot> base, const core::Dataset& dataset,
      const std::vector<std::uint32_t>& changed_rows,
      const bgp::Rib* rib_if_changed, const rpki::VrpSet* vrps_if_changed,
      std::uint64_t generation);

  std::uint64_t generation() const { return generation_; }
  /// Generation this snapshot was derived from (0 = from scratch).
  std::uint64_t parent_generation() const { return parent_generation_; }
  /// True when this snapshot came through apply_delta() rather than a
  /// full build — surfaced in /runz and bench output, not in the JSON.
  bool delta_applied() const { return delta_applied_; }
  std::size_t domain_count() const { return table().size(); }
  /// Rows materialized in this snapshot's overlay (0 for a full build) —
  /// the delta pipeline's compaction signal.
  std::size_t overlay_size() const { return overlay_.size(); }

  /// O(1) lookup by apex name (one hash probe, first row wins on a
  /// duplicate name); nullopt when absent. The view borrows the snapshot
  /// (table or overlay record) — valid as long as this snapshot is held.
  std::optional<core::DomainTable::RecordView> find_domain(
      std::string_view name) const;

  // --- JSON renderers (deterministic; the oracle contract) ---------------

  /// Rendering for /v1/domain/<name> given a record — public and static
  /// so tests can compute the expected body straight from the dataset.
  /// Both the table-view and the materialized-record shape render
  /// identically (same fields, same formatting).
  static std::string render_domain_json(const core::DomainTable::RecordView& record,
                                        std::uint64_t generation);
  static std::string render_domain_json(const core::DomainRecord& record,
                                        std::uint64_t generation);

  /// /v1/ip/<addr>: every covering announced prefix with its origin ASes
  /// and their RFC 6811 outcome against this snapshot's VRPs.
  std::string ip_json(const net::IpAddress& address) const;

  /// /v1/prefix/<p>/<asn>: the RFC 6811 outcome for one pair.
  std::string prefix_json(const net::Prefix& prefix, net::Asn origin) const;

  /// /v1/summary: rank-bin aggregates, prebuilt at snapshot construction.
  const std::string& summary_json() const { return summary_json_; }

  /// RFC 6811 validation against this snapshot's VRP index (the oracle
  /// tests compare service answers against).
  rpki::OriginValidity validate(const net::Prefix& prefix,
                                net::Asn origin) const {
    return vrps_->validate(prefix, origin);
  }
  std::size_t vrp_count() const { return vrps_->size(); }

 private:
  Snapshot() = default;

  /// The fixed-row SoA table: owned by a full build, borrowed from the
  /// parent full build by a delta snapshot.
  const core::DomainTable& table() const {
    return base_ ? base_->domains_ : domains_;
  }
  /// View over an overlay record, shaped exactly like a table view so
  /// both render through the same code path.
  static core::DomainTable::RecordView record_view(const core::DomainRecord& record);

  std::uint64_t generation_ = 0;
  std::uint64_t parent_generation_ = 0;
  bool delta_applied_ = false;
  std::uint64_t rank_space_ = 0;
  /// Full-build state; empty for delta snapshots (which use base_).
  core::DomainTable domains_;
  /// The full snapshot whose table and name index this delta borrows;
  /// null for full builds. Never another delta (chains are flattened).
  std::shared_ptr<const Snapshot> base_;
  /// Re-swept rows materialized from the master dataset, keyed by row
  /// index. unordered_map nodes are address-stable, so RecordViews can
  /// borrow the records across rehashes.
  std::unordered_map<std::uint32_t, core::DomainRecord> overlay_;
  /// Name -> row index over the table. Shared across the generation
  /// chain (names never change).
  std::shared_ptr<const util::NameIndex> by_name_;
  /// Announced routes: origin ASes per prefix (AS_SET-terminated paths
  /// excluded, mirroring methodology step 3). Shared with the parent
  /// when the tick carried no RIB delta.
  std::shared_ptr<const trie::PrefixTrie<std::vector<net::Asn>>> routes_;
  /// Shared with the parent when the tick carried no VRP delta.
  std::shared_ptr<const rpki::VrpIndex> vrps_;
  std::string summary_json_;
};

}  // namespace ripki::serve
