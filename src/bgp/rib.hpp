// Routing Information Base: the collector-view BGP table the measurement
// consumes (the stand-in for "dumps of the active tables of the RIPE RIS
// route servers", methodology step 3).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "bgp/as_path.hpp"
#include "net/prefix.hpp"
#include "trie/prefix_trie.hpp"

namespace ripki::bgp {

/// One table entry as seen from one collector peer.
struct RibEntry {
  net::Prefix prefix;
  AsPath as_path;
  std::uint16_t peer_index = 0;
  std::uint32_t originated_at = 0;  // seconds since epoch

  /// Origin AS (right-most ASN); nullopt when the path ends in an AS_SET.
  std::optional<net::Asn> origin() const { return as_path.origin(); }

  bool operator==(const RibEntry&) const = default;
};

/// Identity of a collector peer (PEER_INDEX_TABLE row).
struct PeerEntry {
  std::uint32_t bgp_id = 0;
  net::IpAddress address;
  net::Asn asn;

  bool operator==(const PeerEntry&) const = default;
};

class Rib {
 public:
  void add_peer(const PeerEntry& peer) { peers_.push_back(peer); }
  const std::vector<PeerEntry>& peers() const { return peers_; }

  void add(RibEntry entry);

  /// All entries stored for exactly `prefix`.
  const std::vector<RibEntry>* entries_for(const net::Prefix& prefix) const;

  /// All (covering prefix, entries) pairs for `addr`, shortest prefix
  /// first — methodology step 3 extracts *all* covering prefixes. Walks
  /// the frozen image when it is current and the pointer trie otherwise
  /// (never frozen, or withdraw/announce since the last (re)freeze).
  struct CoveringResult {
    net::Prefix prefix;
    const std::vector<RibEntry>* entries;
  };
  std::vector<CoveringResult> covering(const net::IpAddress& addr) const;
  /// covering() appending into `out` — the sweep kernel reuses one vector.
  void covering(const net::IpAddress& addr, std::vector<CoveringResult>& out) const;

  /// Builds the compact array-mapped image of the trie (see
  /// trie::PrefixTrie::Frozen). Call once after the table is fully
  /// loaded; add() afterwards is a usage error (asserted). Idempotent.
  void freeze();
  bool frozen() const { return frozen_built_; }

  // --- Incremental delta application (ripki::delta) ----------------------
  //
  // Unlike add(), these are legal on a frozen table: they mark the frozen
  // image stale (covering() falls back to the pointer walk) until
  // refreeze() rebuilds it.

  /// Removes every entry announced for `prefix`, returning the removed
  /// list (empty when the prefix was not in the table) so a later
  /// announce() can restore exactly what was withdrawn.
  std::vector<RibEntry> withdraw(const net::Prefix& prefix);

  /// Re-announces entries (same semantics as add(), but allowed after
  /// freeze(); the frozen image goes stale until refreeze()).
  void announce(std::vector<RibEntry> entries);

  /// Rebuilds the frozen image after withdraw()/announce(). No-op when
  /// the table was never frozen.
  void refreeze();

  /// Distinct origin ASes announced for `prefix` across all peers,
  /// excluding AS_SET-terminated paths.
  std::set<net::Asn> origins_for(const net::Prefix& prefix) const;

  /// Visits every (prefix, entries) pair.
  void visit(const std::function<void(const net::Prefix&,
                                      const std::vector<RibEntry>&)>& fn) const;

  std::size_t prefix_count() const { return trie_.size(); }
  std::size_t entry_count() const { return entry_count_; }

  /// Deep content equality: same peers and the same entry lists per prefix
  /// in visit order. Backs the parallel-parse == serial-parse assertions.
  bool operator==(const Rib& other) const;

 private:
  trie::PrefixTrie<std::vector<RibEntry>> trie_;
  trie::PrefixTrie<std::vector<RibEntry>>::Frozen frozen_;
  bool frozen_built_ = false;
  bool frozen_stale_ = false;  // withdraw/announce since the last (re)freeze
  std::vector<PeerEntry> peers_;
  std::size_t entry_count_ = 0;
};

}  // namespace ripki::bgp
