// The pipeline's output data model: one record per Alexa-style domain,
// annotated with the resolved hosting footprint and RPKI validation
// outcome of every (prefix, origin AS) pair — "a comprehensive list of all
// Alexa websites that (i) can be resolved ... (ii) mapped to an IP prefix
// AS pair ... (iii) annotated with RPKI origin validation outcome" (§3).
//
// Storage is a flat structure-of-arrays (DomainTable): parallel columns of
// ranks and packed flags, one char pool holding every name and terminal
// CNAME, and one CSR pool of prefix-AS pairs. At the paper's real N (1M
// domains) this keeps the whole dataset in a few hundred MB of contiguous
// memory instead of a million heap-fragmented AoS records. Readers get
// cheap AoS-shaped views (DomainTable::RecordView / VariantView);
// DomainRecord remains as the materialized exchange struct for code that
// wants to own a record.
#pragma once

#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/asn.hpp"
#include "net/prefix.hpp"
#include "rpki/origin_validation.hpp"

namespace ripki::obs {
class Registry;
}

namespace ripki::core {

/// One (covering prefix, origin AS) pair with its RFC 6811 outcome.
struct PrefixAsPair {
  net::Prefix prefix;
  net::Asn origin;
  rpki::OriginValidity validity = rpki::OriginValidity::kNotFound;

  /// "Covered by the RPKI" in the paper's sense: a ROA exists for the
  /// prefix, whether the announcement validates or not.
  bool rpki_covered() const { return validity != rpki::OriginValidity::kNotFound; }

  bool operator==(const PrefixAsPair&) const = default;
};

/// Coverage fraction over a pair span — shared by the owning and the
/// viewing variant representations so they cannot drift apart.
double pairs_coverage(std::span<const PrefixAsPair> pairs);
double pairs_fraction(std::span<const PrefixAsPair> pairs,
                      rpki::OriginValidity validity);

/// Measurement result for one name variant (www.<d> or <d>) — the
/// materialized (owning) form; the sweep builds these as scratch and the
/// table offers them back via DomainTable::record().
struct VariantResult {
  bool resolved = false;            // usable addresses after filtering
  std::uint16_t address_count = 0;  // addresses kept
  std::uint16_t special_purpose_excluded = 0;
  std::uint16_t unrouted_addresses = 0;  // no covering BGP prefix
  std::uint8_t cname_hops = 0;           // CNAME indirections observed
  /// Final CNAME target (empty when resolved directly); feeds the
  /// HTTPArchive-style pattern classifier.
  std::string terminal_cname;
  /// Deduplicated prefix-AS pairs with validation outcome.
  std::vector<PrefixAsPair> pairs;

  /// Fraction of pairs covered by the RPKI — the per-domain "coverage
  /// probability" of §4 ("e.g. 3/5 or 60% RPKI coverage of foo.bar").
  double coverage() const { return pairs_coverage(pairs); }
  double fraction(rpki::OriginValidity validity) const {
    return pairs_fraction(pairs, validity);
  }

  /// Resets to the default state without releasing capacity — the sweep
  /// reuses one instance per worker as scratch.
  void reset();

  bool operator==(const VariantResult&) const = default;
};

/// Sorts `pairs` by (prefix, origin) and drops duplicates — a domain with
/// several addresses inside one announced prefix yields the pair once
/// (methodology step 3). Validity is ignored by the key: dedup runs
/// before stage 4 assigns it.
void dedupe_pairs(std::vector<PrefixAsPair>& pairs);

struct DomainRecord {
  std::uint32_t rank = 0;
  std::string name;  // apex
  bool excluded_dns = false;  // every answer was special-purpose garbage
  /// Zone publishes a DNSKEY (the DNSSEC-adoption probe of the paper's
  /// future-work comparison).
  bool dnssec_signed = false;
  VariantResult www;
  VariantResult apex;

  /// The variant the per-domain analyses use (www when it resolved,
  /// mirroring the paper's headline www dataset).
  const VariantResult& primary() const { return www.resolved ? www : apex; }

  bool operator==(const DomainRecord&) const = default;
};

/// Flat SoA storage for domain records: parallel fixed-width columns plus
/// two CSR pools — chars for apex names and terminal CNAMEs, pairs for the
/// prefix-AS lists — each cell addressing its pool by a (begin, count)
/// slot. Appends are single-threaded by design; the parallel sweep
/// appends into per-shard tables and merges them in shard order
/// (append_table), which reproduces the serial table exactly, both pools
/// included. Copies are member-wise.
class DomainTable {
 public:
  /// Cheap view of one variant: scalars by value, strings and pairs as
  /// views into the table. Field names mirror VariantResult so reader
  /// code is shape-compatible with the old AoS records.
  struct VariantView {
    bool resolved = false;
    std::uint16_t address_count = 0;
    std::uint16_t special_purpose_excluded = 0;
    std::uint16_t unrouted_addresses = 0;
    std::uint8_t cname_hops = 0;
    std::string_view terminal_cname;
    std::span<const PrefixAsPair> pairs;

    double coverage() const { return pairs_coverage(pairs); }
    double fraction(rpki::OriginValidity validity) const {
      return pairs_fraction(pairs, validity);
    }

    /// Materializes an owning copy.
    VariantResult to_result() const;

    bool operator==(const VariantView& other) const;
    bool operator==(const VariantResult& other) const;
  };

  /// Cheap view of one record (no ownership; valid while the table
  /// lives and is not mutated — an append or set_row may move the pools
  /// and invalidate every outstanding view, names included).
  struct RecordView {
    std::uint32_t rank = 0;
    std::string_view name;
    bool excluded_dns = false;
    bool dnssec_signed = false;
    VariantView www;
    VariantView apex;

    const VariantView& primary() const { return www.resolved ? www : apex; }

    /// Materializes an owning DomainRecord.
    DomainRecord to_record() const;

    bool operator==(const RecordView& other) const;
    bool operator==(const DomainRecord& other) const;
  };

  std::size_t size() const { return rank_.size(); }
  bool empty() const { return rank_.empty(); }
  /// Pool sizes, slots leaked by set_row included.
  std::size_t pair_count() const { return pairs_.size(); }
  std::size_t char_count() const { return chars_.size(); }

  void reserve(std::size_t rows, std::size_t pairs_hint = 0,
               std::size_t chars_hint = 0);
  void clear();

  /// Appends one record (field-by-field copy into the columns).
  void append(const DomainRecord& record);

  /// Append without materializing a DomainRecord — the sweep's hot path.
  /// `name` must not view into this table (the append may move the pool).
  void append(std::uint32_t rank, std::string_view name, bool excluded_dns,
              bool dnssec_signed, const VariantResult& www,
              const VariantResult& apex);

  /// Appends every row of `other`: column inserts plus both pools, with
  /// `other`'s slots rebased onto the end of this table's pools. Fragments
  /// merged in shard order yield a table identical to serial row-by-row
  /// appends.
  void append_table(const DomainTable& other);

  /// Rewrites an existing row in place (rank and name are immutable; the
  /// incremental pipeline's row set is fixed). Pair lists and terminal
  /// CNAMEs reuse their pool slots when the new value fits, and otherwise
  /// relocate to the end of the pool — the old slots leak until the next
  /// full rebuild, which is the compaction trigger the delta path already
  /// tracks.
  void set_row(std::size_t index, bool excluded_dns, bool dnssec_signed,
               const VariantResult& www, const VariantResult& apex);

  RecordView view(std::size_t index) const;
  RecordView operator[](std::size_t index) const { return view(index); }
  DomainRecord record(std::size_t index) const { return view(index).to_record(); }

  std::uint32_t rank(std::size_t index) const { return rank_[index]; }
  std::string_view name(std::size_t index) const { return text(name_[index]); }

  /// Approximate resident footprint of the columns + pools, for the
  /// bench's memory reporting.
  std::size_t memory_bytes() const;

  /// Row-wise logical equality (names and pairs compared by value, so
  /// tables whose pools differ by leaked set_row slots still compare
  /// equal).
  bool operator==(const DomainTable& other) const;

  /// Forward iterator yielding RecordView by value — lets range-for code
  /// keep the `for (const auto& record : ...)` shape it had over the AoS
  /// vector.
  class Iterator {
   public:
    using value_type = RecordView;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    Iterator() = default;
    Iterator(const DomainTable* table, std::size_t index)
        : table_(table), index_(index) {}

    RecordView operator*() const { return table_->view(index_); }
    Iterator& operator++() { ++index_; return *this; }
    Iterator operator++(int) { Iterator tmp = *this; ++index_; return tmp; }
    bool operator==(const Iterator&) const = default;

   private:
    const DomainTable* table_ = nullptr;
    std::size_t index_ = 0;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

 private:
  /// [begin, begin + count) in one of the pools.
  struct Slot {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };

  /// Per-variant columns; the terminal CNAME is a slot in chars_ (count 0
  /// when the variant resolved directly), the pair list one in pairs_.
  struct VariantColumns {
    std::vector<std::uint16_t> address_count;
    std::vector<std::uint16_t> special_excluded;
    std::vector<std::uint16_t> unrouted;
    std::vector<std::uint8_t> cname_hops;
    std::vector<Slot> terminal_cname;
    std::vector<Slot> pairs;

    void reserve(std::size_t rows);
    void clear();
    std::size_t memory_bytes() const;
  };

  static constexpr std::uint8_t kWwwResolved = 1 << 0;
  static constexpr std::uint8_t kApexResolved = 1 << 1;
  static constexpr std::uint8_t kExcludedDns = 1 << 2;
  static constexpr std::uint8_t kDnssecSigned = 1 << 3;

  std::string_view text(Slot slot) const {
    return std::string_view(chars_.data() + slot.begin, slot.count);
  }
  Slot append_text(std::string_view text);
  void append_variant(VariantColumns& columns, const VariantResult& variant);
  void set_variant(VariantColumns& columns, std::size_t index,
                   const VariantResult& variant);
  VariantView variant_view(const VariantColumns& columns, std::size_t index,
                           bool resolved) const;

  std::vector<std::uint32_t> rank_;
  std::vector<Slot> name_;
  std::vector<std::uint8_t> flags_;
  VariantColumns www_;
  VariantColumns apex_;
  std::vector<PrefixAsPair> pairs_;
  std::vector<char> chars_;
};

struct PipelineCounters {
  std::uint64_t domains_total = 0;
  std::uint64_t domains_excluded_dns = 0;
  std::uint64_t dns_queries = 0;
  std::uint64_t addresses_www = 0;
  std::uint64_t addresses_apex = 0;
  std::uint64_t special_purpose_excluded = 0;
  std::uint64_t unrouted_addresses = 0;
  std::uint64_t pairs_www = 0;
  std::uint64_t pairs_apex = 0;
  std::uint64_t as_set_entries_excluded = 0;
  std::uint64_t dnssec_signed_domains = 0;

  /// The single enumeration point for these counters: CSV export and
  /// obs::Registry publication both iterate this list, so adding a field
  /// here is the only change needed to surface it everywhere.
  template <typename Fn>
  void for_each_field(Fn&& fn) const {
    fn("domains_total", domains_total);
    fn("domains_excluded_dns", domains_excluded_dns);
    fn("dns_queries", dns_queries);
    fn("addresses_www", addresses_www);
    fn("addresses_apex", addresses_apex);
    fn("special_purpose_excluded", special_purpose_excluded);
    fn("unrouted_addresses", unrouted_addresses);
    fn("pairs_www", pairs_www);
    fn("pairs_apex", pairs_apex);
    fn("as_set_entries_excluded", as_set_entries_excluded);
    fn("dnssec_signed_domains", dnssec_signed_domains);
  }

  /// Mutable visitation over the same field list (derived from the const
  /// overload so the enumeration cannot diverge).
  template <typename Fn>
  void for_each_field(Fn&& fn) {
    std::as_const(*this).for_each_field(
        [&](const char* name, const std::uint64_t& value) {
          fn(name, const_cast<std::uint64_t&>(value));
        });
  }

  /// Adds every field of `other` into this — how the parallel sweep folds
  /// per-worker counters into the dataset at join.
  void merge(const PipelineCounters& other);

  /// Publishes every field as `ripki.pipeline.<field>` in `registry`.
  void publish(obs::Registry& registry) const;

  bool operator==(const PipelineCounters&) const = default;
};

struct Dataset {
  DomainTable domains;
  PipelineCounters counters;
  std::uint64_t rank_space = 0;  // rank axis upper bound (Alexa: 1M)

  std::size_t size() const { return domains.size(); }
  DomainTable::RecordView operator[](std::size_t index) const {
    return domains.view(index);
  }
  /// Range-for over cheap AoS views:
  /// `for (const auto& record : dataset.rows()) ...`
  const DomainTable& rows() const { return domains; }
  DomainRecord record(std::size_t index) const { return domains.record(index); }

  /// Record-for-record equality, counters included — the determinism
  /// contract between serial and sharded parallel runs.
  bool operator==(const Dataset&) const = default;
};

}  // namespace ripki::core
