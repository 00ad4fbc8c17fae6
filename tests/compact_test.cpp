// The compact core data layout behind the million-domain sweep:
//  - util::Arena (bump-pointer string storage)
//  - core::DomainTable (SoA columns and flat pools behind AoS-shaped views)
//  - util::NameIndex (open-addressed name -> row index over those pools)
//  - trie::PrefixTrie<V>::Frozen (array-mapped covering walks) and the
//    RIB's choice between the frozen image and the pointer walk
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bgp/as_path.hpp"
#include "bgp/rib.hpp"
#include "core/dataset.hpp"
#include "core/pipeline.hpp"
#include "net/prefix.hpp"
#include "trie/prefix_trie.hpp"
#include "util/arena.hpp"
#include "util/name_index.hpp"
#include "util/prng.hpp"
#include "web/ecosystem.hpp"

namespace ripki {
namespace {

net::Prefix P(const std::string& text) { return net::Prefix::parse(text).value(); }

// --- arena -------------------------------------------------------------------

TEST(Arena, StoreKeepsViewsStableAcrossBlockGrowth) {
  util::Arena arena(/*block_size=*/64);  // tiny blocks force growth
  std::vector<std::string_view> views;
  std::vector<std::string> originals;
  for (int i = 0; i < 200; ++i) {
    originals.push_back("string-number-" + std::to_string(i));
    views.push_back(arena.store(originals.back()));
  }
  EXPECT_GT(arena.block_count(), 1u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i], originals[i]);
  }
}

TEST(Arena, OversizedAllocationGetsDedicatedBlock) {
  util::Arena arena(/*block_size=*/32);
  const std::string big(1000, 'x');
  const std::string_view view = arena.store(big);
  EXPECT_EQ(view, big);
  EXPECT_GE(arena.bytes_used(), big.size());
}

// --- DomainTable: SoA storage behind AoS views --------------------------------

core::DomainRecord make_record(std::uint64_t rank, const std::string& name) {
  core::DomainRecord record;
  record.rank = rank;
  record.name = name;
  record.dnssec_signed = (rank % 2) == 0;
  record.www.resolved = true;
  record.www.address_count = 3;
  record.www.cname_hops = 2;
  record.www.terminal_cname = "edge-" + std::to_string(rank % 5) + ".cdn.example";
  record.www.pairs.push_back(core::PrefixAsPair{
      P("10.0.0.0/8"), net::Asn(64500), rpki::OriginValidity::kValid});
  record.www.pairs.push_back(core::PrefixAsPair{
      P("10.1.0.0/16"), net::Asn(64501), rpki::OriginValidity::kNotFound});
  record.apex.resolved = rank % 3 != 0;
  if (record.apex.resolved) {
    record.apex.address_count = 1;
    record.apex.pairs.push_back(core::PrefixAsPair{
        P("192.0.2.0/24"), net::Asn(64502), rpki::OriginValidity::kInvalid});
  }
  return record;
}

TEST(DomainTable, ViewsRoundTripAppendedRecords) {
  core::DomainTable table;
  std::vector<core::DomainRecord> originals;
  for (std::uint64_t rank = 1; rank <= 50; ++rank) {
    originals.push_back(make_record(rank, "site" + std::to_string(rank) + ".example"));
    table.append(originals.back());
  }
  ASSERT_EQ(table.size(), originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i) {
    const auto view = table[i];
    // View equality against the AoS record, field accessors, and a full
    // materialized round trip must all agree.
    EXPECT_TRUE(view == originals[i]) << "row " << i;
    EXPECT_EQ(view.name, originals[i].name);
    EXPECT_EQ(view.rank, originals[i].rank);
    EXPECT_EQ(view.www.terminal_cname, originals[i].www.terminal_cname);
    EXPECT_EQ(view.www.coverage(), originals[i].www.coverage());
    EXPECT_EQ(view.primary().to_result(), originals[i].primary());
    EXPECT_EQ(table.record(i), originals[i]);
  }
}

TEST(DomainTable, IterationMatchesIndexing) {
  core::DomainTable table;
  for (std::uint64_t rank = 1; rank <= 10; ++rank) {
    table.append(make_record(rank, "iter" + std::to_string(rank) + ".example"));
  }
  std::size_t i = 0;
  for (const auto view : table) {
    EXPECT_TRUE(view == table.record(i)) << i;
    ++i;
  }
  EXPECT_EQ(i, table.size());
}

TEST(DomainTable, AppendTableReproducesSerialOrder) {
  // The parallel sweep's merge contract: appending per-shard fragments in
  // shard order must equal one table built by appending rows directly.
  core::DomainTable direct;
  core::DomainTable fragment_a;
  core::DomainTable fragment_b;
  for (std::uint64_t rank = 1; rank <= 40; ++rank) {
    const auto record = make_record(rank, "m" + std::to_string(rank) + ".example");
    direct.append(record);
    (rank <= 23 ? fragment_a : fragment_b).append(record);
  }
  core::DomainTable merged;
  merged.append_table(fragment_a);
  merged.append_table(fragment_b);
  EXPECT_TRUE(merged == direct);
  EXPECT_EQ(merged.pair_count(), direct.pair_count());
  EXPECT_GT(merged.memory_bytes(), 0u);
}

TEST(DomainTable, EqualityIsLogicalNotIdBased) {
  // Equality compares rows by value, never pool offsets.
  const auto r1 = make_record(1, "one.example");
  const auto r2 = make_record(2, "two.example");
  core::DomainTable a;
  a.append(r1);
  a.append(r2);
  core::DomainTable b;
  b.append(r1);
  b.append(r2);
  EXPECT_TRUE(a == b);
  core::DomainTable c;
  c.append(r2);
  c.append(r1);
  EXPECT_FALSE(a == c);  // order matters
}

/// A record whose terminal CNAMEs vary in length with `rank` (0 to ~40
/// chars), so every fragment's char pool has a different size.
core::DomainRecord make_ragged_record(std::uint64_t rank) {
  auto record = make_record(rank, "r" + std::to_string(rank * 7919) + ".example");
  record.www.terminal_cname =
      rank % 4 == 0 ? ""
                    : std::string(rank % 29, 'e') + "." + std::to_string(rank) +
                          ".cdn.example";
  record.apex.terminal_cname = rank % 3 == 0 ? "a" + std::to_string(rank) : "";
  return record;
}

TEST(DomainTable, AppendTableRebasesRaggedNameAndCnameOffsets) {
  core::DomainTable direct;
  std::vector<core::DomainTable> fragments(5);
  std::vector<core::DomainRecord> originals;
  for (std::uint64_t rank = 1; rank <= 97; ++rank) {
    originals.push_back(make_ragged_record(rank));
    direct.append(originals.back());
    fragments[(rank * 5) / 98].append(originals.back());  // uneven cuts
  }
  core::DomainTable merged;
  merged.append_table(core::DomainTable());  // empty fragments are no-ops
  for (const auto& fragment : fragments) merged.append_table(fragment);

  ASSERT_EQ(merged.size(), originals.size());
  EXPECT_EQ(merged.char_count(), direct.char_count());
  EXPECT_EQ(merged.pair_count(), direct.pair_count());
  for (std::size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(merged.name(i), originals[i].name) << i;
    EXPECT_EQ(merged[i].www.terminal_cname, originals[i].www.terminal_cname) << i;
    EXPECT_EQ(merged[i].apex.terminal_cname, originals[i].apex.terminal_cname) << i;
    EXPECT_TRUE(merged[i] == originals[i]) << i;
  }
  EXPECT_TRUE(merged == direct);
}

TEST(DomainTable, SetRowRelocatesLongerCnameAndKeepsOtherRows) {
  core::DomainTable table;
  std::vector<core::DomainRecord> expected;
  for (std::uint64_t rank = 1; rank <= 30; ++rank) {
    expected.push_back(make_ragged_record(rank));
    table.append(expected.back());
  }
  const auto set = [&](std::size_t row, const core::DomainRecord& record) {
    table.set_row(row, record.excluded_dns, record.dnssec_signed, record.www,
                  record.apex);
    expected[row] = record;
  };

  // Longer CNAME (and an extra pair): both relocate to the end of the pools.
  const std::size_t chars_before = table.char_count();
  auto longer = expected[10];
  longer.www.terminal_cname += ".much.longer.relocated.example";
  longer.apex.terminal_cname = "now-a-cname.example";
  longer.www.pairs.push_back(core::PrefixAsPair{
      P("203.0.113.0/24"), net::Asn(64510), rpki::OriginValidity::kValid});
  set(10, longer);
  EXPECT_EQ(table.char_count(), chars_before + longer.www.terminal_cname.size() +
                                    longer.apex.terminal_cname.size());

  // Shorter or empty CNAMEs reuse their slots: the pool does not grow.
  const std::size_t chars_after = table.char_count();
  auto shorter = expected[8];
  shorter.www.terminal_cname = "s.example";
  shorter.apex.terminal_cname.clear();
  set(8, shorter);
  auto shrunk = expected[10];
  shrunk.www.terminal_cname = "x";
  set(10, shrunk);
  EXPECT_EQ(table.char_count(), chars_after);

  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(table.name(i), expected[i].name) << i;
    EXPECT_TRUE(table[i] == expected[i]) << i;
  }
}

TEST(DomainTable, CopyAndAssignmentAreEqualAndIndependent) {
  core::DomainTable table;
  for (std::uint64_t rank = 1; rank <= 20; ++rank) {
    table.append(make_ragged_record(rank));
  }
  auto relocated = make_ragged_record(5);
  relocated.www.terminal_cname = std::string(80, 'z') + ".example";
  table.set_row(4, relocated.excluded_dns, relocated.dnssec_signed,
                relocated.www, relocated.apex);  // leaves a gap in the pool

  const core::DomainTable copy(table);
  EXPECT_TRUE(copy == table);
  EXPECT_EQ(copy.char_count(), table.char_count());

  core::DomainTable assigned;
  assigned.append(make_ragged_record(99));  // overwritten, not appended to
  assigned = table;
  EXPECT_TRUE(assigned == table);
  ASSERT_EQ(assigned.size(), table.size());
  EXPECT_EQ(assigned[4].www.terminal_cname, relocated.www.terminal_cname);

  const core::DomainTable& self = assigned;
  assigned = self;
  EXPECT_TRUE(assigned == table);

  // The copies own their pools: rewriting the source leaves them intact.
  auto changed = make_ragged_record(1);
  changed.www.terminal_cname = std::string(120, 'q');
  table.set_row(0, changed.excluded_dns, changed.dnssec_signed, changed.www,
                changed.apex);
  EXPECT_FALSE(copy == table);
  EXPECT_TRUE(copy == assigned);
  EXPECT_EQ(copy[0].www.terminal_cname, make_ragged_record(1).www.terminal_cname);
}

// --- NameIndex ----------------------------------------------------------------

/// Every name hashes alike: all entries share one probe run.
struct CollidingHash {
  std::size_t operator()(std::string_view) const { return 0x5eed00000007u; }
};

TEST(NameIndex, EmptyIndexFindsNothing) {
  const auto none = [](std::uint32_t) -> std::string_view {
    ADD_FAILURE() << "an empty index must not read names";
    return {};
  };
  const util::NameIndex index;
  EXPECT_EQ(index.find("anything.example", none), util::NameIndex::kAbsent);
  EXPECT_EQ(index.find("", none), util::NameIndex::kAbsent);
  const util::NameIndex built(0, none);
  EXPECT_EQ(built.slot_count(), 0u);
  EXPECT_EQ(built.find("anything.example", none), util::NameIndex::kAbsent);
}

TEST(NameIndex, FindsEveryRowAndNoAbsentName) {
  std::vector<std::string> names;
  for (int i = 0; i < 5'000; ++i) {
    names.push_back("domain-" + std::to_string(i) + ".example");
  }
  const auto name_of = [&](std::uint32_t row) -> std::string_view {
    return names[row];
  };
  const util::NameIndex index(names.size(), name_of);
  EXPECT_GE(index.slot_count(), 2 * names.size());
  EXPECT_EQ(index.slot_count() & (index.slot_count() - 1), 0u);
  for (std::uint32_t row = 0; row < names.size(); ++row) {
    ASSERT_EQ(index.find(names[row], name_of), row);
  }
  for (const char* absent : {"", "domain-5000.example", "domain-1.exampl",
                             "domain-1.example.", "DOMAIN-1.example",
                             "omain-1.example"}) {
    EXPECT_EQ(index.find(absent, name_of), util::NameIndex::kAbsent) << absent;
  }
}

TEST(NameIndex, ForcedCollisionsStillResolve) {
  std::vector<std::string> names;
  for (int i = 0; i < 300; ++i) names.push_back("c" + std::to_string(i));
  const auto name_of = [&](std::uint32_t row) -> std::string_view {
    return names[row];
  };
  const util::BasicNameIndex<CollidingHash> index(names.size(), name_of);
  for (std::uint32_t row = 0; row < names.size(); ++row) {
    ASSERT_EQ(index.find(names[row], name_of), row);
  }
  EXPECT_EQ(index.find("c300", name_of), util::NameIndex::kAbsent);
  EXPECT_EQ(index.find("", name_of), util::NameIndex::kAbsent);
}

TEST(NameIndex, FirstRowWinsOnDuplicates) {
  const std::vector<std::string> names = {"b", "dup", "a", "dup", "b", "dup"};
  const auto name_of = [&](std::uint32_t row) -> std::string_view {
    return names[row];
  };
  const util::NameIndex index(names.size(), name_of);
  EXPECT_EQ(index.find("b", name_of), 0u);
  EXPECT_EQ(index.find("dup", name_of), 1u);
  EXPECT_EQ(index.find("a", name_of), 2u);
  const util::BasicNameIndex<CollidingHash> colliding(names.size(), name_of);
  EXPECT_EQ(colliding.find("b", name_of), 0u);
  EXPECT_EQ(colliding.find("dup", name_of), 1u);
  EXPECT_EQ(colliding.find("a", name_of), 2u);
}

// --- frozen trie -------------------------------------------------------------

TEST(FrozenTrie, DeepestCoveringPathMatchesPointerWalk) {
  trie::PrefixTrie<int> trie;
  util::Prng prng(99);
  std::vector<net::Prefix> prefixes;
  for (int i = 0; i < 400; ++i) {
    const auto base = static_cast<std::uint32_t>(prng.next_u64());
    const int length = 8 + static_cast<int>(prng.next_u64() % 17);
    const auto prefix = net::Prefix(net::IpAddress::v4(base), length);
    trie.insert(prefix, i);
    prefixes.push_back(prefix);
  }
  const auto frozen = trie.freeze();
  EXPECT_GT(frozen.node_count(), 0u);
  EXPECT_LE(frozen.node_count(), 2 * trie.size() + 2);

  // Probe with addresses inside stored prefixes and fully random ones.
  for (int i = 0; i < 2'000; ++i) {
    net::IpAddress addr = net::IpAddress::v4(static_cast<std::uint32_t>(prng.next_u64()));
    if (i % 2 == 0) {
      addr = prefixes[static_cast<std::size_t>(i) % prefixes.size()].address();
    }
    const auto expected = trie.covering(addr);
    const auto node = frozen.deepest_covering(addr);
    const auto actual = frozen.path_matches(node);
    ASSERT_EQ(actual.size(), expected.size()) << addr.to_string();
    for (std::size_t m = 0; m < expected.size(); ++m) {
      EXPECT_EQ(actual[m].prefix, expected[m].prefix);
      EXPECT_EQ(*actual[m].value, *expected[m].value);
    }
  }
}

TEST(FrozenTrie, SameDeepestNodeMeansSameCoveringSet) {
  trie::PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 1);
  trie.insert(P("10.1.0.0/16"), 2);
  const auto frozen = trie.freeze();
  // Two different addresses under the same deepest prefix share the node.
  const auto a = frozen.deepest_covering(net::IpAddress::parse("10.1.2.3").value());
  const auto b = frozen.deepest_covering(net::IpAddress::parse("10.1.200.9").value());
  EXPECT_NE(a, frozen.kNoNode);
  EXPECT_EQ(a, b);
  const auto c = frozen.deepest_covering(net::IpAddress::parse("10.2.0.1").value());
  EXPECT_NE(a, c);  // /8 only
  EXPECT_EQ(frozen.deepest_covering(net::IpAddress::parse("192.0.2.1").value()),
            frozen.kNoNode);
}

// --- RIB covering: frozen image vs pointer walk ------------------------------

TEST(RibCovering, StaleImageFallsBackToPointerWalkUntilRefreeze) {
  bgp::Rib rib;
  rib.add(bgp::RibEntry{P("10.0.0.0/8"), bgp::AsPath::sequence({1, 64500}), 0, 0});
  rib.add(bgp::RibEntry{P("10.1.0.0/16"), bgp::AsPath::sequence({1, 64501}), 0, 0});
  rib.freeze();
  const auto addr = net::IpAddress::parse("10.1.2.3").value();
  ASSERT_EQ(rib.covering(addr).size(), 2u);

  // Withdrawn but not yet refrozen: the answer must already reflect it.
  const auto removed = rib.withdraw(P("10.1.0.0/16"));
  ASSERT_EQ(removed.size(), 1u);
  auto covering = rib.covering(addr);
  ASSERT_EQ(covering.size(), 1u);
  EXPECT_EQ(covering[0].prefix, P("10.0.0.0/8"));

  rib.announce(removed);
  EXPECT_EQ(rib.covering(addr).size(), 2u);
  rib.refreeze();
  covering = rib.covering(addr);
  ASSERT_EQ(covering.size(), 2u);
  EXPECT_EQ(covering[1].prefix, P("10.1.0.0/16"));
}

// --- downscaled million-domain identity rung ---------------------------------

TEST(MillionRungDownscaled, ParallelSweepIsByteIdenticalToSerial) {
  // CI-scaled stand-in for the 1M rung: the same contract — parallel
  // sweep output identical to serial, rank space stretched to 1M — at a
  // domain count the suite can afford.
  web::EcosystemConfig config;
  config.domain_count = 4'000;
  config.rank_space = 1'000'000;
  config.isp_count = 300;
  config.hoster_count = 80;
  config.enterprise_count = 300;
  config.transit_count = 40;
  const auto eco = web::Ecosystem::generate(config);

  core::MeasurementPipeline serial(*eco, core::PipelineConfig{});
  const core::Dataset baseline = serial.run();
  ASSERT_EQ(baseline.domains.size(), 4'000u);

  for (const std::size_t threads : {1u, 4u}) {
    core::PipelineConfig parallel_config;
    parallel_config.threads = threads;
    core::MeasurementPipeline parallel(*eco, parallel_config);
    const core::Dataset dataset = parallel.run();
    EXPECT_TRUE(dataset == baseline) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace ripki
