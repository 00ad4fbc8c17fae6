// The incremental pipeline end to end: deterministic churn generation,
// the mutable world (overlay zone, withdraw/announce RIB, RTR-synced
// VRPs), dirty-set invalidation, snapshot delta application — and the
// subsystem's correctness gate: on every tick of a randomized churn
// sequence the delta-applied snapshot must render byte-identically to a
// from-scratch full rebuild across all /v1/* endpoints. Delta and oracle
// share one measurement kernel, so the independent check of that kernel
// is the batch MeasurementPipeline: same world, same Dataset.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "delta/churn.hpp"
#include "delta/pipeline.hpp"
#include "serve/snapshot.hpp"
#include "web/ecosystem.hpp"

namespace ripki::delta {
namespace {

constexpr std::uint32_t kVictimFallback = 0xFFFFFFFFu;

web::EcosystemConfig small_config() {
  web::EcosystemConfig config;
  config.seed = 11;
  config.domain_count = 1'200;
  config.rank_space = 100'000;
  config.isp_count = 150;
  config.hoster_count = 60;
  config.enterprise_count = 200;
  config.transit_count = 30;
  return config;
}

/// One generated ecosystem shared by every pipeline test (the expensive
/// part); each test builds its own IncrementalPipeline over it.
class DeltaPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { eco_ = web::Ecosystem::generate(small_config()).release(); }
  static void TearDownTestSuite() {
    delete eco_;
    eco_ = nullptr;
  }

  static web::Ecosystem* eco_;
};

web::Ecosystem* DeltaPipelineTest::eco_ = nullptr;

// --- churn generator ---------------------------------------------------------

ChurnUniverse toy_universe() {
  ChurnUniverse universe;
  universe.domain_count = 500;
  for (int i = 0; i < 8; ++i) {
    auto p = net::Prefix::parse("10." + std::to_string(i) + ".0.0/16");
    EXPECT_TRUE(p.ok());
    universe.announced_prefixes.push_back(p.value());
    rpki::Vrp vrp{p.value(), 24, net::Asn(65000 + i)};
    if (i < 4) {
      universe.initial_vrps.push_back(vrp);
    } else {
      universe.candidate_vrps.push_back(vrp);
    }
  }
  return universe;
}

TEST(TickGenerator, DeterministicReplay) {
  ChurnConfig config;
  config.seed = 77;
  TickGenerator a(config, toy_universe());
  TickGenerator b(config, toy_universe());
  for (int i = 0; i < 50; ++i) {
    const Tick ta = a.next();
    const Tick tb = b.next();
    EXPECT_EQ(ta, tb) << "tick " << i;
    EXPECT_EQ(ta.number, static_cast<std::uint64_t>(i + 1));
    EXPECT_GE(ta.domain_adds.size() + ta.domain_removes.size() +
                  ta.cname_retargets.size(),
              1u);
  }
  EXPECT_EQ(a.ticks_generated(), 50u);
}

TEST(TickGenerator, SeedChangesTheTrace) {
  ChurnConfig a_config;
  a_config.seed = 1;
  ChurnConfig b_config;
  b_config.seed = 2;
  TickGenerator a(a_config, toy_universe());
  TickGenerator b(b_config, toy_universe());
  bool diverged = false;
  for (int i = 0; i < 10 && !diverged; ++i) {
    diverged = !(a.next() == b.next());
  }
  EXPECT_TRUE(diverged);
}

TEST(TickGenerator, NeverEmitsConflictingEvents) {
  ChurnConfig config;
  config.seed = 5;
  config.domain_churn_fraction = 0.05;
  config.prefix_withdraws_per_tick = 2;
  config.prefix_announces_per_tick = 2;
  const ChurnUniverse universe = toy_universe();
  TickGenerator gen(config, universe);

  std::set<net::Prefix> announced(universe.announced_prefixes.begin(),
                                  universe.announced_prefixes.end());
  std::set<rpki::Vrp> live(universe.initial_vrps.begin(),
                           universe.initial_vrps.end());
  std::vector<char> active(500, 1);
  for (std::uint32_t row : initial_inactive_rows(config, 500)) active[row] = 0;

  for (int i = 0; i < 120; ++i) {
    const Tick tick = gen.next();
    for (std::uint32_t row : tick.domain_removes) {
      ASSERT_TRUE(active[row]) << "remove of inactive row " << row;
      active[row] = 0;
    }
    for (std::uint32_t row : tick.domain_adds) {
      ASSERT_FALSE(active[row]) << "add of active row " << row;
      active[row] = 1;
    }
    for (std::uint32_t row : tick.cname_retargets) {
      ASSERT_TRUE(active[row]) << "retarget of inactive row " << row;
    }
    for (const auto& prefix : tick.prefix_withdraws) {
      ASSERT_EQ(announced.erase(prefix), 1u) << "double withdraw";
    }
    for (const auto& prefix : tick.prefix_announces) {
      ASSERT_TRUE(announced.insert(prefix).second) << "double announce";
    }
    for (const auto& vrp : tick.roa_publishes) {
      ASSERT_TRUE(live.insert(vrp).second) << "publish of live VRP";
    }
    for (const auto& vrp : tick.roa_revokes) {
      ASSERT_EQ(live.erase(vrp), 1u) << "revoke of unpublished VRP";
    }
  }
}

TEST(TickGenerator, RoaEventsArriveWithModeledDelay) {
  ChurnConfig config;
  config.seed = 9;
  config.roa_publishes_per_tick = 2;
  config.roa_revokes_per_tick = 1;
  config.max_publication_delay_ticks = 3;
  TickGenerator gen(config, toy_universe());

  // The first tick can never carry a ROA event: every signing decision
  // publishes at least one tick later.
  const Tick first = gen.next();
  EXPECT_TRUE(first.roa_publishes.empty());
  EXPECT_TRUE(first.roa_revokes.empty());

  std::size_t published = 0;
  for (int i = 0; i < 20; ++i) published += gen.next().roa_publishes.size();
  EXPECT_GT(published, 0u);
  // The universe only offers four publish candidates; each is used once.
  EXPECT_LE(published, 4u);
}

TEST(InitialInactiveRows, PureFunctionOfConfigAndCount) {
  ChurnConfig config;
  config.seed = 13;
  config.initial_inactive_fraction = 0.10;
  const auto a = initial_inactive_rows(config, 400);
  const auto b = initial_inactive_rows(config, 400);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 40u);
  std::set<std::uint32_t> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), a.size());
  for (std::uint32_t row : a) EXPECT_LT(row, 400u);

  config.seed = 14;
  EXPECT_NE(initial_inactive_rows(config, 400), a);

  config.initial_inactive_fraction = 0.0;
  EXPECT_TRUE(initial_inactive_rows(config, 400).empty());
}

// --- pipeline world ----------------------------------------------------------

TEST_F(DeltaPipelineTest, InitPublishesGenerationOne) {
  DeltaConfig config;
  IncrementalPipeline pipeline(*eco_, config);
  pipeline.init();

  EXPECT_EQ(pipeline.generation(), 1u);
  EXPECT_EQ(pipeline.row_count(), eco_->domain_count());
  ASSERT_NE(pipeline.snapshot(), nullptr);
  EXPECT_EQ(pipeline.snapshot()->generation(), 1u);
  EXPECT_EQ(pipeline.snapshot()->parent_generation(), 0u);
  EXPECT_FALSE(pipeline.snapshot()->delta_applied());
  EXPECT_TRUE(pipeline.rtr_in_sync());

  const auto universe = pipeline.universe();
  EXPECT_EQ(universe.domain_count, eco_->domain_count());
  EXPECT_GT(universe.announced_prefixes.size(), 0u);
  EXPECT_GT(universe.initial_vrps.size(), 0u);
  EXPECT_GT(universe.candidate_vrps.size(), 0u);

  // Fresh init must already agree with its own oracle.
  const auto oracle = pipeline.full_rebuild();
  const auto report = pipeline.check_against(*oracle);
  EXPECT_TRUE(report.identical) << report.divergence;
}

TEST_F(DeltaPipelineTest, EmptyTickPublishesUnchangedGeneration) {
  DeltaConfig config;
  IncrementalPipeline pipeline(*eco_, config);
  pipeline.init();
  const std::string before = pipeline.snapshot()->summary_json();

  Tick tick;
  tick.number = 1;
  const TickStats stats = pipeline.apply_tick(tick);
  EXPECT_EQ(stats.dirty_rows, 0u);
  EXPECT_EQ(stats.changed_rows, 0u);
  EXPECT_EQ(pipeline.generation(), 2u);
  EXPECT_EQ(pipeline.snapshot()->generation(), 2u);
  EXPECT_EQ(pipeline.snapshot()->parent_generation(), 1u);

  const auto report = pipeline.check_against(*pipeline.full_rebuild());
  EXPECT_TRUE(report.identical) << report.divergence;
  // Identical world, new generation: only the lineage stamps move.
  EXPECT_EQ(before.find("\"excluded_dns\""),
            pipeline.snapshot()->summary_json().find("\"excluded_dns\""));
}

TEST_F(DeltaPipelineTest, DomainRemoveFlowsIntoSnapshotDelta) {
  DeltaConfig config;
  config.churn.initial_inactive_fraction = 0.0;
  IncrementalPipeline pipeline(*eco_, config);
  pipeline.init();

  // Find a row that currently resolves, then suppress it.
  std::uint32_t victim = kVictimFallback;
  for (std::uint32_t row = 0; row < pipeline.row_count(); ++row) {
    const auto view = pipeline.dataset().domains.view(row);
    if (!view.excluded_dns) {
      victim = row;
      break;
    }
  }
  ASSERT_NE(victim, kVictimFallback);

  Tick tick;
  tick.number = 1;
  tick.domain_removes.push_back(victim);
  const TickStats stats = pipeline.apply_tick(tick);

  EXPECT_GE(stats.dns_dirty_names, 1u);
  EXPECT_GE(stats.dirty_rows, 1u);
  EXPECT_GE(stats.changed_rows, 1u);
  EXPECT_TRUE(pipeline.snapshot()->delta_applied());
  EXPECT_EQ(pipeline.snapshot()->generation(), 2u);
  EXPECT_EQ(pipeline.snapshot()->parent_generation(), 1u);

  const auto record = pipeline.snapshot()->find_domain(
      std::string(eco_->plan_name(victim)));
  ASSERT_TRUE(record.has_value());
  EXPECT_TRUE(record->excluded_dns);

  const auto report = pipeline.check_against(*pipeline.full_rebuild());
  EXPECT_TRUE(report.identical) << report.divergence;
}

// --- the gate: ≥20-tick randomized churn, byte-identical oracle every tick ---

TEST_F(DeltaPipelineTest, TwentyTickChurnMatchesOracleEveryTick) {
  DeltaConfig config;
  config.churn.seed = 23;
  config.churn.domain_churn_fraction = 0.01;
  IncrementalPipeline pipeline(*eco_, config);
  pipeline.init();
  TickGenerator gen(config.churn, pipeline.universe());

  std::size_t rib_withdrawn = 0;
  std::size_t vrp_added = 0;
  std::size_t vrp_removed = 0;
  std::size_t changed_rows = 0;

  for (int i = 0; i < 20; ++i) {
    const Tick tick = gen.next();
    const TickStats stats = pipeline.apply_tick(tick);
    EXPECT_EQ(stats.generation, static_cast<std::uint64_t>(i + 2));
    EXPECT_TRUE(stats.rtr_in_sync) << "tick " << tick.number;
    rib_withdrawn += stats.rib_withdrawn;
    vrp_added += stats.vrp_added;
    vrp_removed += stats.vrp_removed;
    changed_rows += stats.changed_rows;

    const auto oracle = pipeline.full_rebuild();
    const auto report = pipeline.check_against(*oracle);
    ASSERT_TRUE(report.identical)
        << "tick " << tick.number << ": " << report.divergence;
    EXPECT_GT(report.endpoints_checked, 2u);
  }

  // The sequence must actually exercise every layer, or the oracle
  // identity is vacuous.
  EXPECT_GT(rib_withdrawn, 0u);
  EXPECT_GT(vrp_added, 0u);
  EXPECT_GT(vrp_removed, 0u);
  EXPECT_GT(changed_rows, 0u);
  EXPECT_EQ(pipeline.ticks_applied(), 20u);
  EXPECT_EQ(pipeline.history().size(), 20u);

  const std::string deltaz = pipeline.deltaz_json();
  EXPECT_NE(deltaz.find("\"ticks\":20"), std::string::npos);
  EXPECT_NE(deltaz.find("\"rtr_in_sync\":true"), std::string::npos);
  EXPECT_NE(deltaz.find("\"history\":[{"), std::string::npos);
}

TEST_F(DeltaPipelineTest, HeavyChurnCompactsAndStaysIdentical) {
  DeltaConfig config;
  config.churn.seed = 31;
  config.churn.domain_churn_fraction = 0.20;  // 240 rows/tick vs 1200 rows
  config.compact_denominator = 2;
  IncrementalPipeline pipeline(*eco_, config);
  pipeline.init();
  TickGenerator gen(config.churn, pipeline.universe());

  bool compacted = false;
  for (int i = 0; i < 6; ++i) {
    const TickStats stats = pipeline.apply_tick(gen.next());
    if (stats.compacted) {
      compacted = true;
      EXPECT_EQ(stats.overlay_size, 0u);
      EXPECT_FALSE(pipeline.snapshot()->delta_applied());
    }
    const auto report = pipeline.check_against(*pipeline.full_rebuild());
    ASSERT_TRUE(report.identical) << "tick " << i + 1 << ": " << report.divergence;
  }
  EXPECT_TRUE(compacted);
  EXPECT_GT(pipeline.compactions(), 0u);
}

// --- batch == delta: the kernel against the independent batch sweep --------

/// Enough AS_SET announcements that some measured addresses sit under
/// one, so the AS_SET exclusion counter is exercised at this size.
web::EcosystemConfig as_set_config() {
  web::EcosystemConfig config = small_config();
  config.seed = 3;
  config.domain_count = 2'000;
  config.as_set_fraction = 0.05;
  return config;
}

class BatchDeltaIdentity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eco_ = web::Ecosystem::generate(as_set_config()).release();
    core::MeasurementPipeline batch(*eco_, core::PipelineConfig{});
    batch_ = new core::Dataset(batch.run());
  }
  static void TearDownTestSuite() {
    delete batch_;
    delete eco_;
    batch_ = nullptr;
    eco_ = nullptr;
  }

  /// Every row active, so the delta world is the batch world.
  static DeltaConfig all_active() {
    DeltaConfig config;
    config.churn.initial_inactive_fraction = 0.0;
    return config;
  }

  static web::Ecosystem* eco_;
  static core::Dataset* batch_;
};

web::Ecosystem* BatchDeltaIdentity::eco_ = nullptr;
core::Dataset* BatchDeltaIdentity::batch_ = nullptr;

TEST_F(BatchDeltaIdentity, InitDatasetEqualsSerialBatchRun) {
  IncrementalPipeline pipeline(*eco_, all_active());
  pipeline.init();
  EXPECT_GT(batch_->counters.as_set_entries_excluded, 0u);
  EXPECT_TRUE(pipeline.dataset() == *batch_);
}

TEST_F(BatchDeltaIdentity, InitDatasetEqualsFourThreadBatchRun) {
  core::PipelineConfig config;
  config.threads = 4;
  core::MeasurementPipeline batch(*eco_, config);
  const core::Dataset pooled = batch.run();
  IncrementalPipeline pipeline(*eco_, all_active());
  pipeline.init();
  EXPECT_TRUE(pipeline.dataset() == pooled);
}

TEST_F(BatchDeltaIdentity, WithdrawReannounceRoundTripRestoresEveryCounter) {
  IncrementalPipeline pipeline(*eco_, all_active());
  pipeline.init();

  Tick withdraw;
  withdraw.number = 1;
  eco_->rib().visit([&](const net::Prefix& prefix,
                        const std::vector<bgp::RibEntry>& entries) {
    for (const bgp::RibEntry& entry : entries) {
      if (entry.as_path.contains_as_set()) {
        withdraw.prefix_withdraws.push_back(prefix);
        return;
      }
    }
  });
  ASSERT_FALSE(withdraw.prefix_withdraws.empty());
  const TickStats out = pipeline.apply_tick(withdraw);
  EXPECT_EQ(out.rib_withdrawn, withdraw.prefix_withdraws.size());
  EXPECT_LT(pipeline.dataset().counters.as_set_entries_excluded,
            batch_->counters.as_set_entries_excluded);
  EXPECT_TRUE(pipeline.check_against(*pipeline.full_rebuild()).identical);

  Tick announce;
  announce.number = 2;
  announce.prefix_announces = withdraw.prefix_withdraws;
  const TickStats back = pipeline.apply_tick(announce);
  EXPECT_EQ(back.rib_announced, withdraw.prefix_withdraws.size());

  EXPECT_TRUE(pipeline.dataset().domains == batch_->domains);
  // Every counter matches the batch run except dns_queries, which keeps
  // counting the re-sweeps' queries by design.
  core::PipelineCounters counters = pipeline.dataset().counters;
  EXPECT_GT(counters.dns_queries, batch_->counters.dns_queries);
  counters.dns_queries = batch_->counters.dns_queries;
  EXPECT_EQ(counters.as_set_entries_excluded,
            batch_->counters.as_set_entries_excluded);
  EXPECT_EQ(counters, batch_->counters);
}

}  // namespace
}  // namespace ripki::delta
