// Integration tests: the full pipeline over a generated ecosystem, the two
// CDN classifiers, the per-figure reports, and the paper's shape claims.
#include <gtest/gtest.h>

#include <sstream>

#include "core/classifiers.hpp"
#include "core/export.hpp"
#include "core/pipeline.hpp"
#include "core/reports.hpp"
#include "util/stats.hpp"

namespace ripki::core {
namespace {

web::EcosystemConfig test_config() {
  web::EcosystemConfig config;
  config.domain_count = 12'000;
  config.isp_count = 600;
  config.hoster_count = 200;
  config.enterprise_count = 800;
  config.transit_count = 80;
  return config;
}

/// Shared fixture: ecosystem generation plus one pipeline run (the
/// expensive part), reused across all integration tests.
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eco_ = web::Ecosystem::generate(test_config()).release();
    pipeline_ = new MeasurementPipeline(*eco_, PipelineConfig{});
    dataset_ = new Dataset(pipeline_->run());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete pipeline_;
    delete eco_;
    dataset_ = nullptr;
    pipeline_ = nullptr;
    eco_ = nullptr;
  }

  static web::Ecosystem* eco_;
  static MeasurementPipeline* pipeline_;
  static Dataset* dataset_;
};

web::Ecosystem* PipelineTest::eco_ = nullptr;
MeasurementPipeline* PipelineTest::pipeline_ = nullptr;
Dataset* PipelineTest::dataset_ = nullptr;

// --- dataset sanity ----------------------------------------------------------

TEST_F(PipelineTest, ProcessesEveryDomain) {
  EXPECT_EQ(dataset_->domains.size(), eco_->domain_count());
  EXPECT_EQ(dataset_->counters.domains_total, eco_->domain_count());
  EXPECT_EQ(dataset_->rank_space, eco_->config().rank_space);
}

TEST_F(PipelineTest, MostDomainsResolveAndMap) {
  std::size_t resolved = 0;
  std::size_t with_pairs = 0;
  for (const auto record : dataset_->rows()) {
    if (record.www.resolved) ++resolved;
    if (!record.primary().pairs.empty()) ++with_pairs;
  }
  EXPECT_GT(resolved, dataset_->domains.size() * 99 / 100);
  EXPECT_GT(with_pairs, dataset_->domains.size() * 99 / 100);
}

TEST_F(PipelineTest, ExcludedDnsMatchesConfiguredRate) {
  const double rate = static_cast<double>(dataset_->counters.domains_excluded_dns) /
                      static_cast<double>(dataset_->counters.domains_total);
  // Configured 0.07%; allow generous sampling noise at 12k domains.
  EXPECT_GT(rate, 0.0001);
  EXPECT_LT(rate, 0.004);
  EXPECT_GT(dataset_->counters.special_purpose_excluded, 0u);
}

TEST_F(PipelineTest, PairValiditiesAreAssigned) {
  std::size_t valid = 0;
  std::size_t invalid = 0;
  std::size_t not_found = 0;
  for (const auto record : dataset_->rows()) {
    for (const auto& pair : record.www.pairs) {
      switch (pair.validity) {
        case rpki::OriginValidity::kValid: ++valid; break;
        case rpki::OriginValidity::kInvalid: ++invalid; break;
        case rpki::OriginValidity::kNotFound: ++not_found; break;
      }
    }
  }
  EXPECT_GT(valid, 0u);
  EXPECT_GT(invalid, 0u);
  EXPECT_GT(not_found, valid);  // deployment is sparse
}

TEST_F(PipelineTest, MrtPathWasExercised) {
  EXPECT_GT(pipeline_->mrt_stats().records, 1u);
  EXPECT_GT(pipeline_->mrt_stats().rib_entries, 0u);
  EXPECT_EQ(pipeline_->rib().entry_count(), eco_->rib().entry_count());
}

TEST_F(PipelineTest, AsSetEntriesWereExcluded) {
  EXPECT_GT(dataset_->counters.as_set_entries_excluded, 0u);
}

TEST_F(PipelineTest, ValidationReportIsClean) {
  const auto& report = pipeline_->validation_report();
  EXPECT_EQ(report.tas_processed, 5u);
  EXPECT_GT(report.roas_accepted, 0u);
  EXPECT_EQ(report.roas_rejected, 0u);
  EXPECT_EQ(report.vrps.size(), pipeline_->vrp_index().size());
}

// --- paper shape claims ---------------------------------------------------------

TEST_F(PipelineTest, PopularDomainsAreLessProtected) {
  const auto summary = reports::figure4_summary(*dataset_);
  EXPECT_GT(summary.mean_coverage, 0.02);
  EXPECT_LT(summary.mean_coverage, 0.12);
  // The perverse trend: top of the ranking less covered than the tail.
  EXPECT_LT(summary.top_100k_coverage, summary.last_100k_coverage * 0.85);
  // Invalids are rare (misconfiguration, not hijacks).
  EXPECT_GT(summary.mean_invalid, 0.0001);
  EXPECT_LT(summary.mean_invalid, 0.01);
}

TEST_F(PipelineTest, InvalidIsRankIndependent) {
  const auto rows = reports::figure4_rpki_by_rank(*dataset_, 250'000);
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& row : rows) {
    EXPECT_LT(row.invalid, 0.01) << "bin at " << row.rank_lo;
  }
}

TEST_F(PipelineTest, Figure4FractionsSumToOne) {
  for (const auto& row : reports::figure4_rpki_by_rank(*dataset_, 100'000)) {
    if (row.domains == 0) continue;
    EXPECT_NEAR(row.valid + row.invalid + row.not_found, 1.0, 1e-9);
    EXPECT_NEAR(row.covered, row.valid + row.invalid, 1e-9);
  }
}

TEST_F(PipelineTest, CdnDomainsAreBarelyCovered) {
  const ChainCdnClassifier chain;
  const auto summary = reports::figure6_summary(*dataset_, chain);
  EXPECT_LT(summary.cdn_mean_coverage, summary.all_mean_coverage * 0.4);
  EXPECT_GT(summary.non_cdn_mean_coverage, summary.cdn_mean_coverage);
}

TEST_F(PipelineTest, CdnRpkiIsRankIndependent) {
  const ChainCdnClassifier chain;
  const auto rows = reports::figure6_cdn_rpki(*dataset_, chain, 250'000);
  ASSERT_EQ(rows.size(), 4u);
  // CDN coverage fluctuates around a low constant; no bin should exceed a
  // small ceiling (the unconditioned web is several times higher).
  for (const auto& row : rows) {
    if (row.cdn_domains < 50) continue;
    EXPECT_LT(row.cdn_coverage, 0.03) << "bin at " << row.rank_lo;
  }
}

TEST_F(PipelineTest, CdnShareFallsWithRank) {
  const ChainCdnClassifier chain;
  const PatternCdnClassifier pattern;
  const auto rows = reports::figure5_cdn_share(*dataset_, chain, pattern, 250'000);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_GT(rows.front().chain_fraction, rows.back().chain_fraction * 1.8);
}

TEST_F(PipelineTest, ChainHeuristicUnderestimatesPattern) {
  const ChainCdnClassifier chain;
  const PatternCdnClassifier pattern;
  const auto rows = reports::figure5_cdn_share(*dataset_, chain, pattern, 100'000);
  // Within HTTPArchive's coverage, the pattern classifier sees at least as
  // many CDN domains as the conservative chain heuristic.
  for (const auto& row : rows) {
    if (!row.pattern_fraction.has_value() || row.domains < 100) continue;
    EXPECT_GE(*row.pattern_fraction + 0.01, row.chain_fraction)
        << "bin at " << row.rank_lo;
  }
  // And the pattern classifier stops at 300k (paper: first 300k ranks).
  EXPECT_FALSE(rows.back().pattern_fraction.has_value());
}

TEST_F(PipelineTest, ClassifiersTrackGroundTruth) {
  const ChainCdnClassifier chain;
  const PatternCdnClassifier pattern(0);  // unlimited rank coverage
  std::size_t cdn_truth = 0;
  std::size_t chain_hits = 0;
  std::size_t pattern_hits = 0;
  std::size_t chain_false_positives = 0;
  for (std::size_t i = 0; i < dataset_->domains.size(); ++i) {
    const auto record = dataset_->domains[i];
    const bool truth = eco_->domain_uses_cdn(i);
    if (truth) {
      ++cdn_truth;
      chain_hits += chain.is_cdn(record) ? 1 : 0;
      pattern_hits += pattern.is_cdn(record) ? 1 : 0;
    } else if (chain.is_cdn(record)) {
      ++chain_false_positives;
    }
  }
  ASSERT_GT(cdn_truth, 0u);
  // The chain heuristic catches most but not all (single-CNAME and
  // chainless deployments are invisible to it).
  EXPECT_GT(chain_hits, cdn_truth * 55 / 100);
  EXPECT_LT(chain_hits, cdn_truth);
  // Pattern matching sees single-CNAME deployments too.
  EXPECT_GT(pattern_hits, chain_hits);
  // False positives exist (hosting-platform chains) but are rare.
  EXPECT_LT(chain_false_positives, dataset_->domains.size() / 50);
}

TEST_F(PipelineTest, Figure3OverlapRisesTowardTheTail) {
  const auto rows = reports::figure3_overlap(*dataset_, 250'000);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_GT(rows.front().domains, 100u);
  // www/apex infrastructure agreement grows with rank (76% -> 94%+).
  EXPECT_LT(rows.front().mean_equal_fraction + 0.05,
            rows.back().mean_equal_fraction);
  EXPECT_GT(rows.back().mean_equal_fraction, 0.80);
}

TEST_F(PipelineTest, Table1FindsPartiallyCoveredTopDomains) {
  const auto rows = reports::table1_top_covered(*dataset_, 10);
  ASSERT_EQ(rows.size(), 10u);
  std::uint64_t last_rank = 0;
  for (const auto& row : rows) {
    EXPECT_GT(row.rank, last_rank);  // sorted by rank
    last_rank = row.rank;
    EXPECT_TRUE(row.www_covered > 0 || row.apex_covered > 0);
    EXPECT_LE(row.www_covered, row.www_total);
  }
}

TEST_F(PipelineTest, CdnCensusMatchesPaper) {
  const CdnAsDirectory directory(eco_->registry());
  EXPECT_EQ(directory.total_cdn_ases(), 199u);

  const auto census = directory.census(pipeline_->validation_report().vrps);
  std::size_t total_entries = 0;
  for (const auto& entry : census) {
    if (entry.cdn == "Internap") {
      EXPECT_EQ(entry.rpki_entries.size(), 4u);
      EXPECT_EQ(entry.roa_origin_ases.size(), 3u);
      EXPECT_EQ(entry.ases.size(), 41u);
    } else {
      EXPECT_TRUE(entry.rpki_entries.empty()) << entry.cdn;
    }
    total_entries += entry.rpki_entries.size();
  }
  EXPECT_EQ(total_entries, 4u);
}

TEST_F(PipelineTest, IspAndHosterPenetrationExceedsCdns) {
  const auto& vrps = pipeline_->validation_report().vrps;
  const double isp = CdnAsDirectory::category_penetration(
      eco_->registry(), web::AsCategory::kIsp, vrps);
  const double hoster = CdnAsDirectory::category_penetration(
      eco_->registry(), web::AsCategory::kHoster, vrps);
  const double cdn = CdnAsDirectory::category_penetration(
      eco_->registry(), web::AsCategory::kCdn, vrps);
  EXPECT_GT(isp, 0.03);
  EXPECT_GT(hoster, 0.02);
  EXPECT_LT(cdn, 0.04);       // only Internap's 3 ASes out of 199
  EXPECT_GT(isp, cdn * 2);
}

// --- vantage and transport robustness -------------------------------------------

TEST_F(PipelineTest, ResultsIndependentOfDnsVantage) {
  PipelineConfig config;
  config.vantage = web::Vantage::kRedwoodCity;
  config.max_domains = 2'000;
  MeasurementPipeline redwood(*eco_, config);
  const Dataset other = redwood.run();

  // Headline coverage from the other vantage must agree closely (the
  // paper: "our main results remain independent of the DNS server
  // selection").
  util::Accumulator a;
  util::Accumulator b;
  for (std::size_t i = 0; i < other.domains.size(); ++i) {
    if (dataset_->domains[i].primary().pairs.empty()) continue;
    if (other.domains[i].primary().pairs.empty()) continue;
    a.add(dataset_->domains[i].primary().coverage());
    b.add(other.domains[i].primary().coverage());
  }
  EXPECT_NEAR(a.mean(), b.mean(), 0.01);
}

TEST_F(PipelineTest, RtrTransportYieldsIdenticalValidation) {
  PipelineConfig config;
  config.use_rtr = true;
  config.max_domains = 1'000;
  MeasurementPipeline rtr_pipeline(*eco_, config);
  const Dataset rtr_dataset = rtr_pipeline.run();

  ASSERT_EQ(rtr_dataset.domains.size(), 1'000u);
  for (std::size_t i = 0; i < rtr_dataset.domains.size(); ++i) {
    ASSERT_EQ(rtr_dataset.domains[i].www.pairs.size(),
              dataset_->domains[i].www.pairs.size());
    for (std::size_t p = 0; p < rtr_dataset.domains[i].www.pairs.size(); ++p) {
      EXPECT_EQ(rtr_dataset.domains[i].www.pairs[p],
                dataset_->domains[i].www.pairs[p]);
    }
  }
}

TEST_F(PipelineTest, RrdpCollectionYieldsIdenticalValidation) {
  PipelineConfig config;
  config.use_rrdp = true;
  config.max_domains = 500;
  MeasurementPipeline rrdp_pipeline(*eco_, config);
  const Dataset rrdp_dataset = rrdp_pipeline.run();

  // The RRDP-mirrored, TAL-bootstrapped validation must produce exactly
  // the same VRP set and per-pair outcomes as in-process access.
  EXPECT_EQ(rrdp_pipeline.validation_report().vrps.size(),
            pipeline_->validation_report().vrps.size());
  for (std::size_t i = 0; i < rrdp_dataset.domains.size(); ++i) {
    ASSERT_EQ(rrdp_dataset.domains[i].www.pairs.size(),
              dataset_->domains[i].www.pairs.size());
    for (std::size_t p = 0; p < rrdp_dataset.domains[i].www.pairs.size(); ++p) {
      EXPECT_EQ(rrdp_dataset.domains[i].www.pairs[p],
                dataset_->domains[i].www.pairs[p]);
    }
  }
}

TEST_F(PipelineTest, MaxDomainsLimitsWork) {
  PipelineConfig config;
  config.max_domains = 123;
  MeasurementPipeline limited(*eco_, config);
  EXPECT_EQ(limited.run().domains.size(), 123u);
}

// --- golden dataset -----------------------------------------------------------------

/// 64-bit FNV-1a.
std::uint64_t Fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return h;
}

// The serial sweep of a fixed 4000-domain world, pinned to figures captured
// before the DNS wire path lost its strings: every counter plus a digest of
// the exported domain and pair CSVs. The parallel, delta and serve oracles
// all compare two runs of the current code; this one compares against the
// past, so a rewrite that changes what is measured fails here.
TEST_F(PipelineTest, GoldenDatasetDigest) {
  web::EcosystemConfig config = test_config();
  config.domain_count = 4'000;
  const auto eco = web::Ecosystem::generate(config);
  MeasurementPipeline pipeline(*eco, PipelineConfig{});
  const Dataset dataset = pipeline.run();

  std::string counters;
  dataset.counters.for_each_field([&](const char* name, std::uint64_t value) {
    counters += std::string(name) + "=" + std::to_string(value) + "\n";
  });
  EXPECT_EQ(counters,
            "domains_total=4000\n"
            "domains_excluded_dns=6\n"
            "dns_queries=25600\n"
            "addresses_www=8983\n"
            "addresses_apex=8730\n"
            "special_purpose_excluded=12\n"
            "unrouted_addresses=0\n"
            "pairs_www=6345\n"
            "pairs_apex=5899\n"
            "as_set_entries_excluded=60\n"
            "dnssec_signed_domains=72\n");

  std::ostringstream csv;
  export_domains_csv(dataset, csv);
  export_pairs_csv(dataset, csv);
  EXPECT_EQ(Fnv1a(csv.str()), 8540567919925375810ULL);
}

// --- VariantResult unit behaviour --------------------------------------------------

TEST(VariantResult, CoverageMath) {
  VariantResult v;
  v.resolved = true;
  const auto p = net::Prefix::parse("10.0.0.0/8").value();
  v.pairs = {
      PrefixAsPair{p, net::Asn(1), rpki::OriginValidity::kValid},
      PrefixAsPair{p, net::Asn(2), rpki::OriginValidity::kInvalid},
      PrefixAsPair{p, net::Asn(3), rpki::OriginValidity::kNotFound},
      PrefixAsPair{p, net::Asn(4), rpki::OriginValidity::kNotFound},
  };
  EXPECT_DOUBLE_EQ(v.coverage(), 0.5);
  EXPECT_DOUBLE_EQ(v.fraction(rpki::OriginValidity::kValid), 0.25);
  EXPECT_DOUBLE_EQ(v.fraction(rpki::OriginValidity::kInvalid), 0.25);
  EXPECT_DOUBLE_EQ(v.fraction(rpki::OriginValidity::kNotFound), 0.5);

  const VariantResult empty;
  EXPECT_DOUBLE_EQ(empty.coverage(), 0.0);
}

TEST(DedupePairs, SortsAndRemovesDuplicatesByPrefixAndOrigin) {
  const auto p1 = net::Prefix::parse("10.0.0.0/8").value();
  const auto p2 = net::Prefix::parse("10.1.0.0/16").value();
  std::vector<PrefixAsPair> pairs{
      {p2, net::Asn(65002), {}}, {p1, net::Asn(65001), {}},
      {p2, net::Asn(65001), {}}, {p1, net::Asn(65001), {}},
      {p2, net::Asn(65002), {}}, {p2, net::Asn(65002), {}},
  };
  dedupe_pairs(pairs);
  ASSERT_EQ(pairs.size(), 3u);
  // Sorted by (prefix, origin), each pair exactly once.
  EXPECT_EQ(pairs[0].prefix, p1);
  EXPECT_EQ(pairs[0].origin, net::Asn(65001));
  EXPECT_EQ(pairs[1].prefix, p2);
  EXPECT_EQ(pairs[1].origin, net::Asn(65001));
  EXPECT_EQ(pairs[2].prefix, p2);
  EXPECT_EQ(pairs[2].origin, net::Asn(65002));
}

TEST(DedupePairs, EmptyAndSingleAndAllDistinctAreUntouched) {
  std::vector<PrefixAsPair> pairs;
  dedupe_pairs(pairs);
  EXPECT_TRUE(pairs.empty());

  const auto p1 = net::Prefix::parse("192.0.2.0/24").value();
  pairs.push_back({p1, net::Asn(64512), {}});
  dedupe_pairs(pairs);
  ASSERT_EQ(pairs.size(), 1u);

  pairs.push_back({p1, net::Asn(64513), {}});
  dedupe_pairs(pairs);
  EXPECT_EQ(pairs.size(), 2u);
}

TEST(DomainRecord, PrimaryPrefersWww) {
  DomainRecord record;
  record.www.resolved = true;
  record.www.address_count = 1;
  record.apex.resolved = true;
  record.apex.address_count = 2;
  EXPECT_EQ(&record.primary(), &record.www);
  record.www.resolved = false;
  EXPECT_EQ(&record.primary(), &record.apex);
}

}  // namespace
}  // namespace ripki::core
