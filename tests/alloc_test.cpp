// Allocation counts of the warm sweep path. This executable replaces the
// global operator new with a counting one, so it stands alone: a warm
// StubResolver exchange against the ecosystem's zone (encode ->
// handle_datagram -> decode_into) and a warm MeasureKernel row must not
// touch the heap.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/kernel.hpp"
#include "dns/resolver.hpp"
#include "dns/server.hpp"
#include "rpki/validator.hpp"
#include "web/ecosystem.hpp"

namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ripki {
namespace {

/// Heap allocations made on this thread while running `fn`.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = t_allocations;
  fn();
  return t_allocations - before;
}

TEST(CountingNew, SeesHeapAllocations) {
  std::string* kept = nullptr;
  EXPECT_GE(allocations_during([&] { kept = new std::string(64, 'x'); }), 1u);
  delete kept;
}

web::EcosystemConfig small_world() {
  web::EcosystemConfig config;
  config.domain_count = 2'000;
  config.isp_count = 600;
  config.hoster_count = 200;
  config.enterprise_count = 800;
  config.transit_count = 80;
  return config;
}

class WarmPathTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { eco_ = web::Ecosystem::generate(small_world()).release(); }
  static void TearDownTestSuite() {
    delete eco_;
    eco_ = nullptr;
  }

  static dns::DnsName apex(std::size_t i) {
    return dns::DnsName::parse(eco_->plan_name(i)).value();
  }

  static web::Ecosystem* eco_;
};

web::Ecosystem* WarmPathTest::eco_ = nullptr;

TEST_F(WarmPathTest, ResolverExchangeAllocatesNothing) {
  const dns::AuthoritativeServer server(&eco_->zone_source(web::Vantage::kBerlin));
  dns::StubResolver resolver(&server);

  // A www name answered directly: one UDP exchange, no truncation.
  std::size_t index = 0;
  while (eco_->plan(index).invalid_dns || eco_->plan(index).www.chain_hops != 0) ++index;
  const dns::DnsName www = apex(index).prepended("www");

  dns::Resolution resolution;
  ASSERT_TRUE(resolver.resolve_into(www, dns::RecordType::kA, resolution).ok());
  ASSERT_FALSE(resolution.addresses.empty());
  const std::uint64_t queries = resolver.queries_sent();

  const std::uint64_t allocations = allocations_during([&] {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(resolver.resolve_into(www, dns::RecordType::kA, resolution).ok());
    }
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(resolver.queries_sent() - queries, 100u);  // one exchange each
  EXPECT_EQ(resolver.tcp_retries(), 0u);
  EXPECT_EQ(server.stats().truncated, 0u);
}

TEST_F(WarmPathTest, ChainsAndDnskeyProbeAllocateNothing) {
  const dns::AuthoritativeServer server(&eco_->zone_source(web::Vantage::kBerlin));
  dns::StubResolver resolver(&server);
  dns::Resolution resolution;
  const auto sweep = [&] {
    for (std::size_t i = 0; i < 300; ++i) {
      const dns::DnsName name = apex(i);
      (void)resolver.resolve_all_into(name.prepended("www"), resolution);
      (void)resolver.resolve_all_into(name, resolution);
      (void)resolver.query(name, dns::RecordType::kDnskey);
    }
  };
  sweep();  // grows every scratch buffer to its working size
  std::size_t chained = 0;
  for (std::size_t i = 0; i < 300; ++i) chained += eco_->plan(i).www.chain_hops >= 2;
  ASSERT_GT(chained, 0u);
  EXPECT_EQ(allocations_during(sweep), 0u);
}

TEST_F(WarmPathTest, KernelRowAllocatesNothing) {
  const dns::AuthoritativeServer server(&eco_->zone_source(web::Vantage::kBerlin));
  const rpki::RepositoryValidator validator(eco_->config().now);
  const rpki::VrpIndex vrps(validator.validate(eco_->repositories()).vrps);
  core::MeasureKernel kernel(&server, &eco_->rib(), &vrps);
  std::uint64_t pairs = 0;
  const auto sweep = [&] {
    for (std::size_t i = 0; i < 300; ++i) {
      const core::RowResult& row = kernel.measure(apex(i));
      pairs += row.www.pairs.size() + row.apex.pairs.size();
    }
  };
  sweep();
  ASSERT_GT(pairs, 0u);
  EXPECT_EQ(allocations_during(sweep), 0u);
}

}  // namespace
}  // namespace ripki
