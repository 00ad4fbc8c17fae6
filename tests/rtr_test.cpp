#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <variant>

#include "rtr/cache.hpp"
#include "rtr/client.hpp"
#include "rtr/pdu.hpp"

namespace ripki::rtr {
namespace {

net::Prefix P(const std::string& text) { return net::Prefix::parse(text).value(); }

rpki::Vrp V(const std::string& prefix, std::uint8_t maxlen, std::uint32_t asn) {
  return rpki::Vrp{P(prefix), maxlen, net::Asn(asn)};
}

// --- PDU codec ----------------------------------------------------------------

/// Stable parameterized test names, "<PduType>_<index>". Without a name
/// generator gtest prints each Pdu's raw bytes, padding included, so the
/// test IDs would differ from build to build.
std::string pdu_test_name(const ::testing::TestParamInfo<Pdu>& info) {
  static constexpr const char* kTypes[] = {
      "SerialNotify", "SerialQuery", "ResetQuery", "CacheResponse", "PrefixPdu",
      "EndOfData",    "CacheReset",  "RouterKey",  "ErrorReport"};
  static_assert(std::size(kTypes) == std::variant_size_v<Pdu>);
  return std::string(kTypes[info.param.index()]) + "_" +
         std::to_string(info.index);
}

class PduRoundTrip : public ::testing::TestWithParam<Pdu> {};

TEST_P(PduRoundTrip, EncodeDecodeIdentity) {
  const Pdu original = GetParam();
  const util::Bytes bytes = encode(original);
  util::ByteReader reader(bytes);
  auto decoded = decode(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded.value(), original);
  EXPECT_EQ(reader.remaining(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, PduRoundTrip,
    ::testing::Values(
        Pdu{SerialNotify{7, 42}}, Pdu{SerialQuery{7, 41}}, Pdu{ResetQuery{}},
        Pdu{CacheResponse{7}},
        Pdu{PrefixPdu{true, net::Prefix::parse("10.0.0.0/16").value(), 24,
                      net::Asn(65001)}},
        Pdu{PrefixPdu{false, net::Prefix::parse("2a00:1450::/32").value(), 48,
                      net::Asn(15169)}},
        Pdu{EndOfData{7, 42}}, Pdu{CacheReset{}},
        Pdu{ErrorReport{ErrorCode::kCorruptData, {1, 2, 3}, "bad pdu"}}),
    pdu_test_name);

TEST(Pdu, WireLayoutIpv4Prefix) {
  const Pdu pdu{PrefixPdu{true, P("10.0.0.0/16"), 24, net::Asn(65001)}};
  const util::Bytes bytes = encode(pdu);
  ASSERT_EQ(bytes.size(), 20u);
  EXPECT_EQ(bytes[0], 0);   // version
  EXPECT_EQ(bytes[1], 4);   // IPv4 prefix type
  EXPECT_EQ(bytes[7], 20);  // total length
  EXPECT_EQ(bytes[8], 1);   // flags: announce
  EXPECT_EQ(bytes[9], 16);  // prefix length
  EXPECT_EQ(bytes[10], 24); // max length
  EXPECT_EQ(bytes[12], 10); // first address byte
}

TEST(Pdu, DecodeRejectsBadVersion) {
  util::Bytes bytes = encode(Pdu{ResetQuery{}});
  bytes[0] = 9;  // beyond kMaxSupportedVersion
  util::ByteReader reader(bytes);
  EXPECT_FALSE(decode(reader).ok());
}

TEST(Pdu, DecodeRejectsUnknownType) {
  util::Bytes bytes = encode(Pdu{ResetQuery{}});
  bytes[1] = 99;
  util::ByteReader reader(bytes);
  EXPECT_FALSE(decode(reader).ok());
}

TEST(Pdu, DecodeRejectsTruncatedBody) {
  util::Bytes bytes = encode(Pdu{SerialNotify{1, 2}});
  bytes.pop_back();
  util::ByteReader reader(bytes);
  EXPECT_FALSE(decode(reader).ok());
}

TEST(Pdu, DecodeRejectsBadLengthField) {
  util::Bytes bytes = encode(Pdu{ResetQuery{}});
  bytes[7] = 4;  // below header size
  util::ByteReader reader(bytes);
  EXPECT_FALSE(decode(reader).ok());
}

TEST(Pdu, DecodeRejectsMaxLenBelowPrefixLen) {
  util::Bytes bytes = encode(Pdu{PrefixPdu{true, P("10.0.0.0/24"), 24, net::Asn(1)}});
  bytes[10] = 8;  // max length < prefix length
  util::ByteReader reader(bytes);
  EXPECT_FALSE(decode(reader).ok());
}

TEST(Pdu, DecodeStream) {
  util::ByteWriter w;
  w.put_bytes(encode(Pdu{CacheResponse{3}}));
  w.put_bytes(encode(Pdu{PrefixPdu{true, P("10.0.0.0/8"), 8, net::Asn(5)}}));
  w.put_bytes(encode(Pdu{EndOfData{3, 9}}));
  auto pdus = decode_stream(w.bytes());
  ASSERT_TRUE(pdus.ok());
  EXPECT_EQ(pdus.value().size(), 3u);
}

TEST(Pdu, ToStringIsInformative) {
  EXPECT_EQ(to_string(Pdu{ResetQuery{}}), "ResetQuery");
  EXPECT_NE(to_string(Pdu{SerialNotify{1, 2}}).find("serial=2"), std::string::npos);
}

// --- Cache server ----------------------------------------------------------------

TEST(CacheServer, FullResponseToResetQuery) {
  CacheServer cache(11, {V("10.0.0.0/16", 16, 65001), V("10.1.0.0/16", 24, 65002)});
  const auto response = cache.handle(Pdu{ResetQuery{}}, kVersion0);
  ASSERT_EQ(response.size(), 4u);
  EXPECT_TRUE(std::holds_alternative<CacheResponse>(response.front()));
  EXPECT_TRUE(std::holds_alternative<EndOfData>(response.back()));
  EXPECT_EQ(std::get<EndOfData>(response.back()).serial, 0u);
}

TEST(CacheServer, UpdateComputesDelta) {
  CacheServer cache(11, {V("10.0.0.0/16", 16, 65001), V("10.1.0.0/16", 16, 65002)});
  const auto notify =
      cache.update({V("10.0.0.0/16", 16, 65001), V("10.2.0.0/16", 16, 65003)});
  EXPECT_EQ(notify.serial, 1u);

  const auto response = cache.handle(Pdu{SerialQuery{11, 0}}, kVersion0);
  // CacheResponse + withdraw 10.1 + announce 10.2 + EndOfData.
  ASSERT_EQ(response.size(), 4u);
  const auto& withdraw = std::get<PrefixPdu>(response[1]);
  EXPECT_FALSE(withdraw.announce);
  EXPECT_EQ(withdraw.prefix, P("10.1.0.0/16"));
  const auto& announce = std::get<PrefixPdu>(response[2]);
  EXPECT_TRUE(announce.announce);
  EXPECT_EQ(announce.prefix, P("10.2.0.0/16"));
}

TEST(CacheServer, CurrentSerialGetsEmptyDelta) {
  CacheServer cache(11, {V("10.0.0.0/16", 16, 65001)});
  const auto response = cache.handle(Pdu{SerialQuery{11, 0}}, kVersion0);
  ASSERT_EQ(response.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<CacheResponse>(response[0]));
  EXPECT_TRUE(std::holds_alternative<EndOfData>(response[1]));
}

TEST(CacheServer, AncientSerialGetsCacheReset) {
  CacheServer cache(11, {}, /*history_limit=*/2);
  for (int i = 0; i < 5; ++i) {
    cache.update({V("10.0.0.0/16", 16, static_cast<std::uint32_t>(65000 + i))});
  }
  const auto response = cache.handle(Pdu{SerialQuery{11, 0}}, kVersion0);
  ASSERT_EQ(response.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<CacheReset>(response.front()));
}

TEST(CacheServer, FutureSerialGetsCacheReset) {
  CacheServer cache(11, {});
  const auto response = cache.handle(Pdu{SerialQuery{11, 99}}, kVersion0);
  ASSERT_EQ(response.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<CacheReset>(response.front()));
}

TEST(CacheServer, SessionMismatchGetsCacheReset) {
  CacheServer cache(11, {});
  const auto response = cache.handle(Pdu{SerialQuery{22, 0}}, kVersion0);
  ASSERT_EQ(response.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<CacheReset>(response.front()));
}

TEST(CacheServer, MalformedBytesGetErrorReport) {
  CacheServer cache(11, {});
  const util::Bytes garbage = {0xFF, 0x00};
  const util::Bytes response = cache.handle_bytes(garbage);
  auto pdus = decode_stream(response);
  ASSERT_TRUE(pdus.ok());
  ASSERT_EQ(pdus.value().size(), 1u);
  EXPECT_TRUE(std::holds_alternative<ErrorReport>(pdus.value().front()));
}

TEST(CacheServer, UnsupportedQueryGetsErrorReport) {
  CacheServer cache(11, {});
  const auto response = cache.handle(Pdu{CacheReset{}}, kVersion0);
  ASSERT_EQ(response.size(), 1u);
  const auto& err = std::get<ErrorReport>(response.front());
  EXPECT_EQ(err.code, ErrorCode::kInvalidRequest);
}

// --- Router client -----------------------------------------------------------------

TEST(RouterClient, InitialSyncIsReset) {
  CacheServer cache(11, {V("10.0.0.0/16", 16, 65001), V("10.1.0.0/16", 24, 65002)});
  RouterClient client;
  const auto r = client.sync(cache);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_TRUE(client.synchronized());
  EXPECT_EQ(client.vrps().size(), 2u);
  EXPECT_EQ(client.serial(), 0u);
  EXPECT_EQ(client.session_id(), 11u);
  EXPECT_EQ(client.stats().resets, 1u);
}

TEST(RouterClient, IncrementalSyncAppliesDelta) {
  CacheServer cache(11, {V("10.0.0.0/16", 16, 65001)});
  RouterClient client;
  ASSERT_TRUE(client.sync(cache).ok());

  cache.update({V("10.0.0.0/16", 16, 65001), V("10.9.0.0/16", 16, 65009)});
  ASSERT_TRUE(client.sync(cache).ok());
  EXPECT_EQ(client.serial(), 1u);
  EXPECT_EQ(client.vrps().size(), 2u);
  EXPECT_EQ(client.stats().serial_syncs, 1u);
  EXPECT_EQ(client.stats().resets, 1u);

  cache.update({V("10.9.0.0/16", 16, 65009)});
  ASSERT_TRUE(client.sync(cache).ok());
  EXPECT_EQ(client.vrps().size(), 1u);
  EXPECT_EQ(client.vrps().begin()->asn, net::Asn(65009));
}

TEST(RouterClient, FallsBackToResetAfterCacheReset) {
  CacheServer cache(11, {V("10.0.0.0/16", 16, 65001)}, /*history_limit=*/1);
  RouterClient client;
  ASSERT_TRUE(client.sync(cache).ok());

  // Age the client's serial out of the history window.
  for (int i = 0; i < 4; ++i) {
    cache.update({V("10.0.0.0/16", 16, 65001),
                  V("10.50.0.0/16", 16, static_cast<std::uint32_t>(66000 + i))});
  }
  ASSERT_TRUE(client.sync(cache).ok());
  EXPECT_EQ(client.stats().cache_resets_seen, 1u);
  EXPECT_EQ(client.stats().resets, 2u);
  EXPECT_EQ(client.vrps(), cache.current());
  EXPECT_EQ(client.serial(), cache.serial());
}

TEST(RouterClient, StateMatchesCacheAfterManyChurns) {
  CacheServer cache(11, {});
  RouterClient client;
  ASSERT_TRUE(client.sync(cache).ok());
  for (std::uint32_t i = 0; i < 20; ++i) {
    rpki::VrpSet next;
    for (std::uint32_t k = 0; k <= i % 5; ++k) {
      next.push_back(V("10." + std::to_string(k) + ".0.0/16", 16, 65000 + k));
    }
    cache.update(next);
    ASSERT_TRUE(client.sync(cache).ok());
    EXPECT_EQ(client.vrps(), cache.current()) << "iteration " << i;
  }
}

TEST(RouterClient, BuildsUsableOriginValidationIndex) {
  CacheServer cache(11, {V("10.0.0.0/16", 20, 65001)});
  RouterClient client;
  ASSERT_TRUE(client.sync(cache).ok());
  const auto index = client.build_index();
  EXPECT_EQ(index.validate(P("10.0.0.0/18"), net::Asn(65001)),
            rpki::OriginValidity::kValid);
  EXPECT_EQ(index.validate(P("10.0.0.0/18"), net::Asn(65002)),
            rpki::OriginValidity::kInvalid);
}

// --- Serial synchronisation edge cases ----------------------------------------

TEST(SerialArithmetic, Rfc1982HalfSpaceComparison) {
  EXPECT_TRUE(serial_gt(1, 0));
  EXPECT_FALSE(serial_gt(0, 1));
  EXPECT_FALSE(serial_gt(7, 7));
  // Wraparound: 0 is *later* than 0xFFFFFFFF in the circular space.
  EXPECT_TRUE(serial_gt(0, 0xFFFFFFFFu));
  EXPECT_FALSE(serial_gt(0xFFFFFFFFu, 0));
  EXPECT_TRUE(serial_gt(5, 0xFFFFFFF0u));
  EXPECT_FALSE(serial_gt(0xFFFFFFF0u, 5));
}

TEST(RouterClient, SerialSyncSurvivesWraparound) {
  // A cache that restarted near the top of the circular serial space:
  // incremental syncs must keep working as the serial crosses 2^32.
  CacheServer cache(11, {V("10.0.0.0/16", 16, 65001)}, /*history_limit=*/16,
                    kMaxSupportedVersion, /*initial_serial=*/0xFFFFFFFEu);
  RouterClient client;
  ASSERT_TRUE(client.sync(cache).ok());
  EXPECT_EQ(client.serial(), 0xFFFFFFFEu);

  for (std::uint32_t i = 0; i < 4; ++i) {
    rpki::VrpSet next{V("10.0.0.0/16", 16, 65001),
                      V("10.7.0.0/16", 16, 65100 + i)};
    cache.update(next);
    ASSERT_TRUE(client.sync(cache).ok()) << "update " << i;
    EXPECT_EQ(client.vrps(), cache.current()) << "update " << i;
    EXPECT_EQ(client.serial(), cache.serial()) << "update " << i;
  }
  // Serial wrapped 0xFFFFFFFE -> ... -> 2 without a single reset resync.
  EXPECT_EQ(cache.serial(), 2u);
  EXPECT_EQ(client.stats().resets, 1u);
  EXPECT_EQ(client.stats().serial_syncs, 4u);
  EXPECT_EQ(client.stats().cache_resets_seen, 0u);
}

TEST(RouterClient, CacheRestartMidSyncForcesResetAndNewSession) {
  // The cache process restarts between two syncs (new session id, fresh
  // serial space): the serial query must be answered with Cache Reset and
  // the client must resync fully under the new session.
  CacheServer original(11, {V("10.0.0.0/16", 16, 65001)});
  RouterClient client;
  ASSERT_TRUE(client.sync(original).ok());
  ASSERT_EQ(client.session_id(), 11u);

  CacheServer restarted(12, {V("10.1.0.0/16", 16, 65002)},
                        /*history_limit=*/16, kMaxSupportedVersion,
                        /*initial_serial=*/500);
  ASSERT_TRUE(client.sync(restarted).ok());
  EXPECT_EQ(client.stats().cache_resets_seen, 1u);
  EXPECT_EQ(client.stats().resets, 2u);
  EXPECT_EQ(client.session_id(), 12u);
  EXPECT_EQ(client.serial(), 500u);
  EXPECT_EQ(client.vrps(), restarted.current());
}

TEST(RouterClient, EmptyDeltaAdvancesSerialWithoutPrefixPdus) {
  // A validation run that produced the same VRP set still bumps the cache
  // serial; the router's incremental sync must advance its serial while
  // receiving zero prefix PDUs.
  CacheServer cache(11, {V("10.0.0.0/16", 16, 65001)});
  RouterClient client;
  ASSERT_TRUE(client.sync(cache).ok());
  const auto before = client.stats();

  cache.update({V("10.0.0.0/16", 16, 65001)});  // no-op change
  ASSERT_TRUE(client.sync(cache).ok());
  EXPECT_EQ(client.serial(), cache.serial());
  EXPECT_EQ(client.serial(), 1u);
  EXPECT_EQ(client.vrps(), cache.current());
  EXPECT_EQ(client.stats().serial_syncs, before.serial_syncs + 1);
  EXPECT_EQ(client.stats().announcements, before.announcements);
  EXPECT_EQ(client.stats().withdrawals, before.withdrawals);
  EXPECT_EQ(client.stats().resets, before.resets);
}

// --- Protocol version 1 (RFC 8210) -------------------------------------------

class PduRoundTripV1 : public ::testing::TestWithParam<Pdu> {};

TEST_P(PduRoundTripV1, EncodeDecodeIdentityAtV1) {
  const Pdu original = GetParam();
  const util::Bytes bytes = encode(original, kVersion1);
  EXPECT_EQ(bytes[0], kVersion1);
  util::ByteReader reader(bytes);
  std::uint8_t version = 0;
  auto decoded = decode(reader, &version);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(version, kVersion1);
  EXPECT_EQ(decoded.value(), original);
}

namespace {
RouterKey sample_router_key() {
  RouterKey key;
  key.announce = true;
  key.subject_key_identifier.fill(0x5A);
  key.asn = net::Asn(64500);
  key.subject_public_key_info = {1, 2, 3, 4, 5, 6, 7, 8};
  return key;
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(
    AllTypesV1, PduRoundTripV1,
    ::testing::Values(Pdu{SerialNotify{7, 42}}, Pdu{ResetQuery{}},
                      Pdu{EndOfData{7, 42, 1800, 300, 3600}},
                      Pdu{sample_router_key()},
                      Pdu{ErrorReport{ErrorCode::kUnexpectedProtocolVersion,
                                      {},
                                      "v"}}),
    pdu_test_name);

TEST(PduV1, EndOfDataCarriesIntervals) {
  const Pdu pdu{EndOfData{7, 42, 1111, 222, 3333}};
  const auto bytes = encode(pdu, kVersion1);
  EXPECT_EQ(bytes.size(), 24u);
  util::ByteReader reader(bytes);
  auto decoded = decode(reader);
  ASSERT_TRUE(decoded.ok());
  const auto& eod = std::get<EndOfData>(decoded.value());
  EXPECT_EQ(eod.refresh_interval, 1111u);
  EXPECT_EQ(eod.retry_interval, 222u);
  EXPECT_EQ(eod.expire_interval, 3333u);
}

TEST(PduV1, V0EndOfDataKeepsDefaults) {
  const Pdu pdu{EndOfData{7, 42, 1111, 222, 3333}};
  const auto bytes = encode(pdu, kVersion0);
  EXPECT_EQ(bytes.size(), 12u);  // intervals not on the v0 wire
  util::ByteReader reader(bytes);
  auto decoded = decode(reader);
  ASSERT_TRUE(decoded.ok());
  const auto& eod = std::get<EndOfData>(decoded.value());
  EXPECT_EQ(eod.serial, 42u);
  EXPECT_EQ(eod.refresh_interval, 3600u);  // struct default
}

TEST(PduV1, RouterKeyRejectedAtV0) {
  const auto bytes = encode(Pdu{sample_router_key()}, kVersion1);
  util::Bytes downgraded = bytes;
  downgraded[0] = kVersion0;
  util::ByteReader reader(downgraded);
  EXPECT_FALSE(decode(reader).ok());
}

TEST(PduV1, MixedVersionStreamRejected) {
  util::ByteWriter w;
  w.put_bytes(encode(Pdu{CacheResponse{3}}, kVersion1));
  w.put_bytes(encode(Pdu{EndOfData{3, 9}}, kVersion0));
  EXPECT_FALSE(decode_stream(w.bytes()).ok());
}

TEST(VersionNegotiation, V1ClientAgainstV1Cache) {
  CacheServer cache(11, {V("10.0.0.0/16", 16, 65001)});
  cache.add_router_key(sample_router_key());
  RouterClient client;  // prefers v1
  ASSERT_TRUE(client.sync(cache).ok());
  EXPECT_EQ(client.version(), kVersion1);
  EXPECT_EQ(client.vrps().size(), 1u);
  ASSERT_EQ(client.router_keys().size(), 1u);
  EXPECT_EQ(client.router_keys()[0], sample_router_key());
  EXPECT_EQ(client.stats().version_downgrades, 0u);
}

TEST(VersionNegotiation, V1ClientDowngradesToV0Cache) {
  CacheServer cache(11, {V("10.0.0.0/16", 16, 65001)}, 16, kVersion0);
  cache.add_router_key(sample_router_key());  // must never be served at v0
  RouterClient client;
  ASSERT_TRUE(client.sync(cache).ok());
  EXPECT_EQ(client.version(), kVersion0);
  EXPECT_EQ(client.stats().version_downgrades, 1u);
  EXPECT_EQ(client.vrps().size(), 1u);
  EXPECT_TRUE(client.router_keys().empty());
}

TEST(VersionNegotiation, V0ClientAgainstV1CacheStaysV0) {
  CacheServer cache(11, {V("10.0.0.0/16", 16, 65001)});
  cache.add_router_key(sample_router_key());
  RouterClient client(kVersion0);
  ASSERT_TRUE(client.sync(cache).ok());
  EXPECT_EQ(client.version(), kVersion0);
  EXPECT_TRUE(client.router_keys().empty());  // v0 session: no router keys
  EXPECT_EQ(client.vrps().size(), 1u);
}

TEST(VersionNegotiation, IntervalsArriveOverV1) {
  CacheServer cache(11, {});
  RouterClient client;
  ASSERT_TRUE(client.sync(cache).ok());
  EXPECT_EQ(client.refresh_interval(), 3600u);
  EXPECT_EQ(client.expire_interval(), 7200u);
}

TEST(VersionNegotiation, IncrementalSyncStaysAtNegotiatedVersion) {
  CacheServer cache(11, {V("10.0.0.0/16", 16, 65001)}, 16, kVersion0);
  RouterClient client;
  ASSERT_TRUE(client.sync(cache).ok());
  EXPECT_EQ(client.version(), kVersion0);
  cache.update({V("10.0.0.0/16", 16, 65001), V("10.2.0.0/16", 16, 65002)});
  ASSERT_TRUE(client.sync(cache).ok());
  EXPECT_EQ(client.version(), kVersion0);
  EXPECT_EQ(client.vrps().size(), 2u);
  EXPECT_EQ(client.stats().version_downgrades, 1u);  // only the first sync
}

}  // namespace
}  // namespace ripki::rtr
