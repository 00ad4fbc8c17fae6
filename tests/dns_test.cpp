#include <gtest/gtest.h>

#include "dns/message.hpp"
#include "dns/name.hpp"
#include "dns/resolver.hpp"
#include "dns/server.hpp"
#include "dns/zone.hpp"
#include "util/strings.hpp"

namespace ripki::dns {
namespace {

DnsName N(const std::string& text) {
  auto name = DnsName::parse(text);
  EXPECT_TRUE(name.ok()) << text;
  return name.value();
}

net::IpAddress A4(const std::string& text) {
  return net::IpAddress::parse(text).value();
}

std::vector<ResourceRecord> Lookup(const ZoneSource& zone, const DnsName& name,
                                   RecordType type) {
  std::vector<ResourceRecord> out;
  zone.lookup(name, type, out);
  return out;
}

// --- DnsName -----------------------------------------------------------------

TEST(DnsName, ParseLowercasesAndSplits) {
  const DnsName name = N("WWW.Example.COM");
  ASSERT_EQ(name.label_count(), 3u);
  EXPECT_EQ(name.label(0), "www");
  EXPECT_EQ(name.to_string(), "www.example.com");
}

TEST(DnsName, TrailingDotAccepted) {
  EXPECT_EQ(N("example.com."), N("example.com"));
}

TEST(DnsName, RootName) {
  EXPECT_TRUE(N("").is_root());
  EXPECT_TRUE(N(".").is_root());
  EXPECT_EQ(N("").to_string(), "");
}

TEST(DnsName, RejectsBadLabels) {
  EXPECT_FALSE(DnsName::parse("a..b").ok());
  EXPECT_FALSE(DnsName::parse(std::string(64, 'a') + ".com").ok());
  // > 255 octets total.
  std::string longname;
  for (int i = 0; i < 50; ++i) longname += "abcdef.";
  longname += "com";
  EXPECT_FALSE(DnsName::parse(longname).ok());
}

TEST(DnsName, PrependAndSuffix) {
  const DnsName apex = N("example.com");
  const DnsName www = apex.prepended("WWW");
  EXPECT_EQ(www.to_string(), "www.example.com");
  EXPECT_TRUE(www.ends_with(apex));
  EXPECT_TRUE(www.ends_with(N("com")));
  EXPECT_TRUE(www.ends_with(www));
  EXPECT_FALSE(apex.ends_with(www));
  EXPECT_FALSE(N("notexample.com").ends_with(apex));
}

TEST(DnsName, HashConsistent) {
  EXPECT_EQ(DnsNameHash{}(N("a.b.c")), DnsNameHash{}(N("A.B.C")));
  EXPECT_NE(DnsNameHash{}(N("a.b.c")), DnsNameHash{}(N("a.bc")));
}

// --- Message codec ---------------------------------------------------------------

TEST(Message, QueryRoundTrip) {
  const Message query = Message::query(0x1234, N("www.example.com"), RecordType::kA);
  const auto bytes = encode(query);
  auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded.value().id, 0x1234);
  EXPECT_FALSE(decoded.value().is_response);
  ASSERT_EQ(decoded.value().questions.size(), 1u);
  EXPECT_EQ(decoded.value().questions[0].name, N("www.example.com"));
  EXPECT_EQ(decoded.value().questions[0].type, RecordType::kA);
}

TEST(Message, ResponseWithAllRecordTypesRoundTrips) {
  Message m;
  m.id = 7;
  m.is_response = true;
  m.authoritative = true;
  m.rcode = Rcode::kNoError;
  m.questions.push_back(Question{N("a.example.com"), RecordType::kA});
  m.answers.push_back(ResourceRecord::a(N("a.example.com"), A4("192.0.2.1"), 60));
  m.answers.push_back(
      ResourceRecord::aaaa(N("a.example.com"), A4("2a00:1450::1"), 60));
  m.answers.push_back(
      ResourceRecord::cname(N("alias.example.com"), N("a.example.com")));
  m.authority.push_back(ResourceRecord{
      N("example.com"), RecordType::kSoa, 300,
      SoaData{N("ns1.example.com"), N("admin.example.com"), 1, 2, 3, 4, 5}});
  m.additional.push_back(
      ResourceRecord{N("example.com"), RecordType::kTxt, 300, std::string("hello")});
  m.additional.push_back(ResourceRecord{N("example.com"), RecordType::kNs, 300,
                                        DnsName(N("ns1.example.com"))});

  const auto bytes = encode(m);
  auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  const Message& d = decoded.value();
  EXPECT_TRUE(d.is_response);
  EXPECT_TRUE(d.authoritative);
  ASSERT_EQ(d.answers.size(), 3u);
  EXPECT_EQ(d.answers[0], m.answers[0]);
  EXPECT_EQ(d.answers[1], m.answers[1]);
  EXPECT_EQ(d.answers[2], m.answers[2]);
  ASSERT_EQ(d.authority.size(), 1u);
  EXPECT_EQ(d.authority[0], m.authority[0]);
  ASSERT_EQ(d.additional.size(), 2u);
  EXPECT_EQ(d.additional[0], m.additional[0]);
  EXPECT_EQ(d.additional[1], m.additional[1]);
}

TEST(Message, CompressionShrinksRepeatedNames) {
  Message m;
  m.id = 1;
  m.is_response = true;
  m.questions.push_back(Question{N("www.long-domain-name.example.com"),
                                 RecordType::kA});
  for (int i = 0; i < 5; ++i) {
    m.answers.push_back(ResourceRecord::a(N("www.long-domain-name.example.com"),
                                          A4("192.0.2.1")));
  }
  const auto bytes = encode(m);
  // Uncompressed, the name alone is 34 bytes x 6 occurrences; compression
  // must collapse each repeat to a 2-byte pointer.
  EXPECT_LT(bytes.size(), 150u);
  auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().answers[4].name, N("www.long-domain-name.example.com"));
}

TEST(Message, CompressionSharesSuffixes) {
  Message m;
  m.id = 1;
  m.is_response = true;
  m.answers.push_back(ResourceRecord::cname(N("a.example.com"), N("b.example.com")));
  const auto bytes = encode(m);
  auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<DnsName>(decoded.value().answers[0].rdata), N("b.example.com"));
}

TEST(Message, DecodeRejectsTruncation) {
  const Message query = Message::query(1, N("www.example.com"), RecordType::kA);
  auto bytes = encode(query);
  for (std::size_t cut : {std::size_t{1}, std::size_t{5}, std::size_t{11},
                          bytes.size() - 1}) {
    util::Bytes truncated(bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(decode(truncated).ok()) << "cut=" << cut;
  }
}

TEST(Message, DecodeRejectsTrailingGarbage) {
  auto bytes = encode(Message::query(1, N("example.com"), RecordType::kA));
  bytes.push_back(0xFF);
  EXPECT_FALSE(decode(bytes).ok());
}

TEST(Message, DecodeRejectsCompressionLoop) {
  // Hand-craft a message whose qname is a pointer pointing at itself.
  util::ByteWriter w;
  w.put_u16(1);   // id
  w.put_u16(0);   // flags
  w.put_u16(1);   // qdcount
  w.put_u16(0);
  w.put_u16(0);
  w.put_u16(0);
  w.put_u16(0xC00C);  // name: pointer to offset 12 (itself)
  w.put_u16(1);       // qtype
  w.put_u16(1);       // qclass
  EXPECT_FALSE(decode(w.bytes()).ok());
}

TEST(Message, DecodeRejectsForwardPointer) {
  util::ByteWriter w;
  w.put_u16(1);
  w.put_u16(0);
  w.put_u16(1);
  w.put_u16(0);
  w.put_u16(0);
  w.put_u16(0);
  w.put_u16(0xC020);  // points forward past the name
  w.put_u16(1);
  w.put_u16(1);
  EXPECT_FALSE(decode(w.bytes()).ok());
}

TEST(Message, RcodeSurvivesRoundTrip) {
  Message m;
  m.id = 3;
  m.is_response = true;
  m.rcode = Rcode::kNxDomain;
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().rcode, Rcode::kNxDomain);
}

// --- Golden wire bytes ----------------------------------------------------------
//
// Encoder output pinned byte for byte, compression pointers included. The
// hex strings were captured from the string-dictionary encoder this codec
// replaced, so they check the rewrite against an independent oracle.

std::string Hex(const util::Bytes& bytes) { return util::to_hex(bytes); }

void ExpectSameMessage(const Message& a, const Message& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.is_response, b.is_response);
  EXPECT_EQ(a.authoritative, b.authoritative);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.recursion_desired, b.recursion_desired);
  EXPECT_EQ(a.recursion_available, b.recursion_available);
  EXPECT_EQ(a.rcode, b.rcode);
  EXPECT_EQ(a.questions, b.questions);
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.authority, b.authority);
  EXPECT_EQ(a.additional, b.additional);
}

TEST(Message, GoldenWireBytes) {
  // One-question query.
  const Message query = Message::query(0x1234, N("www.example.com"), RecordType::kA);

  // 2-hop CNAME chain whose suffixes compress against the question and
  // against each other.
  Message chain;
  chain.id = 0x2222;
  chain.is_response = true;
  chain.authoritative = true;
  chain.questions.push_back(Question{N("www.shop.example.com"), RecordType::kA});
  chain.answers.push_back(ResourceRecord::cname(
      N("www.shop.example.com"), N("shop.example.com.edgesuite.net")));
  chain.answers.push_back(ResourceRecord::cname(N("shop.example.com.edgesuite.net"),
                                                N("a495.g.akamai.net"), 120));
  chain.answers.push_back(ResourceRecord::a(N("a495.g.akamai.net"), A4("192.0.2.7"), 20));
  chain.answers.push_back(ResourceRecord::a(N("a495.g.akamai.net"), A4("192.0.2.8"), 20));

  // Every record type the codec knows.
  Message all;
  all.id = 0xBEEF;
  all.is_response = true;
  all.authoritative = true;
  all.recursion_available = true;
  all.questions.push_back(Question{N("example.org"), RecordType::kDnskey});
  all.answers.push_back(ResourceRecord::a(N("host.example.org"), A4("198.51.100.4"), 60));
  all.answers.push_back(
      ResourceRecord::aaaa(N("host.example.org"), A4("2001:db8::4"), 60));
  all.answers.push_back(ResourceRecord{N("example.org"), RecordType::kDnskey, 3600,
                                       DnskeyData{257, 3, 8, "keybytes"}});
  all.authority.push_back(ResourceRecord{N("example.org"), RecordType::kNs, 86400,
                                         N("ns1.example.org")});
  all.authority.push_back(ResourceRecord{
      N("example.org"), RecordType::kSoa, 3600,
      SoaData{N("ns1.example.org"), N("hostmaster.example.org"), 2015010101, 7200,
              900, 1209600, 300}});
  all.additional.push_back(ResourceRecord{N("example.org"), RecordType::kTxt, 300,
                                          std::string("v=spf1 -all")});

  const struct {
    const char* what;
    const Message& message;
    const char* hex;
  } cases[] = {
      {"query", query,
       "12340100000100000000000003777777076578616d706c6503636f6d00000100"
       "01"},
      {"cname chain", chain,
       "222285000001000400000000037777770473686f70076578616d706c6503636f"
       "6d0000010001c00c000500010000012c00200473686f70076578616d706c6503"
       "636f6d09656467657375697465036e657400c032000500010000007800100461"
       "343935016706616b616d6169c04dc05e00010001000000140004c0000207c05e"
       "00010001000000140004c0000208"},
      {"all types", all,
       "beef85800001000300020001076578616d706c65036f7267000030000104686f"
       "7374c00c000100010000003c0004c6336404c01d001c00010000003c00102001"
       "0db8000000000000000000000004c00c0030000100000e10000c010103086b65"
       "796279746573c00c00020001000151800006036e7331c00cc00c000600010000"
       "0e100023c0720a686f73746d6173746572c00c781a9d3500001c200000038400"
       "1275000000012cc00c001000010000012c000c0b763d73706631202d616c6c"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    const util::Bytes bytes = encode(c.message);
    EXPECT_EQ(Hex(bytes), c.hex);
    auto decoded = decode(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    ExpectSameMessage(decoded.value(), c.message);
  }

  // The 40-answer response, as truncated UDP and as its TCP form.
  InMemoryZoneDb zones;
  for (int i = 0; i < 40; ++i) {
    zones.add(ResourceRecord::a(N("many.example.com"),
                                A4("192.0.2." + std::to_string(i + 1))));
  }
  const AuthoritativeServer server(&zones);
  const util::Bytes many_query =
      encode(Message::query(0x0505, N("many.example.com"), RecordType::kA));
  const util::Bytes udp = server.handle_datagram(many_query);
  const util::Bytes tcp = server.handle_stream(many_query);
  EXPECT_EQ(Hex(udp),
            "050587000001000000000000046d616e79076578616d706c6503636f6d000001"
            "0001");
  EXPECT_EQ(Hex(tcp),
            "050585000001002800000000046d616e79076578616d706c6503636f6d000001"
            "0001c00c000100010000012c0004c0000201c00c000100010000012c0004c000"
            "0202c00c000100010000012c0004c0000203c00c000100010000012c0004c000"
            "0204c00c000100010000012c0004c0000205c00c000100010000012c0004c000"
            "0206c00c000100010000012c0004c0000207c00c000100010000012c0004c000"
            "0208c00c000100010000012c0004c0000209c00c000100010000012c0004c000"
            "020ac00c000100010000012c0004c000020bc00c000100010000012c0004c000"
            "020cc00c000100010000012c0004c000020dc00c000100010000012c0004c000"
            "020ec00c000100010000012c0004c000020fc00c000100010000012c0004c000"
            "0210c00c000100010000012c0004c0000211c00c000100010000012c0004c000"
            "0212c00c000100010000012c0004c0000213c00c000100010000012c0004c000"
            "0214c00c000100010000012c0004c0000215c00c000100010000012c0004c000"
            "0216c00c000100010000012c0004c0000217c00c000100010000012c0004c000"
            "0218c00c000100010000012c0004c0000219c00c000100010000012c0004c000"
            "021ac00c000100010000012c0004c000021bc00c000100010000012c0004c000"
            "021cc00c000100010000012c0004c000021dc00c000100010000012c0004c000"
            "021ec00c000100010000012c0004c000021fc00c000100010000012c0004c000"
            "0220c00c000100010000012c0004c0000221c00c000100010000012c0004c000"
            "0222c00c000100010000012c0004c0000223c00c000100010000012c0004c000"
            "0224c00c000100010000012c0004c0000225c00c000100010000012c0004c000"
            "0226c00c000100010000012c0004c0000227c00c000100010000012c0004c000"
            "0228");
  for (const util::Bytes* bytes : {&udp, &tcp}) {
    auto decoded = decode(*bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(encode(decoded.value()), *bytes);
  }
  auto udp_message = decode(udp);
  ASSERT_TRUE(udp_message.ok());
  EXPECT_TRUE(udp_message.value().truncated);
  EXPECT_TRUE(udp_message.value().answers.empty());
}

// --- Zone DB + server -----------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : server_(&zones_) {
    zones_.add(ResourceRecord::a(N("direct.example.com"), A4("192.0.2.10")));
    zones_.add(ResourceRecord::a(N("direct.example.com"), A4("192.0.2.11")));
    zones_.add(ResourceRecord::aaaa(N("direct.example.com"), A4("2a00::10")));
    zones_.add(ResourceRecord::cname(N("alias.example.com"), N("direct.example.com")));
    zones_.add(ResourceRecord::cname(N("deep.example.com"), N("alias.example.com")));
    // CNAME loop.
    zones_.add(ResourceRecord::cname(N("loop-a.example.com"), N("loop-b.example.com")));
    zones_.add(ResourceRecord::cname(N("loop-b.example.com"), N("loop-a.example.com")));
  }

  InMemoryZoneDb zones_;
  AuthoritativeServer server_;
};

TEST_F(ServerTest, AnswersDirectQuery) {
  const Message response =
      server_.handle(Message::query(9, N("direct.example.com"), RecordType::kA));
  EXPECT_TRUE(response.is_response);
  EXPECT_TRUE(response.authoritative);
  EXPECT_EQ(response.id, 9);
  EXPECT_EQ(response.rcode, Rcode::kNoError);
  EXPECT_EQ(response.answers.size(), 2u);
}

TEST_F(ServerTest, ReturnsCnameForAliasedName) {
  const Message response =
      server_.handle(Message::query(9, N("alias.example.com"), RecordType::kA));
  ASSERT_EQ(response.answers.size(), 1u);
  EXPECT_EQ(response.answers[0].type, RecordType::kCname);
}

TEST_F(ServerTest, NxDomainForUnknownName) {
  const Message response =
      server_.handle(Message::query(9, N("missing.example.com"), RecordType::kA));
  EXPECT_EQ(response.rcode, Rcode::kNxDomain);
  EXPECT_TRUE(response.answers.empty());
  EXPECT_EQ(server_.stats().nxdomain, 1u);
}

TEST_F(ServerTest, NoErrorEmptyForExistingNameWrongType) {
  const Message response =
      server_.handle(Message::query(9, N("direct.example.com"), RecordType::kTxt));
  EXPECT_EQ(response.rcode, Rcode::kNoError);
  EXPECT_TRUE(response.answers.empty());
}

TEST_F(ServerTest, MalformedBytesGetFormErr) {
  const util::Bytes garbage = {1, 2, 3};
  const auto response_bytes = server_.handle_bytes(garbage);
  auto response = decode(response_bytes);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().rcode, Rcode::kFormErr);
}

// --- StubResolver ------------------------------------------------------------------------

TEST_F(ServerTest, ResolverDirect) {
  StubResolver resolver(&server_);
  auto result = resolver.resolve(N("direct.example.com"), RecordType::kA);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().addresses.size(), 2u);
  EXPECT_EQ(result.value().cname_hops(), 0u);
}

TEST_F(ServerTest, ResolverChasesChain) {
  StubResolver resolver(&server_);
  auto result = resolver.resolve(N("deep.example.com"), RecordType::kA);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().addresses.size(), 2u);
  EXPECT_EQ(result.value().cname_hops(), 2u);
  ASSERT_EQ(result.value().chain.size(), 3u);
  EXPECT_EQ(result.value().chain[0], N("deep.example.com"));
  EXPECT_EQ(result.value().chain[2], N("direct.example.com"));
}

TEST_F(ServerTest, ResolverDetectsLoop) {
  StubResolver resolver(&server_);
  auto result = resolver.resolve(N("loop-a.example.com"), RecordType::kA);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("loop"), std::string::npos);
}

TEST_F(ServerTest, ResolverReportsNxDomain) {
  StubResolver resolver(&server_);
  auto result = resolver.resolve(N("missing.example.com"), RecordType::kA);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rcode, Rcode::kNxDomain);
  EXPECT_TRUE(result.value().addresses.empty());
}

TEST_F(ServerTest, ResolveAllMergesFamilies) {
  StubResolver resolver(&server_);
  auto result = resolver.resolve_all(N("direct.example.com"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().addresses.size(), 3u);  // 2x A + 1x AAAA
  EXPECT_EQ(result.value().rcode, Rcode::kNoError);
}

TEST_F(ServerTest, ResolverCountsQueries) {
  StubResolver resolver(&server_);
  (void)resolver.resolve(N("deep.example.com"), RecordType::kA);
  EXPECT_EQ(resolver.queries_sent(), 3u);  // deep -> alias -> direct
}

TEST_F(ServerTest, DatagramTruncationAndTcpRetry) {
  // A name with enough A records that the response exceeds 512 bytes.
  for (int i = 0; i < 40; ++i) {
    zones_.add(ResourceRecord::a(
        N("many.example.com"),
        A4("192.0.2." + std::to_string(i + 1))));
  }

  // Raw UDP path: truncated, empty answers, TC set.
  const auto query = Message::query(5, N("many.example.com"), RecordType::kA);
  const auto udp_bytes = server_.handle_datagram(encode(query));
  EXPECT_LE(udp_bytes.size(), AuthoritativeServer::kUdpPayloadLimit);
  auto udp = decode(udp_bytes);
  ASSERT_TRUE(udp.ok());
  EXPECT_TRUE(udp.value().truncated);
  EXPECT_TRUE(udp.value().answers.empty());
  EXPECT_EQ(server_.stats().truncated, 1u);

  // TCP path: complete.
  auto tcp = decode(server_.handle_stream(encode(query)));
  ASSERT_TRUE(tcp.ok());
  EXPECT_FALSE(tcp.value().truncated);
  EXPECT_EQ(tcp.value().answers.size(), 40u);

  // The resolver does the retry automatically and still gets everything.
  StubResolver resolver(&server_);
  auto result = resolver.resolve(N("many.example.com"), RecordType::kA);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result.value().addresses.size(), 40u);
  EXPECT_EQ(resolver.tcp_retries(), 1u);
}

TEST_F(ServerTest, SmallResponsesAreNotTruncated) {
  const auto query = Message::query(6, N("direct.example.com"), RecordType::kA);
  auto udp = decode(server_.handle_datagram(encode(query)));
  ASSERT_TRUE(udp.ok());
  EXPECT_FALSE(udp.value().truncated);
  EXPECT_EQ(udp.value().answers.size(), 2u);

  StubResolver resolver(&server_);
  auto result = resolver.resolve(N("direct.example.com"), RecordType::kA);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(resolver.tcp_retries(), 0u);
}

TEST(Message, TruncatedFlagRoundTrips) {
  Message m;
  m.id = 2;
  m.is_response = true;
  m.truncated = true;
  auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().truncated);
}

TEST(ZoneDb, CountsRecords) {
  InMemoryZoneDb zones;
  zones.add(ResourceRecord::a(N("a.example"), A4("192.0.2.1")));
  zones.add(ResourceRecord::a(N("a.example"), A4("192.0.2.2")));
  EXPECT_EQ(zones.record_count(), 2u);
  EXPECT_TRUE(zones.name_exists(N("a.example")));
  EXPECT_FALSE(zones.name_exists(N("b.example")));
  EXPECT_EQ(Lookup(zones, N("a.example"), RecordType::kA).size(), 2u);
  EXPECT_TRUE(Lookup(zones, N("a.example"), RecordType::kAaaa).empty());
}

// --- Overlay zone (incremental pipeline's churn layer) -----------------------

class OverlayZoneTest : public ::testing::Test {
 protected:
  OverlayZoneTest() : overlay_(base_) {
    base_.add(ResourceRecord::a(N("www.site.example"), A4("192.0.2.10")));
    base_.add(ResourceRecord::a(N("site.example"), A4("192.0.2.11")));
  }

  InMemoryZoneDb base_;
  OverlayZone overlay_;
};

TEST_F(OverlayZoneTest, PassesThroughUntouchedNames) {
  EXPECT_EQ(Lookup(overlay_, N("www.site.example"), RecordType::kA).size(), 1u);
  EXPECT_TRUE(overlay_.name_exists(N("site.example")));
  EXPECT_FALSE(overlay_.name_exists(N("gone.example")));
  EXPECT_EQ(overlay_.serial(), 0u);
  EXPECT_EQ(overlay_.dirty_count(), 0u);
}

TEST_F(OverlayZoneTest, SuppressionYieldsNxDomainAndIsReversible) {
  overlay_.suppress(N("www.site.example"));
  EXPECT_FALSE(overlay_.name_exists(N("www.site.example")));
  EXPECT_TRUE(Lookup(overlay_, N("www.site.example"), RecordType::kA).empty());
  EXPECT_EQ(overlay_.serial(), 1u);

  // The server over the overlay must answer NXDOMAIN, not an empty NOERROR.
  AuthoritativeServer server(&overlay_);
  StubResolver resolver(&server);
  auto r = resolver.resolve_all(N("www.site.example"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rcode, Rcode::kNxDomain);

  overlay_.unsuppress(N("www.site.example"));
  EXPECT_EQ(Lookup(overlay_, N("www.site.example"), RecordType::kA).size(), 1u);
  EXPECT_EQ(overlay_.serial(), 2u);
}

TEST_F(OverlayZoneTest, OverrideFullyMasksBaseForThatName) {
  // Base has an A record; the override replaces the name with a CNAME
  // only. No fall-through to the base A record for other types.
  overlay_.set_records(
      N("www.site.example"),
      {ResourceRecord::cname(N("www.site.example"), N("edge.cdn.example"))});
  EXPECT_TRUE(Lookup(overlay_, N("www.site.example"), RecordType::kA).empty());
  EXPECT_EQ(Lookup(overlay_, N("www.site.example"), RecordType::kCname).size(),
            1u);
  // Other names are untouched.
  EXPECT_EQ(Lookup(overlay_, N("site.example"), RecordType::kA).size(), 1u);

  overlay_.clear_records(N("www.site.example"));
  EXPECT_EQ(Lookup(overlay_, N("www.site.example"), RecordType::kA).size(), 1u);
}

TEST_F(OverlayZoneTest, SerialBumpsOnlyOnEffectiveMutation) {
  overlay_.suppress(N("www.site.example"));
  EXPECT_EQ(overlay_.serial(), 1u);
  overlay_.suppress(N("www.site.example"));  // already suppressed: no-op
  EXPECT_EQ(overlay_.serial(), 1u);
  overlay_.unsuppress(N("gone.example"));  // not suppressed: no-op
  EXPECT_EQ(overlay_.serial(), 1u);
  overlay_.clear_records(N("gone.example"));  // no override: no-op
  EXPECT_EQ(overlay_.serial(), 1u);
}

TEST_F(OverlayZoneTest, DirtySetDrainsInMutationOrderDeduplicated) {
  overlay_.suppress(N("www.site.example"));
  overlay_.set_records(N("site.example"),
                       {ResourceRecord::a(N("site.example"), A4("192.0.2.99"))});
  overlay_.unsuppress(N("www.site.example"));  // second touch, same name

  EXPECT_EQ(overlay_.dirty_count(), 2u);
  const auto dirty = overlay_.drain_dirty();
  ASSERT_EQ(dirty.size(), 2u);
  EXPECT_EQ(dirty[0], N("www.site.example"));
  EXPECT_EQ(dirty[1], N("site.example"));
  EXPECT_EQ(overlay_.dirty_count(), 0u);

  // Draining resets dedup: the next mutation dirties the name again.
  overlay_.suppress(N("site.example"));
  const auto again = overlay_.drain_dirty();
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0], N("site.example"));
}

TEST_F(OverlayZoneTest, SuppressionMasksOverrides) {
  overlay_.set_records(N("www.site.example"),
                       {ResourceRecord::a(N("www.site.example"), A4("192.0.2.50"))});
  overlay_.suppress(N("www.site.example"));
  EXPECT_FALSE(overlay_.name_exists(N("www.site.example")));
  EXPECT_TRUE(Lookup(overlay_, N("www.site.example"), RecordType::kA).empty());
  // Unsuppressing re-exposes the override, not the base record.
  overlay_.unsuppress(N("www.site.example"));
  const auto records = Lookup(overlay_, N("www.site.example"), RecordType::kA);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::get<net::IpAddress>(records[0].rdata), A4("192.0.2.50"));
}

}  // namespace
}  // namespace ripki::dns
