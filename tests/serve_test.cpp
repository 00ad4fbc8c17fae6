// The serving layer end to end: the HTTP/1.1 wire core (parser +
// serializer), the event-loop server over real sockets (keep-alive,
// pipelining), the response cache and token-bucket limiter as pure
// logic, and the query service against a real pipeline run — including
// byte-matching lookup answers against values computed directly from the
// core::Dataset, and snapshot swaps racing in-flight reads.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/export.hpp"
#include "core/pipeline.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/request_context.hpp"
#include "serve/access_log.hpp"
#include "serve/cache.hpp"
#include "serve/http.hpp"
#include "serve/ratelimit.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "web/ecosystem.hpp"

namespace ripki::serve {
namespace {

using namespace std::chrono_literals;

/// Cache values are shared references now; "" stands in for a miss.
std::string deref(const std::shared_ptr<const std::string>& value) {
  return value ? *value : std::string();
}

// --- wire core: request parser ----------------------------------------------

TEST(HttpParser, ParsesSimpleGet) {
  RequestParser parser;
  ASSERT_TRUE(parser.feed("GET /v1/summary?pretty=1 HTTP/1.1\r\n"
                          "Host: localhost\r\n\r\n"));
  auto request = parser.next();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->method, "GET");
  EXPECT_EQ(request->target, "/v1/summary?pretty=1");
  EXPECT_EQ(request->path, "/v1/summary");
  EXPECT_EQ(request->query, "pretty=1");
  EXPECT_TRUE(request->keep_alive);  // 1.1 default
  EXPECT_FALSE(parser.next().has_value());
}

TEST(HttpParser, IncrementalBytesAssembleOneRequest) {
  RequestParser parser;
  const std::string raw = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  for (char c : raw) {
    ASSERT_TRUE(parser.feed(std::string_view(&c, 1)));
  }
  ASSERT_TRUE(parser.next().has_value());
}

TEST(HttpParser, PipelinedRequestsPopInOrder) {
  RequestParser parser;
  ASSERT_TRUE(parser.feed("GET /first HTTP/1.1\r\n\r\n"
                          "GET /second HTTP/1.1\r\n\r\n"
                          "GET /third HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(parser.next()->path, "/first");
  EXPECT_EQ(parser.next()->path, "/second");
  EXPECT_EQ(parser.next()->path, "/third");
  EXPECT_FALSE(parser.next().has_value());
}

TEST(HttpParser, KeepAliveDefaultsFollowVersion) {
  RequestParser parser;
  ASSERT_TRUE(parser.feed("GET / HTTP/1.0\r\n\r\n"));
  EXPECT_FALSE(parser.next()->keep_alive);

  ASSERT_TRUE(parser.feed("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
  EXPECT_TRUE(parser.next()->keep_alive);

  ASSERT_TRUE(parser.feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
  EXPECT_FALSE(parser.next()->keep_alive);
}

TEST(HttpParser, ContentLengthBodyIsConsumedNotDesynced) {
  RequestParser parser;
  ASSERT_TRUE(parser.feed("POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\n"
                          "hello"
                          "GET /after HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(parser.next()->method, "POST");
  auto after = parser.next();
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->path, "/after");
}

TEST(HttpParser, RejectsChunkedAndBadVersions) {
  RequestParser chunked;
  EXPECT_FALSE(chunked.feed(
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"));
  EXPECT_TRUE(chunked.failed());

  RequestParser version;
  EXPECT_FALSE(version.feed("GET / HTTP/2.0\r\n\r\n"));

  RequestParser garbage;
  EXPECT_FALSE(garbage.feed("not an http request\r\n\r\n"));
}

TEST(HttpParser, OversizedHeadFails) {
  RequestParser parser(RequestParser::Limits{.max_head_bytes = 64,
                                             .max_body_bytes = 64});
  std::string head = "GET / HTTP/1.1\r\nX-Pad: ";
  head.append(200, 'a');
  EXPECT_FALSE(parser.feed(head));
  EXPECT_TRUE(parser.failed());
}

TEST(HttpParser, SerializeResponseCarriesLengthAndConnection) {
  const std::string keep =
      serialize_response(HttpResponse{200, "application/json", "{}", {}}, true);
  EXPECT_NE(keep.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(keep.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(keep.find("Connection: keep-alive\r\n"), std::string::npos);

  const std::string close = serialize_response(
      HttpResponse{429, "text/plain", "no", {{"Retry-After", "1"}}}, false);
  EXPECT_NE(close.find("429 Too Many Requests"), std::string::npos);
  EXPECT_NE(close.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(close.find("Connection: close\r\n"), std::string::npos);
}

// --- response cache (pure logic, injected clock) ----------------------------

ResponseCache::Clock::time_point t0() { return ResponseCache::Clock::time_point{}; }

TEST(ResponseCache, HitThenTtlExpiry) {
  ResponseCache cache({.capacity = 8, .shards = 1, .ttl = 100ms});
  cache.put("/a", "alpha", t0());
  EXPECT_EQ(deref(cache.get("/a", t0() + 99ms)), "alpha");
  EXPECT_EQ(cache.get("/a", t0() + 101ms), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.expired(), 1u);
  EXPECT_EQ(cache.size(), 0u);  // expired entry removed on the way out
}

TEST(ResponseCache, EvictsLeastRecentlyUsed) {
  ResponseCache cache({.capacity = 3, .shards = 1, .ttl = 10'000ms});
  cache.put("/a", "a", t0());
  cache.put("/b", "b", t0());
  cache.put("/c", "c", t0());
  // Touch /a so /b becomes the LRU entry, then overflow the shard.
  EXPECT_NE(cache.get("/a", t0() + 1ms), nullptr);
  cache.put("/d", "d", t0() + 2ms);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.get("/b", t0() + 3ms), nullptr);
  EXPECT_NE(cache.get("/a", t0() + 3ms), nullptr);
  EXPECT_NE(cache.get("/c", t0() + 3ms), nullptr);
  EXPECT_NE(cache.get("/d", t0() + 3ms), nullptr);
}

TEST(ResponseCache, ShardsEvictIndependently) {
  ResponseCache cache({.capacity = 8, .shards = 4, .ttl = 10'000ms});
  ASSERT_EQ(cache.capacity_per_shard(), 2u);

  // Collect keys per shard, then overflow exactly one shard.
  std::vector<std::string> same_shard, other_shard;
  const std::uint32_t target = cache.shard_of("/seed");
  for (int i = 0; i < 64 && (same_shard.size() < 3 || other_shard.empty());
       ++i) {
    std::string key = "/key" + std::to_string(i);
    (cache.shard_of(key) == target ? same_shard : other_shard)
        .push_back(std::move(key));
  }
  ASSERT_GE(same_shard.size(), 3u);
  ASSERT_GE(other_shard.size(), 1u);

  cache.put(other_shard[0], "safe", t0());
  for (const auto& key : same_shard) cache.put(key, "x", t0());
  // The target shard evicted (3 inserts, capacity 2); the other did not.
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.get(other_shard[0], t0() + 1ms), nullptr);
}

TEST(ResponseCache, ClearDropsEverything) {
  ResponseCache cache({.capacity = 8, .shards = 2, .ttl = 10'000ms});
  cache.put("/a", "a", t0());
  cache.put("/b", "b", t0());
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get("/a", t0()), nullptr);
}

// --- token bucket (pure logic, injected clock) -------------------------------

TokenBucketLimiter::Clock::time_point l0() {
  return TokenBucketLimiter::Clock::time_point{};
}

TEST(TokenBucket, BurstCapThenReject) {
  TokenBucketLimiter limiter({.tokens_per_sec = 1.0, .burst = 3.0});
  EXPECT_TRUE(limiter.allow("10.0.0.1", l0()));
  EXPECT_TRUE(limiter.allow("10.0.0.1", l0()));
  EXPECT_TRUE(limiter.allow("10.0.0.1", l0()));
  EXPECT_FALSE(limiter.allow("10.0.0.1", l0()));
  EXPECT_EQ(limiter.allowed(), 3u);
  EXPECT_EQ(limiter.rejected(), 1u);
}

TEST(TokenBucket, RefillsContinuouslyAtConfiguredRate) {
  TokenBucketLimiter limiter({.tokens_per_sec = 2.0, .burst = 2.0});
  EXPECT_TRUE(limiter.allow("c", l0()));
  EXPECT_TRUE(limiter.allow("c", l0()));
  EXPECT_FALSE(limiter.allow("c", l0()));
  // 2 tokens/s: 499ms is just short of one token, 500ms lands it.
  EXPECT_FALSE(limiter.allow("c", l0() + 499ms));
  EXPECT_TRUE(limiter.allow("c", l0() + 500ms + 1ms));
  EXPECT_FALSE(limiter.allow("c", l0() + 500ms + 2ms));
  // Refill never exceeds burst: a long quiet period buys exactly `burst`.
  EXPECT_NEAR(limiter.tokens("c", l0() + 1'000'000ms), 2.0, 1e-9);
}

TEST(TokenBucket, ClientsAreIsolated) {
  TokenBucketLimiter limiter({.tokens_per_sec = 1.0, .burst = 1.0});
  EXPECT_TRUE(limiter.allow("a", l0()));
  EXPECT_FALSE(limiter.allow("a", l0()));
  EXPECT_TRUE(limiter.allow("b", l0()));  // a's exhaustion never touches b
  EXPECT_EQ(limiter.client_count(), 2u);
}

TEST(TokenBucket, ZeroRateDisablesLimiting) {
  TokenBucketLimiter limiter({});
  EXPECT_FALSE(limiter.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(limiter.allow("a", l0()));
  EXPECT_EQ(limiter.client_count(), 0u);  // no state touched
}

// --- socket helpers ----------------------------------------------------------

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

/// Reads exactly one HTTP response off a (possibly keep-alive) stream,
/// honouring Content-Length. `carry` holds bytes already read past the
/// previous response.
std::string recv_response(int fd, std::string& carry) {
  auto complete = [](const std::string& data, std::size_t& total) {
    const auto head_end = data.find("\r\n\r\n");
    if (head_end == std::string::npos) return false;
    std::size_t length = 0;
    const auto pos = data.find("Content-Length: ");
    if (pos != std::string::npos && pos < head_end) {
      length = std::strtoul(data.c_str() + pos + 16, nullptr, 10);
    }
    total = head_end + 4 + length;
    return data.size() >= total;
  };

  std::size_t total = 0;
  char buf[4096];
  while (!complete(carry, total)) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return {};
    carry.append(buf, static_cast<std::size_t>(n));
  }
  std::string response = carry.substr(0, total);
  carry.erase(0, total);
  return response;
}

std::string body_of(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

// --- event-loop server over real sockets -------------------------------------

TEST(HttpServer, KeepAliveServesSequentialRequestsOnOneConnection) {
  HttpServer server(HttpServerOptions{});
  server.set_handler([](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "echo:" + request.path, {}};
  });
  ASSERT_TRUE(server.start());

  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  std::string carry;
  for (int i = 0; i < 3; ++i) {
    const std::string path = "/req" + std::to_string(i);
    send_all(fd, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
    const std::string response = recv_response(fd, carry);
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos);
    EXPECT_EQ(body_of(response), "echo:" + path);
  }
  ::close(fd);
  server.stop();
  EXPECT_EQ(server.requests_served(), 3u);
}

TEST(HttpServer, PipelinedRequestsAnswerInOrder) {
  HttpServer server(HttpServerOptions{});
  server.set_handler([](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "echo:" + request.path, {}};
  });
  ASSERT_TRUE(server.start());

  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  // All three requests in one write; responses must come back in order.
  send_all(fd,
           "GET /a HTTP/1.1\r\n\r\n"
           "GET /b HTTP/1.1\r\n\r\n"
           "GET /c HTTP/1.1\r\nConnection: close\r\n\r\n");
  std::string carry;
  EXPECT_EQ(body_of(recv_response(fd, carry)), "echo:/a");
  EXPECT_EQ(body_of(recv_response(fd, carry)), "echo:/b");
  const std::string last = recv_response(fd, carry);
  EXPECT_EQ(body_of(last), "echo:/c");
  EXPECT_NE(last.find("Connection: close"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(HttpServer, MalformedRequestGets400AndClose) {
  HttpServer server(HttpServerOptions{});
  server.set_handler([](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok", {}};
  });
  ASSERT_TRUE(server.start());

  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  send_all(fd, "BOGUS\r\n\r\n");
  std::string carry;
  const std::string response = recv_response(fd, carry);
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos);
  ::close(fd);
  server.stop();
  EXPECT_EQ(server.stats().parse_errors, 1u);
}

TEST(HttpServer, ExecutorFanOutStillOrdersResponses) {
  exec::ThreadPool pool(2);
  HttpServer server(HttpServerOptions{});
  server.set_handler([](const HttpRequest& request) {
    if (request.path == "/slow") {
      std::this_thread::sleep_for(20ms);
    }
    return HttpResponse{200, "text/plain", "echo:" + request.path, {}};
  });
  server.set_executor(
      [&pool](std::function<void()> task) { pool.submit(std::move(task)); });
  ASSERT_TRUE(server.start());

  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  send_all(fd, "GET /slow HTTP/1.1\r\n\r\nGET /fast HTTP/1.1\r\n\r\n");
  std::string carry;
  // Even with /slow parked on a worker, /fast must not overtake it.
  EXPECT_EQ(body_of(recv_response(fd, carry)), "echo:/slow");
  EXPECT_EQ(body_of(recv_response(fd, carry)), "echo:/fast");
  ::close(fd);
  server.stop();
}

// --- serve fleet: sharded reactors, backends, differential oracle ------------

/// X-Ripki-Request-Id is unique per request by design; strip it before
/// byte-comparing responses across server configurations.
std::string scrub_request_id(std::string response) {
  const auto pos = response.find("X-Ripki-Request-Id: ");
  if (pos == std::string::npos) return response;
  const auto eol = response.find("\r\n", pos);
  response.erase(pos, eol - pos + 2);
  return response;
}

struct FleetConfig {
  PollerBackend backend = PollerBackend::kPoll;
  std::uint32_t shards = 1;
  AcceptMode accept = AcceptMode::kAuto;
};

/// The differential matrix: {poll, epoll} x {1, 4} shards, plus the
/// handoff accept path. poll() is the oracle backend everywhere; epoll
/// rows are present only where the platform has it.
std::vector<FleetConfig> fleet_configs() {
  std::vector<FleetConfig> configs{
      {PollerBackend::kPoll, 1, AcceptMode::kAuto},
      {PollerBackend::kPoll, 4, AcceptMode::kAuto},
      {PollerBackend::kPoll, 4, AcceptMode::kHandoff},
  };
  if (poller_backend_available(PollerBackend::kEpoll)) {
    configs.push_back({PollerBackend::kEpoll, 1, AcceptMode::kAuto});
    configs.push_back({PollerBackend::kEpoll, 4, AcceptMode::kAuto});
    configs.push_back({PollerBackend::kEpoll, 4, AcceptMode::kHandoff});
  }
  return configs;
}

/// Runs the keep-alive / pipelining / malformed-request scenarios against
/// one server configuration and returns every (scrubbed) response byte
/// stream, in scenario order.
std::vector<std::string> run_fleet_scenarios(const FleetConfig& config) {
  HttpServerOptions options;
  options.shards = config.shards;
  options.backend = config.backend;
  options.accept_mode = config.accept;
  HttpServer server(options);
  server.set_handler([](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "echo:" + request.path, {}};
  });
  EXPECT_TRUE(server.start());

  std::vector<std::string> transcript;

  // Keep-alive: three sequential requests on one connection.
  {
    const int fd = connect_to(server.port());
    EXPECT_GE(fd, 0);
    std::string carry;
    for (int i = 0; i < 3; ++i) {
      send_all(fd, "GET /ka" + std::to_string(i) + " HTTP/1.1\r\n\r\n");
      transcript.push_back(scrub_request_id(recv_response(fd, carry)));
    }
    ::close(fd);
  }

  // Pipelining: three requests in one write, last one closes.
  {
    const int fd = connect_to(server.port());
    EXPECT_GE(fd, 0);
    send_all(fd,
             "GET /a HTTP/1.1\r\n\r\n"
             "GET /b HTTP/1.1\r\n\r\n"
             "GET /c HTTP/1.1\r\nConnection: close\r\n\r\n");
    std::string carry;
    for (int i = 0; i < 3; ++i) {
      transcript.push_back(scrub_request_id(recv_response(fd, carry)));
    }
    ::close(fd);
  }

  // Malformed request: 400 and close.
  {
    const int fd = connect_to(server.port());
    EXPECT_GE(fd, 0);
    send_all(fd, "BOGUS\r\n\r\n");
    std::string carry;
    transcript.push_back(scrub_request_id(recv_response(fd, carry)));
    ::close(fd);
  }

  server.stop();
  return transcript;
}

TEST(ServeFleet, DifferentialScenariosByteMatchAcrossBackendsAndShards) {
  const auto configs = fleet_configs();
  const std::vector<std::string> oracle = run_fleet_scenarios(configs[0]);
  ASSERT_EQ(oracle.size(), 7u);
  EXPECT_NE(oracle[0].find("200 OK"), std::string::npos);
  EXPECT_NE(oracle[6].find("400 Bad Request"), std::string::npos);

  for (std::size_t c = 1; c < configs.size(); ++c) {
    const auto transcript = run_fleet_scenarios(configs[c]);
    ASSERT_EQ(transcript.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_EQ(transcript[i], oracle[i])
          << "config " << c << " (backend=" << to_string(configs[c].backend)
          << " shards=" << configs[c].shards << ") scenario " << i;
    }
  }
}

TEST(ServeFleet, ReusePortServesEveryConnectionAtFourShards) {
  HttpServerOptions options;
  options.shards = 4;
  HttpServer server(options);
  server.set_handler([](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "echo:" + request.path, {}};
  });
  ASSERT_TRUE(server.start());
  ASSERT_EQ(server.shard_count(), 4u);

  for (int i = 0; i < 16; ++i) {
    const int fd = connect_to(server.port());
    ASSERT_GE(fd, 0);
    std::string carry;
    send_all(fd, "GET /r" + std::to_string(i) + " HTTP/1.1\r\n\r\n");
    const std::string response = recv_response(fd, carry);
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_EQ(body_of(response), "echo:/r" + std::to_string(i));
    ::close(fd);
  }
  server.stop();

  // Whichever shards the kernel picked, the fleet served everything.
  EXPECT_EQ(server.stats().connections_accepted, 16u);
  EXPECT_EQ(server.requests_served(), 16u);
  std::uint64_t across = 0;
  for (std::uint32_t i = 0; i < server.shard_count(); ++i) {
    across += server.shard_stats(i).connections_accepted;
  }
  EXPECT_EQ(across, 16u);
}

TEST(ServeFleet, HandoffDistributesConnectionsRoundRobin) {
  HttpServerOptions options;
  options.shards = 4;
  options.accept_mode = AcceptMode::kHandoff;
  HttpServer server(options);
  server.set_handler([](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "echo:" + request.path, {}};
  });
  ASSERT_TRUE(server.start());
  EXPECT_STREQ(server.accept_mode(), "handoff");

  // Sequential connections: the round-robin cursor deals one per shard.
  for (int i = 0; i < 8; ++i) {
    const int fd = connect_to(server.port());
    ASSERT_GE(fd, 0);
    std::string carry;
    send_all(fd, "GET /h HTTP/1.1\r\n\r\n");
    EXPECT_NE(recv_response(fd, carry).find("200 OK"), std::string::npos);
    ::close(fd);
  }
  server.stop();

  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(server.shard_stats(i).connections_accepted, 2u)
        << "shard " << i;
  }
}

TEST(ServeFleet, HandoffOverloadAnswers503AtPerShardCap) {
  HttpServerOptions options;
  options.shards = 4;
  options.accept_mode = AcceptMode::kHandoff;
  options.max_connections = 4;  // one connection per shard
  std::atomic<int> overload_drops{0};
  options.on_connection_dropped = [&](std::string_view reason) {
    if (reason == "overload") overload_drops.fetch_add(1);
  };
  HttpServer server(options);
  server.set_handler([](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok", {}};
  });
  ASSERT_TRUE(server.start());

  // Fill every shard's single slot with a live keep-alive connection.
  std::vector<int> held;
  for (int i = 0; i < 4; ++i) {
    const int fd = connect_to(server.port());
    ASSERT_GE(fd, 0);
    std::string carry;
    send_all(fd, "GET /fill HTTP/1.1\r\n\r\n");
    ASSERT_NE(recv_response(fd, carry).find("200 OK"), std::string::npos);
    held.push_back(fd);
  }

  // The next connection round-robins onto a full shard: best-effort 503.
  const int extra = connect_to(server.port());
  ASSERT_GE(extra, 0);
  std::string carry;
  send_all(extra, "GET /x HTTP/1.1\r\n\r\n");
  const std::string refused = recv_response(extra, carry);
  EXPECT_NE(refused.find("503"), std::string::npos) << refused;
  ::close(extra);

  for (const int fd : held) ::close(fd);
  server.stop();
  EXPECT_EQ(server.stats().overloaded, 1u);
  EXPECT_EQ(overload_drops.load(), 1);
}

TEST(ServeFleet, IdleSweepClosesOnInjectedClockOnly) {
  // The server never reads a raw clock: advancing this injected time is
  // the only thing that can trigger the idle sweep.
  std::atomic<std::int64_t> fake_ms{0};
  HttpServerOptions options;
  options.shards = 2;
  options.idle_timeout = std::chrono::milliseconds(5'000);
  options.clock = [&fake_ms] {
    return std::chrono::steady_clock::time_point{} +
           std::chrono::milliseconds(fake_ms.load());
  };
  std::atomic<int> idle_drops{0};
  options.on_connection_dropped = [&](std::string_view reason) {
    if (reason == "idle") idle_drops.fetch_add(1);
  };
  HttpServer server(options);
  server.set_handler([](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok", {}};
  });
  ASSERT_TRUE(server.start());

  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  std::string carry;
  send_all(fd, "GET /once HTTP/1.1\r\n\r\n");
  ASSERT_NE(recv_response(fd, carry).find("200 OK"), std::string::npos);

  // Well past wall-clock instants but under fake time: stays open.
  std::this_thread::sleep_for(250ms);
  EXPECT_EQ(server.stats().idle_closed, 0u);

  // Advance fake time past the timeout: the next sweep closes it.
  fake_ms.store(6'000);
  char byte = 0;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  ssize_t n = -1;
  while (std::chrono::steady_clock::now() < deadline) {
    n = ::recv(fd, &byte, 1, MSG_DONTWAIT);
    if (n == 0) break;  // orderly close from the sweep
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(n, 0);
  ::close(fd);
  server.stop();
  EXPECT_EQ(server.stats().idle_closed, 1u);
  EXPECT_EQ(idle_drops.load(), 1);
}

TEST(ServeFleet, ZeroCopySharedBodyWritesSameBytes) {
  // A handler answering via shared_body must produce byte-identical wire
  // output to one answering via the owned body string.
  const auto shared =
      std::make_shared<const std::string>("{\"zero\":\"copy\"}");
  HttpServerOptions options;
  HttpServer server(options);
  server.set_handler([&shared](const HttpRequest& request) {
    HttpResponse response;
    response.content_type = "application/json";
    if (request.path == "/shared") {
      response.shared_body = shared;
    } else {
      response.body = *shared;
    }
    return response;
  });
  ASSERT_TRUE(server.start());

  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  std::string carry;
  send_all(fd, "GET /shared HTTP/1.1\r\n\r\n");
  const std::string via_shared = scrub_request_id(recv_response(fd, carry));
  send_all(fd, "GET /owned HTTP/1.1\r\n\r\n");
  const std::string via_owned = scrub_request_id(recv_response(fd, carry));
  ::close(fd);
  server.stop();

  EXPECT_EQ(via_shared, via_owned);
  EXPECT_NE(via_shared.find("Content-Length: 15"), std::string::npos);
  EXPECT_EQ(body_of(via_shared), "{\"zero\":\"copy\"}");
}

// --- query service against a real pipeline run -------------------------------

web::EcosystemConfig small_config() {
  web::EcosystemConfig config;
  config.domain_count = 2'000;
  config.isp_count = 150;
  config.hoster_count = 60;
  config.enterprise_count = 200;
  config.transit_count = 30;
  return config;
}

/// One pipeline run shared by every service test (the expensive part).
class ServeServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eco_ = web::Ecosystem::generate(small_config()).release();
    pipeline_ = new core::MeasurementPipeline(*eco_, core::PipelineConfig{});
    dataset_ = new core::Dataset(pipeline_->run());
    snapshot_ = Snapshot::build(*dataset_, pipeline_->rib(),
                                pipeline_->validation_report().vrps,
                                /*generation=*/1);
  }
  static void TearDownTestSuite() {
    snapshot_.reset();
    delete dataset_;
    delete pipeline_;
    delete eco_;
    dataset_ = nullptr;
    pipeline_ = nullptr;
    eco_ = nullptr;
  }

  static HttpRequest get(std::string target) {
    HttpRequest request;
    request.method = "GET";
    request.target = target;
    const auto q = target.find('?');
    request.path = q == std::string::npos ? target : target.substr(0, q);
    request.client = "127.0.0.1";
    return request;
  }

  static web::Ecosystem* eco_;
  static core::MeasurementPipeline* pipeline_;
  static core::Dataset* dataset_;
  static std::shared_ptr<const Snapshot> snapshot_;
};

web::Ecosystem* ServeServiceTest::eco_ = nullptr;
core::MeasurementPipeline* ServeServiceTest::pipeline_ = nullptr;
core::Dataset* ServeServiceTest::dataset_ = nullptr;
std::shared_ptr<const Snapshot> ServeServiceTest::snapshot_;

TEST_F(ServeServiceTest, DomainLookupByteMatchesDatasetRendering) {
  QueryService service(QueryServiceOptions{});
  service.publish(snapshot_);

  // Every 97th record: the service answer must byte-match the rendering
  // computed directly from the dataset record.
  for (std::size_t i = 0; i < dataset_->domains.size(); i += 97) {
    const auto record = dataset_->domains[i];
    const HttpResponse response =
        service.handle(get("/v1/domain/" + std::string(record.name)));
    ASSERT_EQ(response.status, 200) << record.name;
    EXPECT_EQ(response.body_bytes(), Snapshot::render_domain_json(record, 1));
  }
}

TEST_F(ServeServiceTest, PrefixOutcomeMatchesValidatorOracle) {
  QueryService service(QueryServiceOptions{});
  service.publish(snapshot_);

  std::size_t checked = 0;
  for (std::size_t i = 0; i < dataset_->domains.size() && checked < 50; i += 41) {
    // domains[i] materialises a record by value; keep it alive while its
    // pairs are iterated.
    const auto record = dataset_->domains[i];
    for (const core::PrefixAsPair& pair : record.primary().pairs) {
      const std::string target = "/v1/prefix/" + pair.prefix.to_string() + "/" +
                                 std::to_string(pair.origin.value());
      const HttpResponse response = service.handle(get(target));
      ASSERT_EQ(response.status, 200) << target;
      const rpki::OriginValidity expected =
          snapshot_->validate(pair.prefix, pair.origin);
      EXPECT_NE(response.body_bytes().find("\"validity\":\"" +
                    std::string(to_string(expected)) + "\""),
                std::string::npos)
          << target << " body: " << response.body_bytes();
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(ServeServiceTest, ErrorPaths404And400And503) {
  QueryService service(QueryServiceOptions{});

  // Before any snapshot: 503.
  EXPECT_EQ(service.handle(get("/v1/summary")).status, 503);

  service.publish(snapshot_);
  EXPECT_EQ(service.handle(get("/v1/domain/no-such-domain.example")).status, 404);
  EXPECT_EQ(service.handle(get("/v1/nothing-here")).status, 404);
  EXPECT_EQ(service.handle(get("/v1/ip/not-an-address")).status, 400);
  EXPECT_EQ(service.handle(get("/v1/domain/bad%zzescape")).status, 400);
  EXPECT_EQ(service.handle(get("/v1/prefix/10.0.0.0/notanasn")).status, 400);

  HttpRequest post = get("/v1/summary");
  post.method = "POST";
  EXPECT_EQ(service.handle(post).status, 405);
}

TEST_F(ServeServiceTest, PercentEncodedPrefixSegmentWorks) {
  QueryService service(QueryServiceOptions{});
  service.publish(snapshot_);
  // "10.0.0.0%2F16" decodes to one "10.0.0.0/16" segment; both spellings
  // must answer, and identically apart from being distinct cache keys.
  const HttpResponse encoded = service.handle(get("/v1/prefix/10.0.0.0%2F16/65001"));
  const HttpResponse plain = service.handle(get("/v1/prefix/10.0.0.0/16/65001"));
  ASSERT_EQ(encoded.status, 200);
  ASSERT_EQ(plain.status, 200);
  EXPECT_EQ(encoded.body_bytes(), plain.body_bytes());
}

TEST_F(ServeServiceTest, CacheServesSecondLookupAndInvalidatesOnPublish) {
  QueryService service(QueryServiceOptions{});
  service.publish(snapshot_);

  const std::string target =
      "/v1/domain/" + std::string(dataset_->domains.name(0));
  const HttpResponse first = service.handle(get(target));
  ASSERT_EQ(first.status, 200);
  EXPECT_EQ(service.cache().hits(), 0u);
  const HttpResponse second = service.handle(get(target));
  EXPECT_EQ(second.body_bytes(), first.body_bytes());
  EXPECT_EQ(service.cache().hits(), 1u);

  // Publishing drops the cache so no stale generation can be served.
  service.publish(Snapshot::build(*dataset_, pipeline_->rib(),
                                  pipeline_->validation_report().vrps,
                                  /*generation=*/2));
  const HttpResponse fresh = service.handle(get(target));
  EXPECT_EQ(service.cache().hits(), 1u);
  EXPECT_NE(fresh.body_bytes().find("\"generation\":2"), std::string::npos);
}

TEST_F(ServeServiceTest, RateLimiterAnswers429WithRetryAfter) {
  QueryServiceOptions options;
  options.rate_limit.tokens_per_sec = 1.0;
  options.rate_limit.burst = 2.0;
  QueryService service(options);
  service.publish(snapshot_);

  EXPECT_EQ(service.handle(get("/v1/summary")).status, 200);
  EXPECT_EQ(service.handle(get("/v1/summary")).status, 200);
  const HttpResponse limited = service.handle(get("/v1/summary"));
  EXPECT_EQ(limited.status, 429);
  ASSERT_FALSE(limited.headers.empty());
  EXPECT_EQ(limited.headers[0].first, "Retry-After");

  // A different client is not affected by the exhausted bucket.
  HttpRequest other = get("/v1/summary");
  other.client = "192.0.2.9";
  EXPECT_EQ(service.handle(other).status, 200);
  EXPECT_EQ(service.limiter().rejected(), 1u);
}

TEST_F(ServeServiceTest, MetricsLandInRegistry) {
  obs::Registry registry;
  QueryServiceOptions options;
  options.registry = &registry;
  QueryService service(options);
  service.publish(snapshot_);

  const std::string target =
      "/v1/domain/" + std::string(dataset_->domains.name(0));
  service.handle(get(target));
  service.handle(get(target));

  EXPECT_EQ(registry.counter("ripki.serve.requests_total").value(), 2);
  EXPECT_EQ(registry.counter("ripki.serve.cache_hits").value(), 1);
  EXPECT_EQ(registry.gauge("ripki.serve.snapshot_generation").value(), 1);
  EXPECT_GE(registry.histogram("ripki.serve.latency.domain").count(), 1u);
  EXPECT_GE(registry.histogram("ripki.serve.latency.cached").count(), 1u);
}

TEST_F(ServeServiceTest, SnapshotSwapRacesInFlightReads) {
  QueryService service(QueryServiceOptions{});
  service.publish(snapshot_);

  // Readers hammer lookups while the main thread republishes new
  // generations: every response must be 200 and internally consistent
  // (tsan guards the shared_ptr swap and cache invalidation).
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string_view name =
            dataset_->domains.name(i % dataset_->domains.size());
        const HttpResponse response =
            service.handle(get("/v1/domain/" + std::string(name)));
        if (response.status != 200) bad.fetch_add(1);
        i += 7;
      }
    });
  }
  for (std::uint64_t generation = 2; generation <= 20; ++generation) {
    service.publish(Snapshot::build(*dataset_, pipeline_->rib(),
                                    pipeline_->validation_report().vrps,
                                    generation));
    std::this_thread::sleep_for(1ms);
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_NE(service.snapshot()->generation(), 1u);
}

TEST_F(ServeServiceTest, EndToEndOverSockets) {
  QueryServiceOptions options;
  QueryService service(options);
  service.publish(snapshot_);
  ASSERT_TRUE(service.start());

  const int fd = connect_to(service.port());
  ASSERT_GE(fd, 0);
  std::string carry;

  const auto record = dataset_->domains[3];
  send_all(fd, "GET /v1/domain/" + std::string(record.name) + " HTTP/1.1\r\n\r\n");
  std::string response = recv_response(fd, carry);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(body_of(response), Snapshot::render_domain_json(record, 1));

  // Keep-alive: the same connection serves /v1/summary next.
  send_all(fd, "GET /v1/summary HTTP/1.1\r\n\r\n");
  response = recv_response(fd, carry);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(body_of(response), snapshot_->summary_json());

  send_all(fd, "GET /v1/domain/absent.invalid HTTP/1.1\r\n\r\n");
  EXPECT_NE(recv_response(fd, carry).find("404 Not Found"), std::string::npos);

  ::close(fd);
  service.stop();
}

TEST_F(ServeServiceTest, LimiterBudgetIsShardCountInvariant) {
  // The limiter is shared across reactor shards on purpose: a client's
  // aggregate budget must not scale with the shard count. Whatever shard
  // its requests land on, 4 of 8 pass with burst=4 — at 1 shard and at 4.
  for (const std::uint32_t shards : {1u, 4u}) {
    QueryServiceOptions options;
    options.http.shards = shards;
    options.rate_limit.tokens_per_sec = 0.0001;  // no meaningful refill
    options.rate_limit.burst = 4.0;
    QueryService service(options);
    service.publish(snapshot_);

    int ok = 0, limited = 0;
    for (std::uint32_t i = 0; i < 8; ++i) {
      HttpRequest request = get("/v1/summary");
      request.shard = i % shards;  // spread across every reactor shard
      const int status = service.handle(request).status;
      (status == 200 ? ok : limited) += 1;
    }
    EXPECT_EQ(ok, 4) << "shards=" << shards;
    EXPECT_EQ(limited, 4) << "shards=" << shards;
    EXPECT_EQ(service.limiter().rejected(), 4u) << "shards=" << shards;
  }
}

TEST_F(ServeServiceTest, ShardsJsonReportsPerShardFleetTelemetry) {
  QueryServiceOptions options;
  options.http.shards = 2;
  options.http.accept_mode = AcceptMode::kHandoff;  // deterministic spread
  QueryService service(options);
  service.publish(snapshot_);
  ASSERT_TRUE(service.start());

  for (int i = 0; i < 4; ++i) {
    const int fd = connect_to(service.port());
    ASSERT_GE(fd, 0);
    std::string carry;
    send_all(fd, "GET /v1/summary HTTP/1.1\r\n\r\n");
    EXPECT_NE(recv_response(fd, carry).find("200 OK"), std::string::npos);
    ::close(fd);
  }
  service.stop();

  const std::string json = service.shards_json();
  EXPECT_EQ(json.find("[{\"shard\":0,"), 0u) << json;
  EXPECT_NE(json.find("{\"shard\":1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"accepted\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"conn_dropped\":{\"overload\":0,\"idle\":0}"),
            std::string::npos)
      << json;
  // Requests hit both shards' caches: the summary target filled one entry
  // in each shard's cache and the repeats hit.
  EXPECT_EQ(service.cache_hits(), 2u);
  EXPECT_EQ(service.cache_misses(), 2u);
}

TEST_F(ServeServiceTest, SnapshotSwapUnderLoadAtFourShards) {
  // The 4-shard variant of the RCU race: four reactor threads answer over
  // real sockets while the main thread republishes generations. Every
  // response must be 200 — no torn snapshot, no stale-cache crash.
  QueryServiceOptions options;
  options.http.shards = 4;
  QueryService service(options);
  service.publish(snapshot_);
  ASSERT_TRUE(service.start());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      const int fd = connect_to(service.port());
      if (fd < 0) {
        bad.fetch_add(1);
        return;
      }
      std::string carry;
      std::size_t i = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string_view name =
            dataset_->domains.name(i % dataset_->domains.size());
        send_all(fd, "GET /v1/domain/" + std::string(name) +
                         " HTTP/1.1\r\n\r\n");
        const std::string response = recv_response(fd, carry);
        if (response.find("200 OK") == std::string::npos) bad.fetch_add(1);
        i += 13;
      }
      ::close(fd);
    });
  }
  for (std::uint64_t generation = 2; generation <= 12; ++generation) {
    service.publish(Snapshot::build(*dataset_, pipeline_->rib(),
                                    pipeline_->validation_report().vrps,
                                    generation));
    std::this_thread::sleep_for(2ms);
  }
  stop.store(true);
  for (auto& client : clients) client.join();
  service.stop();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(service.server().shard_count(), 4u);
}

// --- access log and slow-request recorder ------------------------------------

AccessLog::Entry access_entry(std::string id, int status,
                              std::uint64_t duration_us) {
  AccessLog::Entry entry;
  entry.request_id = std::move(id);
  entry.client = "127.0.0.1";
  entry.method = "GET";
  entry.target = "/v1/summary";
  entry.endpoint = "summary";
  entry.status = status;
  entry.duration_us = duration_us;
  return entry;
}

TEST(AccessLog, RingEvictsOldestAndSequenceNeverRecycles) {
  AccessLog log(/*capacity=*/2);
  log.record(access_entry("aaaa", 200, 10));
  log.record(access_entry("bbbb", 200, 20));
  log.record(access_entry("cccc", 404, 30));

  EXPECT_EQ(log.total(), 3u);
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 2u);
  // Oldest first; the evicted entry's sequence number is not reused, so a
  // scraper can tell one entry was missed.
  EXPECT_EQ(entries[0].seq, 2u);
  EXPECT_EQ(entries[0].request_id, "bbbb");
  EXPECT_EQ(entries[1].seq, 3u);
  EXPECT_EQ(entries[1].status, 404);
}

TEST(AccessLog, RenderTextQuotesAwkwardValues) {
  AccessLog log(4);
  auto entry = access_entry("dddd", 200, 55);
  entry.target = "/v1/domain/has space";
  log.record(entry);

  const std::string text = log.render_text();
  EXPECT_NE(text.find("seq=1 request_id=dddd client=127.0.0.1 method=GET"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("target=\"/v1/domain/has space\""), std::string::npos);
  EXPECT_NE(text.find("status=200 duration_us=55"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

SlowRequestRecorder::Entry slow_entry(std::string endpoint,
                                      std::uint64_t duration_us) {
  SlowRequestRecorder::Entry entry;
  entry.request_id = "feed0000" + std::to_string(duration_us);
  entry.client = "127.0.0.1";
  entry.method = "GET";
  entry.target = "/v1/x";
  entry.endpoint = std::move(endpoint);
  entry.status = 200;
  entry.duration_us = duration_us;
  return entry;
}

TEST(SlowRequest, KeepsKWorstPerEndpointSlowestFirst) {
  SlowRequestRecorder slow(/*per_endpoint=*/2);
  // summary's half-empty ring keeps the floor open for the whole test.
  slow.offer(slow_entry("summary", 5));
  slow.offer(slow_entry("domain", 10));
  slow.offer(slow_entry("domain", 30));
  slow.offer(slow_entry("domain", 20));

  const auto domain = slow.worst("domain");
  ASSERT_EQ(domain.size(), 2u);
  EXPECT_EQ(domain[0].duration_us, 30u);
  EXPECT_EQ(domain[1].duration_us, 20u);  // 10 µs displaced
  ASSERT_EQ(slow.worst("summary").size(), 1u);
  EXPECT_TRUE(slow.worst("unseen").empty());
  EXPECT_EQ(slow.endpoints(), (std::vector<std::string>{"domain", "summary"}));
  EXPECT_EQ(slow.offered(), 4u);
  EXPECT_EQ(slow.admitted(), 4u);
}

TEST(SlowRequest, FloorOpensOnlyOnceEveryRingIsFull) {
  SlowRequestRecorder slow(/*per_endpoint=*/2);
  slow.offer(slow_entry("domain", 100));
  // One ring with room: the floor stays open.
  EXPECT_EQ(slow.floor_us(), 0u);
  slow.offer(slow_entry("domain", 200));
  // Both slots taken: the floor is the fastest resident (100 µs).
  EXPECT_EQ(slow.floor_us(), 100u);

  // At or below the floor: rejected without touching the ring.
  slow.offer(slow_entry("domain", 100));
  EXPECT_EQ(slow.admitted(), 2u);
  EXPECT_EQ(slow.offered(), 3u);

  // Beating the floor displaces the fastest resident and raises it.
  slow.offer(slow_entry("domain", 150));
  EXPECT_EQ(slow.admitted(), 3u);
  EXPECT_EQ(slow.floor_us(), 150u);
  const auto domain = slow.worst("domain");
  ASSERT_EQ(domain.size(), 2u);
  EXPECT_EQ(domain[0].duration_us, 200u);
  EXPECT_EQ(domain[1].duration_us, 150u);

  // The documented caveat: a brand-new endpoint tag arriving once every
  // existing ring is full is skipped by the fast path until it beats the
  // floor...
  slow.offer(slow_entry("summary", 1));
  EXPECT_TRUE(slow.worst("summary").empty());
  EXPECT_EQ(slow.floor_us(), 150u);

  // ...and the first one that does creates its ring, whose free slot
  // re-opens the floor.
  slow.offer(slow_entry("summary", 160));
  ASSERT_EQ(slow.worst("summary").size(), 1u);
  EXPECT_EQ(slow.floor_us(), 0u);
}

TEST(SlowRequest, RenderJsonCarriesSpanTrees) {
  SlowRequestRecorder slow(2);
  auto entry = slow_entry("domain", 90);
  entry.request_id = "00000000000000aa";
  entry.spans.push_back({"serve.handle.domain", 3, 80});
  entry.spans.push_back({"serve.handle", 0, 90});
  entry.spans_dropped = 1;
  slow.offer(std::move(entry));

  const std::string json = slow.render_json();
  EXPECT_EQ(json.find("{\"slowz\":"), 0u) << json;
  EXPECT_NE(json.find("\"request_id\":\"00000000000000aa\""), std::string::npos);
  EXPECT_NE(json.find("\"endpoint\":\"domain\""), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"serve.handle.domain\",\"start_us\":3,"
                      "\"duration_us\":80"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"spans_dropped\":1"), std::string::npos);
}

// --- request-scoped observability through the service ------------------------

TEST_F(ServeServiceTest, RequestIdFlowsFromHeaderToAccessLogAndSlowz) {
  // Spans only record when a registry is wired (a null registry keeps
  // obs::Span inert); the access log and request ids work either way.
  obs::Registry registry;
  QueryServiceOptions options;
  options.registry = &registry;
  QueryService service(options);
  service.publish(snapshot_);
  ASSERT_TRUE(service.start());

  const int fd = connect_to(service.port());
  ASSERT_GE(fd, 0);
  std::string carry;
  send_all(fd, "GET /v1/summary HTTP/1.1\r\n\r\n");
  const std::string response = recv_response(fd, carry);
  ::close(fd);

  // Every response carries a 16-hex-digit request id header.
  const auto pos = response.find("X-Ripki-Request-Id: ");
  ASSERT_NE(pos, std::string::npos) << response;
  const std::string id = response.substr(pos + 20, 16);
  EXPECT_EQ(id.size(), 16u);
  EXPECT_NE(obs::RequestContext::parse_id(id), 0u) << id;

  service.stop();

  // The same id shows up in the access log with the routing tag...
  const auto entries = service.access_log().entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].request_id, id);
  EXPECT_EQ(entries[0].endpoint, "summary");
  EXPECT_EQ(entries[0].status, 200);
  EXPECT_EQ(entries[0].target, "/v1/summary");

  // ...and in the slow-request ring, span tree attached.
  const auto worst = service.slow_requests().worst("summary");
  ASSERT_EQ(worst.size(), 1u);
  EXPECT_EQ(worst[0].request_id, id);
  ASSERT_FALSE(worst[0].spans.empty());
  bool saw_handle = false, saw_endpoint = false;
  for (const auto& span : worst[0].spans) {
    saw_handle = saw_handle || span.path == "serve.handle";
    saw_endpoint = saw_endpoint || span.path == "serve.handle.summary";
  }
  EXPECT_TRUE(saw_handle);
  EXPECT_TRUE(saw_endpoint);
}

TEST_F(ServeServiceTest, AdminEndpointsServeAndBypassRateLimiter) {
  QueryServiceOptions options;
  options.rate_limit.tokens_per_sec = 0.001;
  options.rate_limit.burst = 1.0;
  QueryService service(options);
  service.publish(snapshot_);

  EXPECT_EQ(service.handle(get("/v1/summary")).status, 200);
  EXPECT_EQ(service.handle(get("/v1/summary")).status, 429);  // bucket empty

  // Diagnostics must stay reachable from the same (limited) client.
  const HttpResponse access = service.handle(get("/accessz"));
  EXPECT_EQ(access.status, 200);
  EXPECT_NE(access.body.find("endpoint=summary"), std::string::npos);

  const HttpResponse slowz = service.handle(get("/slowz"));
  EXPECT_EQ(slowz.status, 200);
  EXPECT_EQ(slowz.content_type, "application/json");
  EXPECT_NE(slowz.body.find("\"slowz\""), std::string::npos);

  // No profiler wired: /pprofz reports unavailable rather than 404.
  EXPECT_EQ(service.handle(get("/pprofz?seconds=1")).status, 503);

  // Rejected requests are themselves logged, tagged "rejected".
  bool saw_rejected = false;
  for (const auto& entry : service.access_log().entries()) {
    saw_rejected = saw_rejected || (entry.endpoint == "rejected" &&
                                    entry.status == 429);
  }
  EXPECT_TRUE(saw_rejected);
}

TEST_F(ServeServiceTest, ConnectionDropsCountByReason) {
  obs::Registry registry;
  QueryServiceOptions options;
  options.registry = &registry;
  options.http.max_connections = 1;
  QueryService service(options);
  service.publish(snapshot_);
  ASSERT_TRUE(service.start());

  // First connection occupies the only slot...
  const int first = connect_to(service.port());
  ASSERT_GE(first, 0);
  std::string carry1;
  send_all(first, "GET /v1/summary HTTP/1.1\r\n\r\n");
  ASSERT_NE(recv_response(first, carry1).find("200 OK"), std::string::npos);

  // ...so the next accept is turned away with a best-effort 503.
  const int second = connect_to(service.port());
  ASSERT_GE(second, 0);
  std::string carry2;
  send_all(second, "GET /v1/summary HTTP/1.1\r\n\r\n");
  const std::string refused = recv_response(second, carry2);
  EXPECT_NE(refused.find("503"), std::string::npos) << refused;

  ::close(first);
  ::close(second);
  service.stop();

  EXPECT_EQ(
      registry.counter("ripki.serve.conn_dropped{reason=overload}").value(),
      1u);
  EXPECT_EQ(service.server().stats().overloaded, 1u);
}

TEST_F(ServeServiceTest, EveryServeAndExecMetricCarriesHelpText) {
  obs::Registry registry;
  exec::ThreadPool pool(2, &registry);  // registers ripki.exec.* metrics
  QueryServiceOptions options;
  options.registry = &registry;
  options.pool = &pool;
  QueryService service(options);
  service.publish(snapshot_);

  // Touch enough of the surface that lazily-created metrics exist too.
  service.handle(get("/v1/domain/" + std::string(dataset_->domains.name(0))));
  service.handle(get("/v1/summary"));
  service.handle(get("/accessz"));
  service.handle(get("/v1/nothing-here"));

  // Registry level: every metric registered on the serve path — not just
  // the serve/exec families — carries HELP text.
  std::size_t checked = 0;
  for (const auto& snapshot : registry.collect()) {
    EXPECT_FALSE(snapshot.help.empty()) << snapshot.name << " has no HELP";
    ++checked;
  }
  EXPECT_GE(checked, 10u);

  // Exposition level: each family appears with a HELP line, and the two
  // labeled conn_dropped variants fold into one family with one HELP.
  std::ostringstream os;
  core::export_metrics_prometheus(registry, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# HELP ripki_serve_requests_total"), std::string::npos);
  EXPECT_NE(text.find("# HELP ripki_serve_conn_dropped"), std::string::npos);
  EXPECT_NE(text.find("ripki_serve_conn_dropped{reason=\"overload\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ripki_serve_conn_dropped{reason=\"idle\"}"),
            std::string::npos);
  EXPECT_EQ(text.find("# HELP ripki_serve_conn_dropped",
                      text.find("# HELP ripki_serve_conn_dropped") + 1),
            std::string::npos)
      << "family HELP must be emitted once";
}

}  // namespace
}  // namespace ripki::serve
