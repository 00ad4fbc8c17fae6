// The serve-zipf world (request universe + oracle body digests + seeded
// key stream) and the in-process socket load generator.
//
// The generator is built to be believed:
//   - reactors and clients run on disjoint CPU sets, so client work never
//     time-slices a reactor (unpinned, p99 at 20k/s ranged 357–7800 µs);
//   - client threads set a 1 ns timer slack, spin the last 50 µs before
//     each scheduled send (the default 50 µs slack alone was about 40 µs
//     of the measured p50) and busy-poll for the response, so the
//     client's own wake-up latency is not counted as server time;
//   - reactor CPUs carry SCHED_IDLE spinners during a load phase, so a
//     request never waits for a halted vCPU to wake;
//   - every request is timed from its scheduled send, send lag is
//     recorded, and client/server CPU is reported, so a late or
//     client-bound run is labelled rather than compared.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <set>
#include <thread>

#include "bench.hpp"
#include "dns/resolver.hpp"
#include "dns/server.hpp"
#include "net/special.hpp"

namespace perfbench {
namespace {

using namespace ripki;

constexpr std::size_t kStreamLength = 1u << 20;
constexpr std::size_t kIpDomains = 4'000;      // top domains resolved for /v1/ip
constexpr std::size_t kMaxIpItems = 4'096;
constexpr std::size_t kMaxPrefixItems = 4'096;
constexpr auto kSpin = std::chrono::microseconds(50);

std::string get(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n";
}

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
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

/// One keep-alive connection with a reused receive buffer.
class Connection {
 public:
  explicit Connection(std::uint16_t port) : fd_(connect_to(port)) {
    buffer_.reserve(1 << 16);
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool send(const std::string& request) {
    std::size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  enum class Outcome { kOk, kWrongStatus, kWrongBody, kTransport };

  /// Reads one Content-Length-framed response; false on a transport error.
  bool read() {
    head_end_ = std::string::npos;
    std::size_t total = 0;
    for (;;) {
      if (head_end_ == std::string::npos) {
        head_end_ = buffer_.find("\r\n\r\n");
        if (head_end_ != std::string::npos) {
          const auto at = buffer_.find("Content-Length: ");
          std::size_t length = 0;
          if (at != std::string::npos && at < head_end_)
            length = std::strtoul(buffer_.c_str() + at + 16, nullptr, 10);
          total = head_end_ + 4 + length;
        }
      }
      if (head_end_ != std::string::npos && buffer_.size() >= total) break;
      // Busy-poll: the client owns its CPU, and a blocking recv would add
      // the client's own wake-up latency to every measured request.
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    body_size_ = total - head_end_ - 4;
    return true;
  }

  /// Checks the response read() returned against the oracle (status 200
  /// and the expected body digest) and drops it from the buffer.
  Outcome check(const Digest& expected) {
    Outcome outcome = Outcome::kOk;
    if (buffer_.compare(0, 13, "HTTP/1.1 200 ") != 0) {
      outcome = Outcome::kWrongStatus;
    } else if (digest_of(std::string_view(buffer_).substr(head_end_ + 4, body_size_)) !=
               expected) {
      outcome = Outcome::kWrongBody;
    }
    buffer_.erase(0, head_end_ + 4 + body_size_);
    return outcome;
  }

 private:
  int fd_;
  std::string buffer_;
  std::size_t head_end_ = 0;
  std::size_t body_size_ = 0;
};

struct ClientResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_us;
  std::vector<double> send_lag_us;
  std::vector<double> done_s;
  double cpu_s = 0.0;
  std::array<std::uint64_t, 4> per_endpoint{};
  std::string first_divergence;
};

void sleep_until(Clock::time_point when) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      when.time_since_epoch())
                      .count();
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  // steady_clock is CLOCK_MONOTONIC on Linux.
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

double us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// One client thread. Closed loop when `interval` is zero: the next send
/// follows the previous response. Open loop otherwise: send n is due at
/// start + n * interval whether or not earlier responses are back, and
/// its latency runs from that due time.
ClientResult run_client(const ServeWorld& world, std::uint16_t port, int cpu,
                        std::size_t offset, Clock::time_point phase_start,
                        Clock::time_point start, Clock::duration interval,
                        Clock::time_point deadline) {
  ClientResult result;
  if (cpu >= 0) pin_current_thread({cpu});
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Connection connection(port);
  if (!connection.ok()) {
    result.attempted = result.failed = 1;
    result.first_divergence = "cannot connect";
    return result;
  }
  // A closed loop records completion times only (its figure is a rate);
  // an open loop also records latency and send lag, sized up front.
  const bool open = interval > Clock::duration::zero();
  if (open) {
    const auto expect = static_cast<std::size_t>((deadline - start) / interval) + 1;
    result.latency_us.reserve(expect);
    result.send_lag_us.reserve(expect);
    result.done_s.reserve(expect);
  } else {
    result.done_s.reserve(1 << 17);
  }
  const double cpu_start = thread_cpu_s();
  for (std::int64_t n = 0;; ++n) {
    Clock::time_point due;
    if (open) {
      due = start + interval * n;
      if (due >= deadline) break;
      if (Clock::now() < due - kSpin) sleep_until(due - kSpin);
      while (Clock::now() < due) {
      }
    } else {
      due = Clock::now();
      if (due >= deadline) break;
    }
    const Item& item = world.items[world.stream[(offset + static_cast<std::size_t>(n)) %
                                                world.stream.size()]];
    const auto sent = Clock::now();
    const bool received = connection.send(item.request) && connection.read();
    const auto done = Clock::now();
    // The oracle check runs after the request's clock has stopped.
    const Connection::Outcome outcome =
        received ? connection.check(item.expected) : Connection::Outcome::kTransport;
    ++result.attempted;
    if (outcome != Connection::Outcome::kOk) {
      ++result.failed;
      if (result.first_divergence.empty()) {
        result.first_divergence =
            std::string(outcome == Connection::Outcome::kTransport ? "transport error"
                        : outcome == Connection::Outcome::kWrongStatus ? "non-200 status"
                                                                       : "wrong body") +
            " for " + item.target;
      }
      if (outcome == Connection::Outcome::kTransport) break;
      continue;
    }
    ++result.per_endpoint[static_cast<std::size_t>(item.endpoint)];
    if (open) {
      result.latency_us.push_back(us(done - due));
      result.send_lag_us.push_back(us(sent - due));
    }
    result.done_s.push_back(std::chrono::duration<double>(done - phase_start).count());
  }
  result.cpu_s = thread_cpu_s() - cpu_start;
  return result;
}

/// Keeps each reactor CPU busy with a SCHED_IDLE spinner for the life of
/// a load phase. An idle vCPU halts, and waking a halted vCPU cost the
/// reactor tens of microseconds that varied with host load; a spinner
/// yields to the reactor at once but keeps its CPU from halting. The
/// spinners' CPU time is reported so it can be taken out of the server's.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus) : cpu_s_(cpus.size(), 0.0) {
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      threads_.emplace_back([this, i, cpu = cpus[i]] {
        pin_current_thread({cpu});
        sched_param param{};
        ::sched_setscheduler(0, SCHED_IDLE, &param);
        const double start = thread_cpu_s();
        while (!stop_.load(std::memory_order_relaxed)) {
        }
        cpu_s_[i] = thread_cpu_s() - start;
      });
    }
  }
  ~IdleSpinners() { stop(); }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  /// Stops and joins the spinners; returns their total CPU seconds.
  double stop() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& thread : threads_)
      if (thread.joinable()) thread.join();
    double total = 0.0;
    for (const double s : cpu_s_) total += s;
    return total;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> cpu_s_;
  std::vector<std::thread> threads_;
};

}  // namespace

ServeWorld build_serve_world(const web::Ecosystem& ecosystem,
                             const core::Dataset& dataset,
                             std::shared_ptr<const serve::Snapshot> snapshot,
                             std::uint64_t seed) {
  ServeWorld world;
  world.snapshot = std::move(snapshot);
  const serve::Snapshot& snap = *world.snapshot;
  const std::size_t rows = dataset.domains.size();

  // Domains in rank order: Zipf rank r is the r-th most popular domain.
  world.items.reserve(rows + kMaxIpItems + kMaxPrefixItems + 1);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto record = dataset.domains[i];
    const std::string target = "/v1/domain/" + std::string(record.name);
    world.items.push_back(
        {get(target), target,
         digest_of(serve::Snapshot::render_domain_json(record, snap.generation())),
         Endpoint::kDomain});
  }
  world.domain_items = rows;

  // Resolved addresses of the most popular domains, in rank order.
  const dns::AuthoritativeServer server(&ecosystem.zone_source(web::Vantage::kBerlin));
  dns::StubResolver resolver(&server);
  std::set<net::IpAddress> seen_ips;
  for (std::size_t i = 0; i < std::min(rows, kIpDomains); ++i) {
    auto apex = dns::DnsName::parse(ecosystem.plan_name(i));
    if (!apex.ok()) continue;
    for (const dns::DnsName& name : {apex.value().prepended("www"), apex.value()}) {
      auto resolution = resolver.resolve_all(name);
      if (!resolution.ok()) continue;
      for (const net::IpAddress& address : resolution.value().addresses) {
        if (net::is_special_purpose(address) || world.ip_items >= kMaxIpItems ||
            !seen_ips.insert(address).second)
          continue;
        const std::string target = "/v1/ip/" + address.to_string();
        world.items.push_back(
            {get(target), target, digest_of(snap.ip_json(address)), Endpoint::kIp});
        ++world.ip_items;
      }
    }
  }

  // Prefix-origin pairs the popular domains map to, in rank order.
  std::set<std::pair<net::Prefix, std::uint32_t>> seen_pairs;
  for (std::size_t i = 0; i < rows && world.prefix_items < kMaxPrefixItems; ++i) {
    const auto record = dataset.domains.view(i).to_record();
    for (const auto* variant : {&record.www, &record.apex}) {
      for (const core::PrefixAsPair& pair : variant->pairs) {
        if (world.prefix_items >= kMaxPrefixItems ||
            !seen_pairs.insert({pair.prefix, pair.origin.value()}).second)
          continue;
        const std::string target = "/v1/prefix/" + pair.prefix.to_string() + "/" +
                                   std::to_string(pair.origin.value());
        world.items.push_back({get(target), target,
                               digest_of(snap.prefix_json(pair.prefix, pair.origin)),
                               Endpoint::kPrefix});
        ++world.prefix_items;
      }
    }
  }
  world.items.push_back(
      {get("/v1/summary"), "/v1/summary", digest_of(snap.summary_json()), Endpoint::kSummary});

  KeyMix mix;
  mix.domains = world.domain_items;
  mix.ips = world.ip_items;
  mix.prefixes = world.prefix_items;
  const std::vector<Key> keys = key_stream(mix, kStreamLength, seed);
  world.stream.reserve(keys.size());
  for (const Key& key : keys) {
    std::size_t index = key.index;
    switch (key.endpoint) {
      case Endpoint::kDomain: break;
      case Endpoint::kIp: index += world.domain_items; break;
      case Endpoint::kPrefix: index += world.domain_items + world.ip_items; break;
      case Endpoint::kSummary: index = world.items.size() - 1; break;
    }
    world.stream.push_back(static_cast<std::uint32_t>(index));
  }
  return world;
}

CpuPlan plan_cpus() {
  const std::vector<int> cpus = allowed_cpus();
  CpuPlan plan;
  if (cpus.size() < 2) {
    plan.server = plan.client = cpus;
    return plan;
  }
  const std::size_t half = cpus.size() / 2;
  plan.server.assign(cpus.begin(), cpus.begin() + static_cast<std::ptrdiff_t>(half));
  plan.client.assign(cpus.begin() + static_cast<std::ptrdiff_t>(half), cpus.end());
  return plan;
}

std::unique_ptr<serve::QueryService> start_service(
    std::shared_ptr<const serve::Snapshot> snapshot, const std::vector<int>& cpus,
    obs::Registry* registry) {
  serve::QueryServiceOptions options;
  options.http.shards = 2;
  options.http.backend = serve::PollerBackend::kEpoll;
  // Handoff deals connections round-robin, so the two client connections
  // land on different shards every run (reuseport hashing may stack them).
  options.http.accept_mode = serve::AcceptMode::kHandoff;
  options.http.max_connections = 64;
  options.http.idle_timeout = std::chrono::milliseconds(120'000);
  options.registry = registry;
  auto service = std::make_unique<serve::QueryService>(std::move(options));
  service->publish(std::move(snapshot));

  // Reactor threads inherit the affinity of the thread that starts them.
  const std::vector<int> all = allowed_cpus();
  pin_current_thread(cpus);
  const bool started = service->start();
  pin_current_thread(all);
  if (!started) return nullptr;
  return service;
}

LoadResult drive_load(const ServeWorld& world, std::uint16_t port,
                      const CpuPlan& cpus, std::size_t clients, double seconds,
                      double rate, std::size_t stream_offset) {
  LoadResult load;
  const auto duration = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  // Per-client interval; clients are staggered by interval / clients so
  // aggregate arrivals land evenly at `rate`.
  const Clock::duration interval =
      rate > 0.0 ? std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(clients) / rate))
                 : Clock::duration::zero();
  std::vector<ClientResult> results(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  // Only when reactors and clients have CPUs of their own: a spinner on a
  // shared CPU would compete with the clients.
  std::unique_ptr<IdleSpinners> spinners;
  if (cpus.server != cpus.client) spinners = std::make_unique<IdleSpinners>(cpus.server);
  const double process_cpu_start = process_cpu_s();
  const double main_cpu_start = thread_cpu_s();
  // Leave the clients a moment to connect before the first due time.
  const auto phase_start = Clock::now() + std::chrono::milliseconds(20);
  const auto deadline = phase_start + duration;
  for (std::size_t c = 0; c < clients; ++c) {
    const int cpu = cpus.client.empty() ? -1 : cpus.client[c % cpus.client.size()];
    const auto start = phase_start + interval * static_cast<std::int64_t>(c) /
                                         static_cast<std::int64_t>(clients);
    const std::size_t offset = stream_offset + c * (world.stream.size() / clients);
    threads.emplace_back([&, c, cpu, start, offset] {
      results[c] = run_client(world, port, cpu, offset, phase_start, start, interval,
                              deadline);
    });
  }
  for (std::thread& thread : threads) thread.join();
  load.wall_s = std::chrono::duration<double>(Clock::now() - phase_start).count();
  const double spinner_cpu = spinners ? spinners->stop() : 0.0;
  const double process_cpu = process_cpu_s() - process_cpu_start - spinner_cpu;
  const double main_cpu = thread_cpu_s() - main_cpu_start;

  double client_cpu = 0.0;
  std::uint64_t completed = 0;
  for (ClientResult& r : results) {
    load.attempted += r.attempted;
    load.failed += r.failed;
    client_cpu += r.cpu_s;
    for (std::size_t e = 0; e < r.per_endpoint.size(); ++e)
      load.per_endpoint[e] += r.per_endpoint[e];
    completed += r.done_s.size();
    load.latency_us.insert(load.latency_us.end(), r.latency_us.begin(), r.latency_us.end());
    load.send_lag_us.insert(load.send_lag_us.end(), r.send_lag_us.begin(),
                            r.send_lag_us.end());
    load.done_s.insert(load.done_s.end(), r.done_s.begin(), r.done_s.end());
    if (load.first_divergence.empty()) load.first_divergence = r.first_divergence;
  }
  load.qps = load.wall_s > 0.0 ? static_cast<double>(completed) / load.wall_s : 0.0;
  const double client_capacity =
      load.wall_s * static_cast<double>(std::max<std::size_t>(1, cpus.client.size()));
  const double server_capacity =
      load.wall_s * static_cast<double>(std::max<std::size_t>(1, cpus.server.size()));
  load.client_cpu_pct = 100.0 * client_cpu / client_capacity;
  load.server_cpu_pct =
      100.0 * std::max(0.0, process_cpu - client_cpu - main_cpu) / server_capacity;
  return load;
}

}  // namespace perfbench
