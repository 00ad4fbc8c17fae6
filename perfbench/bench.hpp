// Shared declarations of the benchmark binary: options, the report a
// workload hands back, and the pieces the workloads and the traced layer
// ledger have in common (set-up timing, serial reference sweep, serve
// world and load generator).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "stats.hpp"
#include "web/ecosystem.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Open-loop arrival rate of serve-zipf, requests per second.
  double serve_rate = 20'000.0;
  /// Test hook: perturb one expected value (a response body digest, the
  /// serial reference dataset) so the oracle must fail.
  bool corrupt = false;
  /// Source revision stamped into the result (given by run.py).
  std::string revision = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload invocation measured.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end figures under the benchmark-wide names (BENCHMARK.json).
  std::vector<Metric> end_to_end;
  /// The same figures under the workload's own names, for readers.
  std::vector<Metric> named;
  /// Per-layer ledger (traced runs only).
  std::vector<Metric> layers;
  /// Run-identity stamp: key -> JSON value text.
  std::vector<std::pair<std::string, std::string>> stamp;
  /// Human-readable divergence descriptions (stderr).
  std::vector<std::string> divergences;

  void add_e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void add_named(std::string name, double value, std::string unit) {
    named.push_back({std::move(name), value, std::move(unit)});
  }
  void add_layer(std::string name, double value, std::string unit) {
    layers.push_back({std::move(name), value, std::move(unit)});
  }
  void add_stamp(std::string key, std::string json_value) {
    stamp.emplace_back(std::move(key), std::move(json_value));
  }
  void fail(std::string why) {
    ++failed;
    divergences.push_back(std::move(why));
  }
};

// --- small helpers (main.cpp) -------------------------------------------

std::uint64_t thread_allocations();  // alloc_hook.cpp
double seconds_since(Clock::time_point start);
double ms_since(Clock::time_point start);
/// Peak resident set (MiB) since the last reset_peak_rss(), or since the
/// process started when the kernel refuses the reset.
double peak_rss_mib();
/// Restarts the peak-RSS watermark at the current resident set, so a
/// workload's peak excludes set-up transients it has already freed.
void reset_peak_rss();
double process_cpu_s();
double thread_cpu_s();
std::string json_string(const std::string& text);
/// CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus();
std::string cpu_list(const std::vector<int>& cpus);
/// Pins the calling thread; false when the kernel refuses.
bool pin_current_thread(const std::vector<int>& cpus);
ripki::web::EcosystemConfig world_config(std::uint64_t domains,
                                         std::uint64_t seed);

// --- workloads (workloads.cpp) -------------------------------------------

Report run_batch(const Options& options);
Report run_serve(const Options& options);

/// Generates worlds on every allowed CPU at once, one pinned thread each,
/// `rounds` times: thread 0 the run's seeded world, the others worlds of
/// derived seeds. Appends each generation's seconds to `seconds` and
/// returns the last round's world of `seed`. A single-threaded generation
/// on a shared VM drifted by 10-20% between runs, while the median over
/// concurrent generations on all CPUs held within a few percent, so
/// set-up time is that median.
std::unique_ptr<ripki::web::Ecosystem> generate_world(std::uint64_t domains,
                                                      std::uint64_t seed, int rounds,
                                                      std::vector<double>& seconds);

/// The serial (threads = 0) sweep: the batch oracle's reference and the
/// ledger's core figures, timed and allocation-counted on this thread.
struct SerialSweep {
  ripki::core::Dataset dataset;
  std::unique_ptr<ripki::core::MeasurementPipeline> pipeline;
  double ms = 0.0;
  std::uint64_t allocations = 0;
};
SerialSweep serial_sweep(const ripki::web::Ecosystem& ecosystem);

// --- serve world and load generator (serve_load.cpp) ----------------------

/// Length and 64-bit hash of a response body: what the oracle keeps of
/// each expected body, so the harness does not hold a second copy of
/// every rendering in memory.
struct Digest {
  std::size_t size = 0;
  std::uint64_t hash = 0;

  bool operator==(const Digest&) const = default;
};

inline Digest digest_of(std::string_view bytes) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull ^ bytes.size();
  const auto mix = [&h](std::uint64_t word) {
    h = (h ^ word) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  };
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    mix(word);
  }
  std::uint64_t tail = 0;
  if (i < bytes.size()) std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  mix(tail);
  return {bytes.size(), h * 0x94D049BB133111EBull};
}

/// A request and the digest of the exact body the service must answer with.
struct Item {
  std::string request;  // serialized keep-alive GET
  std::string target;   // request target, for in-process handle()
  Digest expected;      // oracle body digest
  Endpoint endpoint = Endpoint::kDomain;
};

/// Everything a serve run needs: the published snapshot, the request
/// universe with its oracle bodies, and the seeded key stream.
struct ServeWorld {
  std::shared_ptr<const ripki::serve::Snapshot> snapshot;
  std::vector<Item> items;
  /// Index into `items` per request, in send order.
  std::vector<std::uint32_t> stream;
  std::size_t domain_items = 0;
  std::size_t ip_items = 0;
  std::size_t prefix_items = 0;
};
ServeWorld build_serve_world(const ripki::web::Ecosystem& ecosystem,
                             const ripki::core::Dataset& dataset,
                             std::shared_ptr<const ripki::serve::Snapshot> snapshot,
                             std::uint64_t seed);

/// Reactor and client CPU sets: disjoint halves of the allowed CPUs when
/// there are at least two.
struct CpuPlan {
  std::vector<int> server;
  std::vector<int> client;
};
CpuPlan plan_cpus();

/// Starts a 2-shard epoll QueryService with no handler pool, reactors
/// pinned to `cpus` (they inherit the starting thread's affinity).
std::unique_ptr<ripki::serve::QueryService> start_service(
    std::shared_ptr<const ripki::serve::Snapshot> snapshot,
    const std::vector<int>& cpus, ripki::obs::Registry* registry);

struct LoadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  double qps = 0.0;
  /// Per completed request: completion time (s since the phase start)
  /// and, in an open loop only, latency (µs, from the scheduled send) and
  /// send lag (µs).
  std::vector<double> latency_us;
  std::vector<double> send_lag_us;
  std::vector<double> done_s;
  double client_cpu_pct = 0.0;
  double server_cpu_pct = 0.0;
  /// Completed requests per Endpoint, in enum order.
  std::array<std::uint64_t, 4> per_endpoint{};
  std::string first_divergence;
};
/// `rate` <= 0 runs a closed loop; otherwise an open loop at `rate`
/// requests/s split evenly across the clients. `stream_offset` staggers
/// where each client starts in the key stream.
LoadResult drive_load(const ServeWorld& world, std::uint16_t port,
                      const CpuPlan& cpus, std::size_t clients, double seconds,
                      double rate, std::size_t stream_offset);

// --- traced layer ledger (ledger.cpp) --------------------------------------

/// Figures a workload's own phase already produced, so the ledger does
/// not measure them a second time. Null/empty fields are probed.
struct LedgerInputs {
  const ripki::web::Ecosystem* ecosystem = nullptr;
  std::uint64_t seed = 1;
  double generate_s = 0.0;
  double serve_rate = 0.0;
  const SerialSweep* serial = nullptr;
  const LoadResult* open_loop = nullptr;
  const ServeWorld* serve = nullptr;
  double trace_overhead_pct = 0.0;
};
void layer_ledger(const LedgerInputs& inputs, Report& report);

}  // namespace perfbench
