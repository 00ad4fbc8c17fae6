// The workloads. Each drives only its own phase through the public APIs
// and reports its own figures; set-up is repeated and its median reported,
// so work moved into set-up shows as setup_s.
//
//   batch-sweep  MeasurementPipeline::run at nproc threads + Snapshot::build
//                over a 200k-domain world (what one batch ripkid interval
//                does). DNS, BGP, RPKI, core and exec carry the load, with
//                the sweep caches on; serving and delta are idle.
//   serve-zipf   a 50k-domain snapshot behind a 2-shard QueryService; a
//                closed loop (serve_qps) then an open loop at a fixed rate
//                (latency from the scheduled send), Zipf key mix. Reactor,
//                response cache and snapshot render carry the load.
#include <algorithm>
#include <cmath>
#include <thread>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "obs/sched.hpp"
#include "util/prng.hpp"

namespace perfbench {
namespace {

using namespace ripki;

constexpr std::uint64_t kBatchDomains = 200'000;
constexpr std::uint64_t kServeDomains = 50'000;
/// Set-up rounds per untraced run; each generates one world per CPU. A
/// round's generations share the host's speed of the moment, which on a
/// shared VM swings by 10-20% over seconds, so steadiness comes from the
/// number of rounds more than from the number of CPUs. The counts are
/// what the benchmark's total run budget leaves beside the timed phase.
constexpr int kBatchSetupRounds = 6;
constexpr int kServeSetupRounds = 5;
constexpr std::size_t kServeClients = 2;
constexpr double kWindowS = 0.5;
constexpr int kRounds = 3;

/// Appends `part` to `total`; rates and CPU shares become wall-weighted.
/// Completion times are not kept: the windowed figures are taken from
/// each segment before it is merged.
void merge_load(LoadResult& total, const LoadResult& part) {
  const double wall = total.wall_s + part.wall_s;
  const auto weigh = [&](double a, double b) {
    return wall > 0.0 ? (a * total.wall_s + b * part.wall_s) / wall : 0.0;
  };
  total.qps = weigh(total.qps, part.qps);
  total.client_cpu_pct = weigh(total.client_cpu_pct, part.client_cpu_pct);
  total.server_cpu_pct = weigh(total.server_cpu_pct, part.server_cpu_pct);
  total.wall_s = wall;
  total.attempted += part.attempted;
  total.failed += part.failed;
  for (std::size_t e = 0; e < total.per_endpoint.size(); ++e)
    total.per_endpoint[e] += part.per_endpoint[e];
  total.latency_us.insert(total.latency_us.end(), part.latency_us.begin(),
                          part.latency_us.end());
  total.send_lag_us.insert(total.send_lag_us.end(), part.send_lag_us.begin(),
                           part.send_lag_us.end());
}

std::size_t sweep_threads() { return std::max<std::size_t>(1, allowed_cpus().size()); }

/// Percent by which `traced` is slower than `untraced` (time units).
double overhead_pct(double untraced, double traced) {
  return untraced > 0.0 ? 100.0 * (traced - untraced) / untraced : 0.0;
}

void stamp_common(Report& report, std::uint64_t domains, int rounds,
                  const std::vector<double>& generate_s, double setup_peak_mib) {
  report.add_stamp("domains", std::to_string(domains));
  report.add_stamp("rank_space", std::to_string(world_config(domains, 1).rank_space));
  report.add_stamp("setup_rounds", std::to_string(rounds));
  report.add_stamp("setup_generations", std::to_string(generate_s.size()));
  report.add_stamp("setup_peak_rss_mib", std::to_string(setup_peak_mib));
}

}  // namespace

std::unique_ptr<web::Ecosystem> generate_world(std::uint64_t domains, std::uint64_t seed,
                                               int rounds, std::vector<double>& seconds) {
  const std::vector<int> cpus = allowed_cpus();
  const std::size_t width = std::max<std::size_t>(1, cpus.size());
  std::unique_ptr<web::Ecosystem> kept;
  for (int round = 0; round < rounds; ++round) {
    kept.reset();
    std::vector<std::unique_ptr<web::Ecosystem>> worlds(width);
    std::vector<double> round_s(width, 0.0);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < width; ++i) {
      // Thread 0 builds the run's own world; the others build worlds of
      // seeds derived from it, because generation cost depends on the
      // world (about 8% between two seeds), and a median over many worlds
      // keeps that out of the run-to-run spread.
      const std::uint64_t world_seed =
          i == 0 ? seed
                 : util::mix64(seed * 1024 + static_cast<std::uint64_t>(round) * width + i);
      threads.emplace_back([&, i, world_seed] {
        if (!cpus.empty()) pin_current_thread({cpus[i]});
        const auto started = Clock::now();
        worlds[i] = web::Ecosystem::generate(world_config(domains, world_seed));
        round_s[i] = seconds_since(started);
      });
    }
    for (std::thread& thread : threads) thread.join();
    seconds.insert(seconds.end(), round_s.begin(), round_s.end());
    kept = std::move(worlds[0]);
  }
  return kept;
}

SerialSweep serial_sweep(const web::Ecosystem& ecosystem) {
  SerialSweep sweep;
  core::PipelineConfig config;
  config.threads = 0;
  sweep.pipeline = std::make_unique<core::MeasurementPipeline>(ecosystem, config);
  const std::uint64_t allocations = thread_allocations();
  const auto started = Clock::now();
  sweep.dataset = sweep.pipeline->run();
  sweep.ms = ms_since(started);
  sweep.allocations = thread_allocations() - allocations;
  return sweep;
}

// --- batch-sweep ------------------------------------------------------------

Report run_batch(const Options& options) {
  Report report;
  const std::size_t threads = sweep_threads();
  const int rounds = options.trace ? 1 : kBatchSetupRounds;
  std::vector<double> generate_s;
  const std::unique_ptr<web::Ecosystem> ecosystem =
      generate_world(kBatchDomains, options.seed, rounds, generate_s);

  // Oracle: parallel == serial, against a reference computed once. Only
  // the traced run's ledger needs the reference pipeline; untraced runs
  // keep the dataset alone, so peak_rss_mib carries no second pipeline.
  SerialSweep reference = serial_sweep(*ecosystem);
  if (!options.trace) reference.pipeline.reset();
  if (options.corrupt) ++reference.dataset.counters.domains_total;
  const double setup_peak_mib = peak_rss_mib();
  reset_peak_rss();
  report.add_stamp("phase_start_rss_mib", std::to_string(peak_rss_mib()));

  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(options.seconds));
  for (std::size_t repeat = 0; repeat == 0 || Clock::now() < deadline; ++repeat) {
    // The traced run alternates plain repeats with repeats that carry the
    // program's own instrumentation (metrics registry + scheduler X-ray).
    const bool traced = options.trace && repeat % 2 == 1;
    obs::Registry registry;
    obs::SchedTelemetry sched(&registry);
    core::PipelineConfig config;
    config.threads = threads;
    if (traced) {
      config.registry = &registry;
      config.sched = &sched;
    }
    const auto started = Clock::now();
    core::MeasurementPipeline pipeline(*ecosystem, config);
    const core::Dataset dataset = pipeline.run();
    const auto snapshot = serve::Snapshot::build(
        dataset, pipeline.rib(), pipeline.validation_report().vrps, repeat + 1);
    const double ms = ms_since(started);
    ++report.attempted;
    if (!(dataset == reference.dataset))
      report.fail("repeat " + std::to_string(repeat) +
                  ": dataset differs from the serial reference");
    (traced ? traced_ms : untraced_ms).push_back(ms);
  }

  stamp_common(report, kBatchDomains, rounds, generate_s, setup_peak_mib);
  report.add_stamp("threads", std::to_string(threads));
  report.add_stamp("repeats", std::to_string(untraced_ms.size() + traced_ms.size()));
  const double p50_ms = median(untraced_ms);
  // Nearest-rank p90: the slowest repeat while there are ten or fewer.
  const double p90_ms = percentile_of(untraced_ms, 0.90);
  const double domains_per_s = static_cast<double>(kBatchDomains) / (p50_ms / 1000.0);
  report.add_e2e("setup_s", median(generate_s), "s");
  report.add_e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  // One figure twice: throughput_per_s is 200k over latency_p50_ms.
  report.add_e2e("throughput_per_s", domains_per_s, "1/s");
  report.add_e2e("latency_p50_ms", p50_ms, "ms");
  report.add_named("rebuild_domains_per_s", domains_per_s, "1/s");
  report.add_named("rebuild_ms_p50", p50_ms, "ms");
  report.add_named("rebuild_ms_p90", p90_ms, "ms");

  if (options.trace) {
    LedgerInputs inputs;
    inputs.ecosystem = ecosystem.get();
    inputs.seed = options.seed;
    inputs.serve_rate = options.serve_rate;
    inputs.generate_s = median(generate_s);
    inputs.serial = &reference;
    inputs.trace_overhead_pct =
        traced_ms.empty() ? 0.0 : overhead_pct(p50_ms, median(traced_ms));
    layer_ledger(inputs, report);
  }
  return report;
}

// --- serve-zipf -------------------------------------------------------------

Report run_serve(const Options& options) {
  Report report;
  const int rounds = options.trace ? 1 : kServeSetupRounds;
  const CpuPlan cpus = plan_cpus();
  // Set-up: generate the world (on every CPU at once, as in batch-sweep),
  // then sweep it at nproc threads, build the snapshot and start the
  // service. setup_s is the median generation plus the median of the rest.
  std::unique_ptr<serve::QueryService> service;
  std::unique_ptr<web::Ecosystem> ecosystem;
  std::shared_ptr<const serve::Snapshot> snapshot;
  core::Dataset dataset;
  std::vector<double> generate_s;
  std::vector<double> publish_s;
  for (int round = 0; round < rounds; ++round) {
    if (service) service->stop();
    service.reset();
    snapshot.reset();
    dataset = core::Dataset();
    ecosystem.reset();
    ecosystem = generate_world(kServeDomains, options.seed, 1, generate_s);
    const auto started = Clock::now();
    core::PipelineConfig config;
    config.threads = sweep_threads();
    core::MeasurementPipeline pipeline(*ecosystem, config);
    dataset = pipeline.run();
    snapshot = serve::Snapshot::build(dataset, pipeline.rib(),
                                      pipeline.validation_report().vrps, 1);
    service = start_service(snapshot, cpus.server, nullptr);
    if (!service) {
      report.fail("service failed to start");
      return report;
    }
    publish_s.push_back(seconds_since(started));
  }
  // The oracle: every request's expected body digest, rendered by the
  // snapshot itself, outside the timed set-up.
  auto world = std::make_unique<ServeWorld>(
      build_serve_world(*ecosystem, dataset, std::move(snapshot), options.seed));
  dataset = core::Dataset();
  if (options.corrupt) world->items[0].expected.hash ^= 1;
  const double setup_peak_mib = peak_rss_mib();
  reset_peak_rss();
  report.add_stamp("phase_start_rss_mib", std::to_string(peak_rss_mib()));

  const auto count = [&](const LoadResult& load, const char* phase) {
    report.attempted += load.attempted;
    report.failed += load.failed;
    if (load.failed > 0)
      report.divergences.push_back(std::string(phase) + ": " +
                                   std::to_string(load.failed) + " failed, first: " +
                                   load.first_divergence);
  };

  // Warm-up fills the response caches and the connection path; its
  // requests are checked but not timed.
  count(drive_load(*world, service->port(), cpus, kServeClients, 0.5, 0.0, 0), "warm-up");

  // The closed and open loops alternate over kRounds rounds, so a host
  // slowdown lasting seconds lands in both phases' windows, not in one.
  const double closed_s = 0.4 * options.seconds / kRounds;
  const double open_s = 0.6 * options.seconds / kRounds;
  std::vector<double> qps_windows;
  std::vector<std::vector<double>> open_windows;
  LoadResult closed;
  LoadResult open;
  for (int round = 0; round < kRounds; ++round) {
    const std::size_t offset = static_cast<std::size_t>(round + 1) << 16;
    const LoadResult c =
        drive_load(*world, service->port(), cpus, kServeClients, closed_s, 0.0, offset);
    count(c, "closed loop");
    const auto rates = window_rates(c.done_s, kWindowS, closed_s);
    qps_windows.insert(qps_windows.end(), rates.begin(), rates.end());
    merge_load(closed, c);
    const LoadResult o = drive_load(*world, service->port(), cpus, kServeClients, open_s,
                                    options.serve_rate, offset << 2);
    count(o, "open loop");
    const auto windows = split_windows(o.done_s, o.latency_us, kWindowS);
    open_windows.insert(open_windows.end(), windows.begin(), windows.end());
    merge_load(open, o);
  }

  double trace_overhead = 0.0;
  if (options.trace) {
    // Same closed loop against a service carrying its own instrumentation
    // (metrics registry: per-request spans and latency histograms).
    obs::Registry registry;
    auto traced_service = start_service(world->snapshot, cpus.server, &registry);
    if (!traced_service) {
      report.fail("traced service failed to start");
      return report;
    }
    count(drive_load(*world, traced_service->port(), cpus, kServeClients, 0.5, 0.0, 0),
          "traced warm-up");
    const LoadResult traced = drive_load(*world, traced_service->port(), cpus,
                                         kServeClients, closed_s * kRounds, 0.0, 1 << 16);
    count(traced, "traced closed loop");
    traced_service->stop();
    trace_overhead = traced.qps > 0.0 ? overhead_pct(1.0 / closed.qps, 1.0 / traced.qps)
                                      : 0.0;
  }

  const double cache_hit_ratio = service->cache_hit_rate();
  service->stop();

  // Host stalls on a shared VM last milliseconds to seconds, so each
  // figure is a median over short windows: a stall spoils a few windows,
  // not the figure. Raw all-sample percentiles are reported beside them.
  // Runs shorter than one window per round fall back to the whole phase.
  const double qps = qps_windows.empty() ? closed.qps : median(qps_windows);
  const double p50_us = median_window_percentile(open_windows, 0.50);
  const double p90_us = median_window_percentile(open_windows, 0.90);
  const double p99_us = median_window_percentile(open_windows, 0.99);
  std::vector<double> latency = open.latency_us;
  std::sort(latency.begin(), latency.end());
  const double all_p50_us = latency.empty() ? 0.0 : percentile(latency, 0.50);
  const double all_p99_us = latency.empty() ? 0.0 : percentile(latency, 0.99);
  const double all_p999_us = latency.empty() ? 0.0 : percentile(latency, 0.999);
  const double lag_p99_us =
      open.send_lag_us.empty() ? 0.0 : percentile_of(open.send_lag_us, 0.99);

  stamp_common(report, kServeDomains, rounds, generate_s, setup_peak_mib);
  report.add_stamp("shards", "2");
  report.add_stamp("clients", std::to_string(kServeClients));
  report.add_stamp("server_cpus", json_string(cpu_list(cpus.server)));
  report.add_stamp("client_cpus", json_string(cpu_list(cpus.client)));
  report.add_stamp("open_loop_rate", std::to_string(options.serve_rate));
  report.add_stamp("rounds", std::to_string(kRounds));
  report.add_stamp("closed_loop_s", std::to_string(closed_s * kRounds));
  report.add_stamp("open_loop_s", std::to_string(open_s * kRounds));
  report.add_stamp("open_loop_requests", std::to_string(latency.size()));
  report.add_stamp("open_loop_p99_samples_beyond",
                   std::to_string(samples_beyond(latency.size(), 0.99)));
  report.add_stamp("open_loop_achieved_qps", std::to_string(open.qps));
  // Within-run spread of the windowed figures (IQR over median, %).
  if (qps_windows.size() >= 2)
    report.add_stamp("qps_window_spread_pct",
                     std::to_string(100.0 * quartiles(qps_windows).relative_iqr()));
  std::vector<double> p50_windows;
  for (std::vector<double> w : open_windows) {
    if (w.empty()) continue;
    std::sort(w.begin(), w.end());
    p50_windows.push_back(percentile(w, 0.50));
  }
  if (p50_windows.size() >= 2)
    report.add_stamp("p50_window_spread_pct",
                     std::to_string(100.0 * quartiles(p50_windows).relative_iqr()));
  report.add_stamp("cache_hit_ratio", std::to_string(cache_hit_ratio));
  report.add_stamp("key_universe", std::to_string(world->items.size()));

  const double generate_median_s = median(generate_s);
  const double publish_median_s = median(publish_s);
  report.add_e2e("setup_s", generate_median_s + publish_median_s, "s");
  report.add_e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  report.add_e2e("throughput_per_s", qps, "1/s");
  report.add_e2e("latency_p50_ms", p50_us / 1000.0, "ms");
  report.add_named("serve_qps", qps, "1/s");
  report.add_named("serve_p50_us", p50_us, "us");
  report.add_named("serve_p90_us", p90_us, "us");
  report.add_named("serve_p99_us", p99_us, "us");
  report.add_named("serve_qps_whole_phase", closed.qps, "1/s");
  report.add_named("serve_p50_us_all_samples", all_p50_us, "us");
  report.add_named("serve_p99_us_all_samples", all_p99_us, "us");
  report.add_named("serve_p999_us_all_samples", all_p999_us, "us");
  report.add_named("serve_send_lag_us_p99", lag_p99_us, "us");
  report.add_named("serve_client_cpu_pct", open.client_cpu_pct, "%");
  report.add_named("serve_server_cpu_pct", open.server_cpu_pct, "%");
  report.add_named("serve_closed_client_cpu_pct", closed.client_cpu_pct, "%");
  report.add_named("serve_closed_server_cpu_pct", closed.server_cpu_pct, "%");
  report.add_named("setup_generate_s", generate_median_s, "s");
  report.add_named("setup_publish_s", publish_median_s, "s");
  // The endpoint mix actually served over the timed phases; the shares
  // the key stream draws are an assumption (see README.md).
  std::uint64_t served = 0;
  for (std::size_t e = 0; e < 4; ++e) served += closed.per_endpoint[e] + open.per_endpoint[e];
  const char* const endpoint_names[] = {"domain", "ip", "prefix", "summary"};
  for (std::size_t e = 0; e < 4; ++e)
    report.add_named(std::string("serve_share_") + endpoint_names[e],
                     served == 0 ? 0.0
                                 : static_cast<double>(closed.per_endpoint[e] +
                                                       open.per_endpoint[e]) /
                                       static_cast<double>(served),
                     "ratio");

  if (options.trace) {
    LedgerInputs inputs;
    inputs.ecosystem = ecosystem.get();
    inputs.seed = options.seed;
    inputs.serve_rate = options.serve_rate;
    inputs.generate_s = generate_median_s;
    inputs.open_loop = &open;
    inputs.serve = world.get();
    inputs.trace_overhead_pct = trace_overhead;
    layer_ledger(inputs, report);
  }
  return report;
}

}  // namespace perfbench
