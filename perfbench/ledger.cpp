// The traced run's layer ledger. Every figure is timed from here, around
// calls into one layer's public functions on the workload's own world —
// nothing under src/ is instrumented for it. Where the workload's phase
// already exercised a layer (the open loop, the serial reference sweep)
// its samples are used; other layers, delta ticks among them, are probed.
//
// The two "unattributed" figures compare a whole (the serial sweep, the
// mean tick) with the sum of per-call estimates of the layers inside it.
// They are reported, not gated: the estimates use uncached per-call costs
// while the sweep runs behind its caches, so the residual can go negative.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "bgp/mrt.hpp"
#include "delta/pipeline.hpp"
#include "dns/resolver.hpp"
#include "dns/server.hpp"
#include "net/special.hpp"
#include "obs/metrics.hpp"
#include "obs/sched.hpp"
#include "rpki/origin_validation.hpp"
#include "rpki/validator.hpp"
#include "rtr/cache.hpp"
#include "rtr/client.hpp"

namespace perfbench {
namespace {

using namespace ripki;

constexpr int kProbeRepeats = 5;
constexpr std::size_t kDnsSampleDomains = 10'000;
constexpr std::size_t kHandleRequests = 100'000;
constexpr double kSocketProbeSeconds = 1.5;
constexpr std::size_t kDeltaProbeMaxTicks = 80;

/// Keeps the probe loops' results observable so they are not elided.
volatile std::size_t g_sink = 0;

/// Median wall time (ms) of `repeats` calls of `fn`.
template <typename Fn>
double median_ms(int repeats, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    const auto started = Clock::now();
    fn();
    ms.push_back(ms_since(started));
  }
  return median(ms);
}

struct DnsProbe {
  double resolve_mean_us = 0.0;
  double dnskey_mean_us = 0.0;
  std::vector<double> resolve_us;
  std::uint64_t names = 0;
  std::uint64_t failed = 0;
  std::uint64_t queries = 0;
  std::vector<net::IpAddress> kept;  // non-special answers, for stage 3
};

DnsProbe probe_dns(const web::Ecosystem& ecosystem) {
  DnsProbe probe;
  const dns::AuthoritativeServer server(&ecosystem.zone_source(web::Vantage::kBerlin));
  dns::StubResolver resolver(&server);
  const std::size_t count = ecosystem.domain_count();
  const std::size_t stride = std::max<std::size_t>(1, count / kDnsSampleDomains);
  std::vector<double> dnskey_us;
  for (std::size_t i = 0; i < count; i += stride) {
    auto apex = dns::DnsName::parse(ecosystem.plan_name(i));
    if (!apex.ok()) continue;
    const dns::DnsName www = apex.value().prepended("www");
    const dns::DnsName* names[] = {&www, &apex.value()};
    for (const dns::DnsName* name : names) {
      const std::uint64_t queries = resolver.queries_sent();
      const auto started = Clock::now();
      auto resolution = resolver.resolve_all(*name);
      probe.resolve_us.push_back(ms_since(started) * 1000.0);
      probe.queries += resolver.queries_sent() - queries;
      ++probe.names;
      if (!resolution.ok() || resolution.value().rcode != dns::Rcode::kNoError) {
        ++probe.failed;
        continue;
      }
      for (const net::IpAddress& address : resolution.value().addresses)
        if (!net::is_special_purpose(address)) probe.kept.push_back(address);
    }
    const auto started = Clock::now();
    (void)resolver.query(apex.value(), dns::RecordType::kDnskey);
    dnskey_us.push_back(ms_since(started) * 1000.0);
  }
  probe.resolve_mean_us = mean(probe.resolve_us);
  probe.dnskey_mean_us = mean(dnskey_us);
  return probe;
}

/// One applied delta tick, timed around apply_tick alone.
struct TickSample {
  double ms = 0.0;
  std::uint64_t allocations = 0;
  delta::TickStats stats;
};

/// Applies ticks until one compacts, so the samples span a whole
/// compaction cycle (tick cost ramps between compactions); stops early
/// after `max_ticks`. The generator call is not timed.
std::vector<TickSample> run_cycle(delta::IncrementalPipeline& pipeline,
                                  delta::TickGenerator& generator, std::size_t max_ticks) {
  std::vector<TickSample> samples;
  while (samples.size() < max_ticks) {
    const delta::Tick tick = generator.next();
    TickSample sample;
    const std::uint64_t allocations = thread_allocations();
    const auto started = Clock::now();
    sample.stats = pipeline.apply_tick(tick);
    sample.ms = ms_since(started);
    sample.allocations = thread_allocations() - allocations;
    samples.push_back(sample);
    if (sample.stats.compacted) break;
  }
  return samples;
}

/// Delta figures from a tick series on `pipeline`.
struct DeltaFigures {
  double mean_tick_ms = 0.0;
  double dirty_rows = 0.0;
  double changed_rows = 0.0;
  double changed_over_dirty = 0.0;
  double vrp_events = 0.0;
  double rib_share = 0.0;
  double vrp_share = 0.0;
  double compact_share = 0.0;
  double compaction_ms = 0.0;
  double allocs_per_tick = 0.0;
};

DeltaFigures summarize_ticks(const std::vector<TickSample>& ticks) {
  DeltaFigures f;
  if (ticks.empty()) return f;
  double dirty = 0, changed = 0, vrp = 0, rib = 0, vrps = 0, allocs = 0;
  std::vector<double> ms;
  std::vector<double> compact_ms;
  for (const TickSample& t : ticks) {
    ms.push_back(t.ms);
    dirty += static_cast<double>(t.stats.dirty_rows);
    changed += static_cast<double>(t.stats.changed_rows);
    vrp += static_cast<double>(t.stats.vrp_added + t.stats.vrp_removed);
    rib += t.stats.rib_changed ? 1 : 0;
    vrps += t.stats.vrps_changed ? 1 : 0;
    allocs += static_cast<double>(t.allocations);
    if (t.stats.compacted) compact_ms.push_back(t.ms);
  }
  const double n = static_cast<double>(ticks.size());
  f.mean_tick_ms = mean(ms);
  f.dirty_rows = dirty / n;
  f.changed_rows = changed / n;
  f.changed_over_dirty = dirty > 0 ? changed / dirty : 0.0;
  f.vrp_events = vrp / n;
  f.rib_share = rib / n;
  f.vrp_share = vrps / n;
  f.compact_share = static_cast<double>(compact_ms.size()) / n;
  f.compaction_ms = compact_ms.empty() ? std::nan("") : mean(compact_ms);
  f.allocs_per_tick = allocs / n;
  return f;
}

}  // namespace

void layer_ledger(const LedgerInputs& in, Report& report) {
  const web::Ecosystem& ecosystem = *in.ecosystem;
  const double domains = static_cast<double>(ecosystem.domain_count());

  // --- web ------------------------------------------------------------------
  report.add_layer("web.generate_s", in.generate_s, "s");

  // --- bgp: MRT encode, parse, freeze -------------------------------------------
  util::Bytes dump;
  const double dump_ms = median_ms(kProbeRepeats, [&] { dump = ecosystem.mrt_dump(); });
  bgp::mrt::ParseStats parse_stats;
  bgp::Rib rib;
  std::vector<double> parse_samples;
  std::vector<double> freeze_samples;
  for (int i = 0; i < kProbeRepeats; ++i) {
    parse_stats = {};
    auto started = Clock::now();
    rib = bgp::mrt::read_table_dump(dump, &parse_stats).value();
    parse_samples.push_back(ms_since(started));
    started = Clock::now();
    rib.freeze();
    freeze_samples.push_back(ms_since(started));
  }
  const double parse_ms = median(parse_samples);
  const double freeze_ms = median(freeze_samples);
  report.add_layer("bgp.mrt_parse_ms", parse_ms, "ms");
  report.add_layer("bgp.mrt_records_per_s",
                   static_cast<double>(parse_stats.records) / (parse_ms / 1000.0), "1/s");
  report.add_layer("bgp.freeze_ms", freeze_ms, "ms");

  // --- rpki: repository validation ---------------------------------------------
  const rpki::RepositoryValidator validator(ecosystem.config().now);
  rpki::ValidationReport validation;
  const double validate_ms =
      median_ms(kProbeRepeats, [&] { validation = validator.validate(ecosystem.repositories()); });
  report.add_layer("rpki.validate_ms", validate_ms, "ms");
  report.add_layer("rpki.roas_per_s",
                   static_cast<double>(validation.roas_accepted + validation.roas_rejected) /
                       (validate_ms / 1000.0),
                   "1/s");

  // --- dns: resolve_all over a strided sample of both name variants ------------
  const DnsProbe dns = probe_dns(ecosystem);
  report.add_layer("dns.resolve_us_p50", percentile_of(dns.resolve_us, 0.50), "us");
  report.add_layer("dns.resolve_us_p90", percentile_of(dns.resolve_us, 0.90), "us");
  report.add_layer("dns.queries_per_name",
                   static_cast<double>(dns.queries) / static_cast<double>(dns.names), "count");
  report.add_layer("dns.resolve_failed_ratio",
                   static_cast<double>(dns.failed) / static_cast<double>(dns.names), "ratio");

  // --- bgp covering walk and rpki origin validation on the kept addresses ------
  std::size_t sink = 0;
  auto started = Clock::now();
  for (const net::IpAddress& address : dns.kept) sink += rib.covering(address).size();
  const double covering_ns =
      ms_since(started) * 1e6 / static_cast<double>(std::max<std::size_t>(1, dns.kept.size()));
  std::vector<std::pair<net::Prefix, net::Asn>> pairs;
  for (const net::IpAddress& address : dns.kept)
    for (const auto& match : rib.covering(address))
      for (const bgp::RibEntry& entry : *match.entries)
        if (!entry.as_path.contains_as_set())
          if (const auto origin = entry.origin()) pairs.emplace_back(match.prefix, *origin);
  const rpki::VrpIndex vrp_index(validation.vrps);
  started = Clock::now();
  for (const auto& [prefix, origin] : pairs)
    sink += static_cast<std::size_t>(vrp_index.validate(prefix, origin));
  const double origin_ns =
      ms_since(started) * 1e6 / static_cast<double>(std::max<std::size_t>(1, pairs.size()));
  report.add_layer("bgp.covering_ns", covering_ns, "ns");
  report.add_layer("rpki.origin_validate_ns", origin_ns, "ns");

  // --- core: the serial sweep --------------------------------------------------
  SerialSweep own_serial;
  if (in.serial == nullptr) own_serial = serial_sweep(ecosystem);
  const SerialSweep& serial = in.serial != nullptr ? *in.serial : own_serial;
  const auto& cache = serial.pipeline->cache_stats();
  const auto& counters = serial.dataset.counters;
  const double addresses = static_cast<double>(counters.addresses_www + counters.addresses_apex);
  const double pair_count = static_cast<double>(counters.pairs_www + counters.pairs_apex);
  const double per_domain_ms =
      (2.0 * dns.resolve_mean_us + dns.dnskey_mean_us) / 1000.0 +
      (addresses * covering_ns + pair_count * origin_ns) / 1e6 / domains;
  const double attributed_ms =
      dump_ms + parse_ms + freeze_ms + validate_ms + domains * per_domain_ms;
  report.add_layer("bgp.covering_cache_hit_ratio", cache.covering_hit_rate(), "ratio");
  report.add_layer("rpki.validation_cache_hit_ratio", cache.validation_hit_rate(), "ratio");
  report.add_layer("core.sweep_serial_ms", serial.ms, "ms");
  report.add_layer("core.unattributed_pct", 100.0 * (serial.ms - attributed_ms) / serial.ms,
                   "%");
  report.add_layer("core.allocs_per_domain",
                   static_cast<double>(serial.allocations) / domains, "count");

  // --- exec: the same sweep on nproc workers with the scheduler X-ray ----------
  {
    obs::Registry registry;
    obs::SchedTelemetry sched(&registry);
    core::PipelineConfig config;
    config.threads = std::max<std::size_t>(1, allowed_cpus().size());
    config.registry = &registry;
    config.sched = &sched;
    core::MeasurementPipeline pipeline(ecosystem, config);
    started = Clock::now();
    const core::Dataset dataset = pipeline.run();
    const double pooled_ms = ms_since(started);
    if (!(dataset == serial.dataset)) report.fail("ledger: pooled sweep differs from serial");
    const auto aggregates = sched.snapshot().aggregates();
    report.add_layer("exec.speedup", serial.ms / pooled_ms, "x");
    report.add_layer("exec.steal_ratio", aggregates.steal_ratio, "ratio");
    report.add_layer("exec.idle_pct", 100.0 - aggregates.utilization_pct, "%");
  }

  // --- serve: snapshot build, in-process handle, render ------------------------
  std::shared_ptr<const serve::Snapshot> snapshot;
  const double build_ms = median_ms(kProbeRepeats, [&] {
    snapshot = serve::Snapshot::build(serial.dataset, serial.pipeline->rib(),
                                      serial.pipeline->validation_report().vrps, 1);
  });
  report.add_layer("serve.snapshot_build_ms", build_ms, "ms");

  ServeWorld own_world;
  if (in.serve == nullptr)
    own_world = build_serve_world(ecosystem, serial.dataset, snapshot, in.seed);
  const ServeWorld& world = in.serve != nullptr ? *in.serve : own_world;
  const std::size_t requests = std::min(kHandleRequests, world.stream.size());
  double handle_p50_us = 0.0;
  {
    serve::QueryServiceOptions options;
    options.http.shards = 2;
    serve::QueryService service(std::move(options));
    service.publish(world.snapshot);
    std::vector<double> handle_us;
    handle_us.reserve(requests);
    std::uint64_t allocations = 0;
    for (std::size_t i = 0; i < requests; ++i) {
      const Item& item = world.items[world.stream[i]];
      serve::HttpRequest request;
      request.method = "GET";
      request.target = item.target;
      request.path = item.target;
      request.shard = static_cast<std::uint32_t>(i % 2);
      const std::uint64_t before = thread_allocations();
      const auto t0 = Clock::now();
      const serve::HttpResponse response = service.handle(request);
      handle_us.push_back(ms_since(t0) * 1000.0);
      allocations += thread_allocations() - before;
      if (response.status != 200 || digest_of(response.body_bytes()) != item.expected)
        report.fail("ledger: in-process handle diverges for " + item.target);
    }
    report.attempted += requests;
    handle_p50_us = percentile_of(handle_us, 0.50);
    report.add_layer("serve.handle_us_p50", handle_p50_us, "us");
    report.add_layer("serve.cache_hit_ratio", service.cache_hit_rate(), "ratio");
    report.add_layer("serve.allocs_per_request",
                     static_cast<double>(allocations) / static_cast<double>(requests), "count");
  }
  {
    const serve::Snapshot& snap = *world.snapshot;
    std::vector<double> render_us;
    render_us.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      const Item& item = world.items[world.stream[i]];
      const std::string_view key =
          std::string_view(item.target).substr(item.target.find('/', 4) + 1);
      const auto t0 = Clock::now();
      std::string body;
      switch (item.endpoint) {
        case Endpoint::kDomain:
          if (const auto record = snap.find_domain(key))
            body = serve::Snapshot::render_domain_json(*record, snap.generation());
          break;
        case Endpoint::kIp:
          body = snap.ip_json(net::IpAddress::parse(key).value());
          break;
        case Endpoint::kPrefix: {
          const auto last = key.rfind('/');
          body = snap.prefix_json(net::Prefix::parse(key.substr(0, last)).value(),
                                  net::Asn(static_cast<std::uint32_t>(
                                      std::stoul(std::string(key.substr(last + 1))))));
          break;
        }
        case Endpoint::kSummary:
          body = snap.summary_json();
          break;
      }
      render_us.push_back(ms_since(t0) * 1000.0);
      if (digest_of(body) != item.expected) report.fail("ledger: render diverges for " + item.target);
    }
    report.attempted += requests;
    report.add_layer("serve.render_us_p50", percentile_of(render_us, 0.50), "us");
  }

  // --- serve: socket path (the workload's open loop, or a short probe) ---------
  LoadResult own_open;
  if (in.open_loop == nullptr) {
    const CpuPlan cpus = plan_cpus();
    auto service = start_service(world.snapshot, cpus.server, nullptr);
    if (!service) {
      report.fail("ledger: probe service failed to start");
    } else {
      const LoadResult warm = drive_load(world, service->port(), cpus, 2, 0.3, 0.0, 0);
      own_open = drive_load(world, service->port(), cpus, 2, kSocketProbeSeconds,
                            in.serve_rate, 1 << 16);
      service->stop();
      report.attempted += warm.attempted + own_open.attempted;
      report.failed += warm.failed + own_open.failed;
    }
  }
  const LoadResult& open = in.open_loop != nullptr ? *in.open_loop : own_open;
  const bool have_open = !open.latency_us.empty();
  report.add_layer("serve.transport_us_p50",
                   have_open ? percentile_of(open.latency_us, 0.50) - handle_p50_us
                             : std::nan(""),
                   "us");
  report.add_layer("serve.send_lag_us_p99",
                   have_open ? percentile_of(open.send_lag_us, 0.99) : std::nan(""),
                   "us");
  report.add_layer("serve.client_cpu_pct", open.client_cpu_pct, "%");
  report.add_layer("serve.server_cpu_pct", open.server_cpu_pct, "%");

  // --- delta: one compaction cycle of probe ticks on this world ---------------
  delta::DeltaConfig delta_config;
  delta_config.churn.seed = in.seed;
  delta::IncrementalPipeline incremental(ecosystem, delta_config);
  incremental.init();
  delta::TickGenerator generator(delta_config.churn, incremental.universe());
  const std::vector<TickSample> ticks =
      run_cycle(incremental, generator, kDeltaProbeMaxTicks);
  report.attempted += ticks.size();
  for (const TickSample& tick : ticks)
    if (!tick.stats.rtr_in_sync) report.fail("ledger: probe tick RTR out of sync");
  const DeltaFigures delta = summarize_ticks(ticks);

  // Snapshot::apply_delta on a tick-sized changed-row set.
  std::vector<std::uint32_t> rows;
  const std::size_t row_count = incremental.row_count();
  const std::size_t changed = std::max<std::size_t>(1, std::lround(delta.changed_rows));
  for (std::size_t i = 0; i < changed; ++i)
    rows.push_back(static_cast<std::uint32_t>(i * row_count / changed));
  const double apply_ms = median_ms(kProbeRepeats, [&] {
    const auto next = serve::Snapshot::apply_delta(
        incremental.snapshot(), incremental.dataset(), rows, nullptr, nullptr,
        incremental.generation() + 1);
    sink += next->overlay_size();
  });

  // RTR: cache update + router serial sync on a tick-sized VRP delta.
  const rpki::VrpSet& base_vrps = validation.vrps;
  const std::size_t vrp_delta = std::max<std::size_t>(1, std::lround(delta.vrp_events));
  const std::size_t step = std::max<std::size_t>(1, base_vrps.size() / vrp_delta);
  rpki::VrpSet trimmed;
  for (std::size_t i = 0; i < base_vrps.size(); ++i)
    if (i % step != 0 || i / step >= vrp_delta) trimmed.push_back(base_vrps[i]);
  rtr::CacheServer rtr_cache(/*session_id=*/0x5157, base_vrps);
  rtr::RouterClient rtr_client;
  if (!rtr_client.sync(rtr_cache).ok()) report.fail("ledger: RTR reset sync failed");
  std::vector<double> rtr_ms;
  for (int i = 0; i < kProbeRepeats; ++i) {
    const rpki::VrpSet& next = i % 2 == 0 ? trimmed : base_vrps;
    const auto t0 = Clock::now();
    rtr_cache.update(next);
    const bool synced = rtr_client.sync(rtr_cache).ok();
    rtr_ms.push_back(ms_since(t0));
    if (!synced || rtr_client.serial() != rtr_cache.serial())
      report.fail("ledger: RTR serial sync out of step");
  }
  const double rtr_sync_ms = median(rtr_ms);

  // Rib::refreeze after one withdraw + re-announce.
  std::vector<net::Prefix> prefixes;
  rib.visit([&](const net::Prefix& prefix, const std::vector<bgp::RibEntry>&) {
    prefixes.push_back(prefix);
  });
  std::vector<double> refreeze_samples;
  for (int i = 0; i < kProbeRepeats && !prefixes.empty(); ++i) {
    const net::Prefix& prefix =
        prefixes[static_cast<std::size_t>(i) * prefixes.size() / kProbeRepeats];
    rib.announce(rib.withdraw(prefix));
    const auto t0 = Clock::now();
    rib.refreeze();
    refreeze_samples.push_back(ms_since(t0));
  }
  const double refreeze_ms = median(refreeze_samples);

  const double tick_estimate_ms =
      delta.dirty_rows * per_domain_ms + delta.rib_share * refreeze_ms +
      delta.vrp_share * rtr_sync_ms + (1.0 - delta.compact_share) * apply_ms +
      delta.compact_share * build_ms;
  report.add_layer("delta.dirty_rows_per_tick", delta.dirty_rows, "count");
  report.add_layer("delta.changed_over_dirty", delta.changed_over_dirty, "ratio");
  report.add_layer("delta.snapshot_apply_ms", apply_ms, "ms");
  report.add_layer("rtr.sync_ms", rtr_sync_ms, "ms");
  report.add_layer("delta.refreeze_ms", refreeze_ms, "ms");
  report.add_layer("delta.compaction_ms", delta.compaction_ms, "ms");
  report.add_layer("delta.unattributed_pct",
                   100.0 * (delta.mean_tick_ms - tick_estimate_ms) / delta.mean_tick_ms, "%");
  report.add_layer("delta.allocs_per_tick", delta.allocs_per_tick, "count");
  report.add_stamp("ledger_ticks", std::to_string(ticks.size()));

  report.add_layer("obs.trace_overhead_pct", in.trace_overhead_pct, "%");
  g_sink = sink;
}

}  // namespace perfbench
