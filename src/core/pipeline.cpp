#include "core/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "exec/thread_pool.hpp"
#include "obs/sched.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "rpki/rrdp.hpp"
#include "rtr/cache.hpp"

namespace ripki::core {

namespace {

/// Shards per worker in the parallel sweep. Coarse on purpose: per-shard
/// cost variance (CDN-heavy rank bands resolve through longer CNAME
/// chains) is modest once shards span thousands of domains, and the
/// pool's work stealing only needs a little slack to even out the tail —
/// more shards than that just buys span/merge overhead. A single worker
/// gets exactly one shard (nothing to balance).
constexpr std::size_t kShardsPerWorker = 4;

/// Floor on shard size: below this, per-shard overhead (span, fragment
/// table, steal traffic) dominates the work itself.
constexpr std::size_t kMinShardSize = 256;

std::size_t sweep_shard_count(std::size_t workers, std::size_t count) {
  if (workers <= 1) return 1;
  const std::size_t by_worker = workers * kShardsPerWorker;
  const std::size_t by_size = count / kMinShardSize;
  return std::max(workers, std::min(by_worker, std::max<std::size_t>(by_size, 1)));
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// items/second over a millisecond interval; 0 when the interval is
/// unmeasurably short.
double per_second(std::uint64_t items, double ms) {
  return ms <= 0.0 ? 0.0 : static_cast<double>(items) / (ms / 1000.0);
}

}  // namespace

MeasurementPipeline::MeasurementPipeline(const web::Ecosystem& ecosystem,
                                         PipelineConfig config)
    : ecosystem_(ecosystem), config_(config) {
  if (config_.now == 0) config_.now = ecosystem.config().now;
  // Spans consult the registry's tracer, so wiring the configured tracer
  // in here makes every stage below emit timeline events.
  if (config_.registry != nullptr && config_.tracer != nullptr) {
    config_.registry->set_tracer(config_.tracer);
  }
}

void MeasurementPipeline::set_health(std::string_view subsystem, bool healthy,
                                     std::string_view detail) const {
  if (config_.health == nullptr) return;
  config_.health->set(subsystem, healthy, detail);
}

void MeasurementPipeline::log(obs::LogLevel level, std::string_view message,
                              std::vector<obs::LogField> fields) const {
  if (static_cast<int>(level) < static_cast<int>(config_.verbosity)) return;
  obs::Logger::global().log(level, "pipeline", message, std::move(fields));
}

void MeasurementPipeline::prepare_rib(exec::ThreadPool* pool) {
  obs::Span span(config_.registry, "stage3.rib_prepare");
  const auto stage_start = std::chrono::steady_clock::now();
  // Consume the collector table the way the paper consumes RIS: through
  // the serialised MRT dump, not via in-process shortcuts.
  const util::Bytes dump = ecosystem_.mrt_dump();
  const auto parse_start = std::chrono::steady_clock::now();
  auto rib = bgp::mrt::read_table_dump(dump, &mrt_stats_, config_.registry, pool);
  const double parse_ms = ms_since(parse_start);
  assert(rib.ok() && "ecosystem MRT dump must parse");
  rib_ = std::move(rib).value();
  // Freeze the compact array-mapped trie image: the sweep's covering
  // walks run over one flat array instead of chasing heap pointers.
  rib_.freeze();
  setup_stats_.rib_prepare_ms = ms_since(stage_start);
  setup_stats_.mrt_records_per_sec = per_second(mrt_stats_.records, parse_ms);
  if (config_.registry != nullptr) {
    config_.registry->gauge("ripki.bgp.rib_prefixes")
        .set(static_cast<std::int64_t>(rib_.prefix_count()));
    config_.registry->gauge("ripki.bgp.rib_entries")
        .set(static_cast<std::int64_t>(rib_.entry_count()));
    config_.registry->gauge("ripki.bgp.mrt_parse_records_per_sec")
        .set(static_cast<std::int64_t>(setup_stats_.mrt_records_per_sec));
    config_.registry->describe("ripki.bgp.rib_entries",
                               "Path entries in the MRT-loaded RIB (stage 3)");
    config_.registry->describe("ripki.bgp.mrt_parse_records_per_sec",
                               "MRT records parsed per second in the last "
                               "stage 3 table load");
  }
  log(obs::LogLevel::kInfo, "stage 3 table ready",
      {{"prefixes", rib_.prefix_count()}, {"entries", rib_.entry_count()}});
  set_health("bgp", rib_.prefix_count() > 0,
             rib_.prefix_count() > 0 ? "RIB loaded from MRT dump"
                                     : "RIB empty after MRT parse");
}

void MeasurementPipeline::prepare_vrps(exec::ThreadPool* pool) {
  obs::Span span(config_.registry, "stage4.vrp_prepare");
  const auto stage_start = std::chrono::steady_clock::now();
  const rpki::RepositoryValidator validator(config_.now, config_.registry);
  double validate_ms = 0.0;
  if (config_.use_rrdp) {
    // Full relying-party collection: mirror every repository over RRDP,
    // reassemble the fetched objects, and bootstrap trust from the TALs.
    std::vector<rpki::Repository> fetched;
    for (const auto& repo : ecosystem_.repositories()) {
      obs::Span mirror_span(config_.registry, "rrdp.mirror");
      rpki::RrdpServer server("session-" + rpki::repository_base_uri(repo), repo);
      rpki::RrdpClient client;
      const auto synced = client.sync(server);
      assert(synced.ok() && "RRDP sync against in-process server must succeed");
      (void)synced;
      auto assembled = client.assemble();
      assert(assembled.ok() && "RRDP-mirrored repository must reassemble");
      fetched.push_back(std::move(assembled).value());
    }
    const auto tals = ecosystem_.tals();
    const auto validate_start = std::chrono::steady_clock::now();
    report_ = validator.validate(fetched, tals, pool);
    validate_ms = ms_since(validate_start);
  } else {
    const auto validate_start = std::chrono::steady_clock::now();
    report_ = validator.validate(ecosystem_.repositories(), pool);
    validate_ms = ms_since(validate_start);
  }
  setup_stats_.roas_per_sec =
      per_second(report_.roas_accepted + report_.roas_rejected, validate_ms);

  if (config_.use_rtr) {
    // Ship the validated set to the "router" over RFC 6810.
    rtr::CacheServer cache(/*session_id=*/0x5157, report_.vrps);
    rtr::RouterClient client;
    client.attach(config_.registry);
    const auto synced = client.sync(cache);
    assert(synced.ok() && "RTR sync against in-process cache must succeed");
    (void)synced;
    vrp_index_ = client.build_index();
  } else {
    vrp_index_ = rpki::VrpIndex(report_.vrps);
  }
  setup_stats_.vrp_prepare_ms = ms_since(stage_start);
  if (config_.registry != nullptr) {
    config_.registry->gauge("ripki.rpki.roa_validate_per_sec")
        .set(static_cast<std::int64_t>(setup_stats_.roas_per_sec));
    config_.registry->describe("ripki.rpki.roa_validate_per_sec",
                               "ROAs validated per second in the last "
                               "stage 4 repository walk");
  }
  log(obs::LogLevel::kInfo, "stage 4 VRPs ready",
      {{"vrps", report_.vrps.size()},
       {"roas_accepted", report_.roas_accepted},
       {"roas_rejected", report_.roas_rejected}});
  set_health("rpki", !report_.vrps.empty(),
             !report_.vrps.empty() ? "VRP set validated"
                                   : "validation produced no VRPs");
}

void MeasurementPipeline::measure_domain(std::size_t index,
                                         MeasureKernel& kernel,
                                         PipelineCounters& counters,
                                         DomainTable& out) {
  const std::string_view name = ecosystem_.plan_name(index);
  auto apex = dns::DnsName::parse(name);
  assert(apex.ok());
  const RowResult& row = kernel.measure(apex.value());
  obs::StageScope emit_stage(config_.sched, obs::SweepStage::kEmit);
  count_row(counters, row, +1);
  out.append(ecosystem_.plan(index).rank, name, row.excluded_dns,
             row.dnssec_signed, row.www, row.apex);
}

void MeasurementPipeline::publish_sweep_metrics() const {
  if (config_.registry == nullptr) return;
  obs::Registry& registry = *config_.registry;
  registry.gauge("ripki.exec.threads")
      .set(static_cast<std::int64_t>(effective_threads_));
  registry.describe("ripki.exec.threads",
                    "Sweep worker threads of the last run after the "
                    "hardware-concurrency clamp (0 = serial)");
}

Dataset MeasurementPipeline::run() {
  if (config_.registry != nullptr) {
    config_.registry->describe("ripki.pipeline.domains_total",
                               "Domains measured (paper stage 1 selection)");
    config_.registry->describe("ripki.pipeline.dns_queries",
                               "DNS queries issued during stage 2 resolution");
    config_.registry->describe("ripki.bgp.rib_prefixes",
                               "Prefixes in the MRT-loaded RIB (stage 3)");
    config_.registry->describe("ripki.rpki.vrps",
                               "Validated ROA payloads feeding stage 4");
  }
  // Clamp to the host: more workers than cores only time-slice each other
  // — never a speedup.
  effective_threads_ = config_.threads;
  const std::size_t hardware = exec::ThreadPool::hardware_threads();
  if (effective_threads_ > hardware) {
    log(obs::LogLevel::kWarn, "clamping sweep threads to hardware concurrency",
        {{"requested", config_.threads}, {"hardware", hardware}});
    effective_threads_ = hardware;
  }
  obs::Span run_span(config_.registry, "pipeline.run");
  // One pool serves the setup stages and the sweep, so worker threads are
  // spawned (and their counters registered) exactly once per run.
  std::unique_ptr<exec::ThreadPool> pool;
  if (effective_threads_ > 0) {
    pool = std::make_unique<exec::ThreadPool>(effective_threads_,
                                              config_.registry, config_.sched);
  } else if (config_.sched != nullptr) {
    // Serial run: one telemetry window with only the external lane, which
    // the sweep below binds to the calling thread.
    config_.sched->begin_run(0);
  }
  // Samples the pool's queue depths for the duration of the run. Declared
  // after `pool` so its destructor stops the sampler before the pool (and
  // with it the depth source) goes away.
  struct SamplerGuard {
    obs::SchedTelemetry* sched = nullptr;
    ~SamplerGuard() {
      if (sched != nullptr) sched->stop_queue_sampler();
    }
  } sampler_guard;
  if (pool != nullptr && config_.sched != nullptr) {
    config_.sched->start_queue_sampler(
        [p = pool.get()] { return p->queue_depths(); });
    sampler_guard.sched = config_.sched;
  }
  prepare_rib(pool.get());
  prepare_vrps(pool.get());

  // Materialize the vantage's zone view on this thread (lazily built) and
  // the single authoritative-server view over it; workers share both
  // read-only (the server's stats are atomic).
  const dns::ZoneSource& zones = ecosystem_.zone_source(config_.vantage);
  const dns::AuthoritativeServer server(&zones);

  Dataset dataset;
  dataset.rank_space = ecosystem_.config().rank_space;

  obs::Span select_span(config_.registry, "stage1.select_domains");
  std::size_t count = ecosystem_.domain_count();
  if (config_.max_domains != 0) count = std::min(count, config_.max_domains);
  select_span.stop();
  log(obs::LogLevel::kInfo, "stage 1 domains selected",
      {{"domains", count}, {"threads", effective_threads_}});

  if (effective_threads_ == 0) {
    MeasureKernel kernel(&server, &rib_, &vrp_index_, config_.registry,
                         config_.sched);
    obs::Span sweep_span(config_.registry, "sweep");
    // Bind the calling thread to the external lane so the kernel's stage
    // scopes attribute serial sweep time too.
    obs::LaneScope lane(config_.sched, config_.sched != nullptr
                                           ? config_.sched->external_lane()
                                           : 0);
    dataset.domains.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      measure_domain(i, kernel, dataset.counters, dataset.domains);
    }
    sweep_span.stop();
    dataset.counters.dns_queries = kernel.queries_sent();
  } else {
    // One kernel per pool worker: each owns its resolver; the zone view,
    // frozen RIB and VRP index are shared read-only.
    std::vector<MeasureKernel> kernels;
    kernels.reserve(pool->size());
    for (std::size_t i = 0; i < pool->size(); ++i) {
      kernels.emplace_back(&server, &rib_, &vrp_index_, config_.registry,
                           config_.sched);
    }
    // Each shard appends into its own SoA fragment and counts into its
    // own counters; fragments merge in shard order below, replaying the
    // serial append sequence exactly — the dataset is identical to the
    // serial run for every thread count.
    const std::size_t n_shards = sweep_shard_count(pool->size(), count);
    std::vector<DomainTable> fragments(n_shards);
    std::vector<PipelineCounters> shard_counters(n_shards);
    exec::parallel_for_shards(
        *pool, count, n_shards,
        [&](std::size_t shard, std::size_t begin, std::size_t end) {
          MeasureKernel& kernel = kernels[exec::ThreadPool::current_worker()];
          DomainTable& fragment = fragments[shard];
          fragment.reserve(end - begin);
          // Root span per shard, named with the full dotted path so worker
          // threads (whose thread-local span stack is empty) aggregate
          // into the same `pipeline.run.sweep.*` histograms as the serial
          // path, and the tracer shows one sweep segment per shard on the
          // worker's Perfetto track.
          obs::Span sweep_span(config_.registry, "pipeline.run.sweep");
          for (std::size_t i = begin; i < end; ++i) {
            measure_domain(i, kernel, shard_counters[shard], fragment);
          }
        });
    obs::Span merge_span(config_.registry, "pipeline.run.sweep_merge");
    dataset.domains.reserve(count);
    for (const DomainTable& fragment : fragments) {
      dataset.domains.append_table(fragment);
    }
    merge_span.stop();
    // Field-wise sums are order-independent, so totals match the serial
    // run exactly.
    for (const PipelineCounters& counters : shard_counters) {
      dataset.counters.merge(counters);
    }
    for (const MeasureKernel& kernel : kernels) {
      dataset.counters.dns_queries += kernel.queries_sent();
    }
  }

  const std::uint64_t resolved =
      dataset.counters.domains_total - dataset.counters.domains_excluded_dns;
  set_health("dns",
             dataset.counters.domains_total == 0 || resolved > 0,
             resolved > 0 ? "resolutions succeeding"
                          : "no domain resolved");
  set_health("pipeline", true, "last run completed");
  publish_sweep_metrics();

  if (config_.registry != nullptr) {
    dataset.counters.publish(*config_.registry);
    run_span.stop();
    log(obs::LogLevel::kInfo,
        "stage timing breakdown\n" + obs::stage_report(*config_.registry));
  }
  return dataset;
}

}  // namespace ripki::core
