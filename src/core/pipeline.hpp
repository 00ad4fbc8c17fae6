// The paper's four-step measurement pipeline (Figure 2's toolchain):
//
//   (1) select domains      — the ecosystem's Alexa-style ranking
//   (2) domains -> IPs      — A/AAAA/CNAME via the DNS substrate, both
//                             www.<d> and <d>; IANA special-purpose
//                             addresses discarded
//   (3) IPs -> prefix/ASN   — all covering prefixes from a RIS-style MRT
//                             table dump; origin = right-most ASN of the
//                             AS path; AS_SET entries excluded (RFC 6472)
//   (4) RPKI validation     — ROAs of the five trust anchors validated
//                             cryptographically, then every prefix-AS pair
//                             classified per RFC 6811
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bgp/mrt.hpp"
#include "core/dataset.hpp"
#include "core/kernel.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "rpki/validator.hpp"
#include "rtr/client.hpp"
#include "web/ecosystem.hpp"

namespace ripki::obs {
class EventTracer;
class HealthRegistry;
class SchedTelemetry;
}

namespace ripki::exec {
class ThreadPool;
}

namespace ripki::core {

struct PipelineConfig {
  web::Vantage vantage = web::Vantage::kBerlin;

  /// When true, VRPs reach origin validation through a full RTR protocol
  /// session (cache server + router client) instead of being indexed
  /// directly — the router-deployment code path.
  bool use_rtr = false;

  /// When true, the five repositories are mirrored over RRDP (RFC 8182
  /// notification/snapshot documents) and trust is bootstrapped from the
  /// RIR TALs (RFC 7730) before validation — the full relying-party
  /// collection path instead of in-process repository access.
  bool use_rrdp = false;

  /// Validation instant; defaults to the ecosystem's `now`.
  rpki::Timestamp now = 0;

  /// Optionally restrict to the first N domains (0 = all).
  std::size_t max_domains = 0;

  /// Worker threads for the setup stages and the stage 1–4 domain sweep.
  /// 0 (the default) runs everything serially on the calling thread. With
  /// N >= 1, one exec::ThreadPool of N workers drives the MRT parse
  /// (record-sliced), the repository validation (publication points
  /// sharded), and the rank-axis sweep (one MeasureKernel per worker,
  /// each owning its resolver, over shared read-only state: zone view,
  /// frozen RIB, VRP index); per-shard output fragments
  /// merge in shard order at join, so RIB, validation report, and dataset
  /// are identical to the serial run for every thread count.
  ///
  /// Values above the host's hardware concurrency are clamped (with a
  /// logged warning): oversubscribed workers only time-slice each other
  /// — the PR 7 scheduler X-ray measured 0.93–0.97x "speedups" from
  /// exactly this.
  std::size_t threads = 0;

  /// Observability. When `registry` is set, every stage records trace
  /// spans and counters into it (borrowed; must outlive the pipeline) and
  /// the stage-timing breakdown is logged at the end of run(). When null,
  /// instrumentation is inert — no clock reads, no atomics.
  obs::Registry* registry = nullptr;

  /// Event-timeline tracer (borrowed, optional; requires `registry`).
  /// Installed into the registry before run() so every span additionally
  /// emits begin/end events exportable as Chrome trace JSON.
  obs::EventTracer* tracer = nullptr;

  /// Per-subsystem health (borrowed, optional). Each stage reports its
  /// outcome after run(): `bgp` (RIB non-empty), `rpki` (VRPs produced),
  /// `dns` (resolutions succeeded), `pipeline` (run completed).
  obs::HealthRegistry* health = nullptr;

  /// Scheduler telemetry (borrowed, optional). The sweep's thread pool
  /// records per-worker timelines into it, queue depths are sampled for
  /// the duration of the run, and the four sweep stages charge their wall
  /// time to the worker's lane (serial runs use the external lane). Must
  /// outlive run().
  obs::SchedTelemetry* sched = nullptr;

  /// Minimum severity of the pipeline's own log output (through the
  /// global obs::Logger). Default silences everything below warnings;
  /// kInfo adds per-stage progress lines and the timing table.
  obs::LogLevel verbosity = obs::LogLevel::kWarn;
};

class MeasurementPipeline {
 public:
  MeasurementPipeline(const web::Ecosystem& ecosystem, PipelineConfig config);

  /// Runs all four steps and returns the annotated dataset.
  Dataset run();

  /// Cache hit ratios of the sweep. The sweep keeps no caches, so both
  /// read 0, which means "no cache traffic". perfbench/ledger.cpp is the
  /// sole reader of this shape.
  struct CacheStats {
    double covering_hit_rate() const { return 0.0; }
    double validation_hit_rate() const { return 0.0; }
  };

  /// Wall-clock timings and throughput of the two setup stages of the
  /// last run(): stage 3 MRT parse and stage 4 repository validation.
  /// Throughput is computed over the parse/validate call itself (RRDP
  /// mirroring and RTR transport excluded), so serial-vs-pooled runs are
  /// directly comparable. Measured whether or not a registry is set.
  struct SetupStats {
    double rib_prepare_ms = 0.0;
    double vrp_prepare_ms = 0.0;
    double mrt_records_per_sec = 0.0;
    double roas_per_sec = 0.0;
  };

  /// Worker count the sweep actually ran with after clamping to hardware
  /// concurrency (0 = serial). Valid after run().
  std::size_t effective_threads() const { return effective_threads_; }

  /// Artifacts (valid after run()):
  const rpki::ValidationReport& validation_report() const { return report_; }
  const rpki::VrpIndex& vrp_index() const { return vrp_index_; }
  const bgp::Rib& rib() const { return rib_; }
  const bgp::mrt::ParseStats& mrt_stats() const { return mrt_stats_; }
  CacheStats cache_stats() const { return {}; }
  const SetupStats& setup_stats() const { return setup_stats_; }

 private:
  void prepare_rib(exec::ThreadPool* pool);
  void prepare_vrps(exec::ThreadPool* pool);
  /// Measures domain `index` with `kernel`, counts it into `counters`
  /// and appends its row to `out` (the dataset table or a shard's
  /// fragment).
  void measure_domain(std::size_t index, MeasureKernel& kernel,
                      PipelineCounters& counters, DomainTable& out);
  /// Publishes the thread-count gauge.
  void publish_sweep_metrics() const;
  /// Emits through the global logger when `config_.verbosity` admits it.
  void log(obs::LogLevel level, std::string_view message,
           std::vector<obs::LogField> fields = {}) const;
  /// Reports a subsystem outcome into `config_.health` (no-op when null).
  void set_health(std::string_view subsystem, bool healthy,
                  std::string_view detail) const;

  const web::Ecosystem& ecosystem_;
  PipelineConfig config_;
  std::size_t effective_threads_ = 0;

  bgp::Rib rib_;
  bgp::mrt::ParseStats mrt_stats_;
  rpki::ValidationReport report_;
  rpki::VrpIndex vrp_index_;
  SetupStats setup_stats_;
};

}  // namespace ripki::core
