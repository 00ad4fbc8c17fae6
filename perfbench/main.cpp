// ripki_bench: one workload per invocation, one JSON result line last.
//
//   ripki_bench --workload batch-sweep|serve-zipf --seed N
//               --seconds S --trace 0|1 [--serve-rate R] [--rev TEXT]
//               [--corrupt]
//
// stdout carries, in order: a run stamp ({"stamp": ...}), the workload's
// figures under their own names ({"workload_metrics": ...}, untraced
// runs), and the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// whose metrics are the end-to-end set (--trace 0) or the layer ledger
// (--trace 1). Any oracle divergence makes "correct" false and the exit
// code 3. --corrupt perturbs one expected value so tests can check that.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double peak_rss_mib() {
  // VmHWM honours reset_peak_rss(); ru_maxrss is the lifetime peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // both are KiB
}

void reset_peak_rss() {
  // Hand memory the allocator holds free back to the kernel first, so the
  // restarted watermark counts live data only, not whatever free pages
  // the set-up's arenas happened to keep.
  ::malloc_trim(0);
  // "5" resets the process's peak-RSS watermark to its current RSS.
  std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {
double clock_s(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (const int cpu : cpus) {
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
  }
  return out;
}

bool pin_current_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0;
}

ripki::web::EcosystemConfig world_config(std::uint64_t domains, std::uint64_t seed) {
  ripki::web::EcosystemConfig config;
  config.domain_count = domains;
  config.seed = seed;
  return config;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

int usage(const char* why) {
  std::cerr << "ripki_bench: " << why
            << "\nusage: ripki_bench --workload batch-sweep|serve-zipf "
               "--seed N --seconds S --trace 0|1 [--serve-rate R] [--rev TEXT] "
               "[--corrupt]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--corrupt") {
      options.corrupt = true;
    } else if (!has_value) {
      return usage(("missing value for " + flag).c_str());
    } else if (flag == "--workload") {
      options.workload = argv[++i];
    } else if (flag == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--serve-rate") {
      options.serve_rate = std::strtod(argv[++i], nullptr);
    } else if (flag == "--rev") {
      options.revision = argv[++i];
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0) || !(options.serve_rate > 0.0))
    return usage("--seconds and --serve-rate must be positive");

  Report report;
  if (options.workload == "batch-sweep") {
    report = run_batch(options);
  } else if (options.workload == "serve-zipf") {
    report = run_serve(options);
  } else {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }

  const std::vector<Metric>& metrics = options.trace ? report.layers : report.end_to_end;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) report.fail("metric " + m.name + " was not measured");
  }
  for (const std::string& divergence : report.divergences)
    std::cerr << "ripki_bench: DIVERGENCE: " << divergence << '\n';

  std::string stamp = "{\"workload\": " + json_string(options.workload) +
                      ", \"seed\": " + std::to_string(options.seed) +
                      ", \"seconds\": " + number(options.seconds) +
                      ", \"trace\": " + (options.trace ? "true" : "false") +
                      ", \"nproc\": " + std::to_string(allowed_cpus().size()) +
                      ", \"allowed_cpus\": " + json_string(cpu_list(allowed_cpus())) +
                      ", \"hardware_concurrency\": " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ", \"cpu_model\": " + json_string(cpu_model()) +
                      ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
                      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                      ", \"revision\": " + json_string(options.revision);
  for (const auto& [key, value] : report.stamp) stamp += ", " + json_string(key) + ": " + value;
  std::cout << "{\"stamp\": " << stamp << "}}\n";
  if (!options.trace)
    std::cout << "{\"workload_metrics\": " << metrics_json(report.named) << "}\n";

  const bool correct = report.failed == 0 && report.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return correct ? 0 : 3;
}
