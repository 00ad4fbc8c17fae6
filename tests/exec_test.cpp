// The execution substrate and the parallel measurement sweep: thread-pool
// lifecycle and work stealing, parallel_for_shards edge cases, and the
// determinism contract — a sharded parallel run must produce the very
// same dataset as the serial one.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace ripki {
namespace {

// --- ThreadPool --------------------------------------------------------------

TEST(ThreadPoolTest, StartsAndStopsCleanly) {
  exec::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  // Destructor joins without any task ever submitted.
}

TEST(ThreadPoolTest, ClampsZeroThreadsToOne) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPoolTest, RunsManyTasksUnderContention) {
  exec::ThreadPool pool(4);
  std::atomic<int> count{0};
  constexpr int kTasks = 2000;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (count.load() < kTasks && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count.load(), kTasks);
  EXPECT_EQ(pool.tasks_executed(), static_cast<std::uint64_t>(kTasks));
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  constexpr int kTasks = 500;
  {
    exec::ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destruction must wait for every submitted task.
  }
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPoolTest, CurrentWorkerIndexIsDenseInsidePoolAndNposOutside) {
  EXPECT_EQ(exec::ThreadPool::current_worker(), exec::ThreadPool::npos);
  exec::ThreadPool pool(3);
  std::mutex mutex;
  std::vector<std::size_t> seen;
  exec::parallel_for_shards(pool, 64, 64, [&](std::size_t, std::size_t, std::size_t) {
    std::lock_guard lock(mutex);
    seen.push_back(exec::ThreadPool::current_worker());
  });
  ASSERT_EQ(seen.size(), 64u);
  for (const std::size_t index : seen) EXPECT_LT(index, pool.size());
  EXPECT_EQ(exec::ThreadPool::current_worker(), exec::ThreadPool::npos);
}

TEST(ThreadPoolTest, StealsWorkFromBusyWorkers) {
  exec::ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> count{0};
  constexpr int kTasks = 100;
  // One long-running task pins whichever worker picks it up; round-robin
  // placement then queues tasks behind it that only stealing can drain.
  pool.submit([released] { released.wait(); });
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (count.load() < kTasks && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count.load(), kTasks);
  EXPECT_GT(pool.tasks_stolen(), 0u);
  release.set_value();
}

TEST(ThreadPoolTest, SubmitFromWorkerTaskRuns) {
  exec::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    count.fetch_add(1, std::memory_order_relaxed);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (count.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, PublishesTaskCountersToRegistry) {
  obs::Registry registry;
  {
    exec::ThreadPool pool(2, &registry);
    std::atomic<int> count{0};
    exec::parallel_for_shards(pool, 32, 8,
                              [&](std::size_t, std::size_t begin, std::size_t end) {
                                count.fetch_add(static_cast<int>(end - begin));
                              });
    EXPECT_EQ(count.load(), 32);
  }
  EXPECT_EQ(registry.counter("ripki.exec.tasks_executed").value(), 8u);
}

// --- parallel_for_shards -----------------------------------------------------

TEST(ParallelForShardsTest, ZeroItemsNeverInvokes) {
  exec::ThreadPool pool(2);
  std::atomic<int> calls{0};
  exec::parallel_for_shards(pool, 0, 4, [&](std::size_t, std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForShardsTest, SingleShardCoversEverything) {
  exec::ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::array<std::size_t, 3>> calls;
  exec::parallel_for_shards(pool, 10, 1,
                            [&](std::size_t shard, std::size_t begin, std::size_t end) {
                              std::lock_guard lock(mutex);
                              calls.push_back({shard, begin, end});
                            });
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], (std::array<std::size_t, 3>{0, 0, 10}));
}

TEST(ParallelForShardsTest, MoreShardsThanItemsClampsToOnePerItem) {
  exec::ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::vector<std::atomic<int>> visited(3);
  exec::parallel_for_shards(pool, 3, 10,
                            [&](std::size_t, std::size_t begin, std::size_t end) {
                              calls.fetch_add(1);
                              EXPECT_EQ(end, begin + 1);
                              visited[begin].fetch_add(1);
                            });
  EXPECT_EQ(calls.load(), 3);
  for (auto& v : visited) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForShardsTest, ShardsAreContiguousAndCoverEveryIndexOnce) {
  exec::ThreadPool pool(4);
  constexpr std::size_t kItems = 1003;  // prime-ish: uneven shard sizes
  std::vector<std::atomic<int>> visited(kItems);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  exec::parallel_for_shards(pool, kItems, 16,
                            [&](std::size_t, std::size_t begin, std::size_t end) {
                              {
                                std::lock_guard lock(mutex);
                                ranges.emplace_back(begin, end);
                              }
                              for (std::size_t i = begin; i < end; ++i) {
                                visited[i].fetch_add(1);
                              }
                            });
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(visited[i].load(), 1);
  ASSERT_EQ(ranges.size(), 16u);
  std::sort(ranges.begin(), ranges.end());
  std::size_t expected_begin = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_GT(end, begin);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, kItems);
}

// --- parallel pipeline determinism -------------------------------------------

web::EcosystemConfig small_config() {
  web::EcosystemConfig config;
  config.domain_count = 3'000;
  config.isp_count = 300;
  config.hoster_count = 100;
  config.enterprise_count = 400;
  config.transit_count = 40;
  return config;
}

/// Generates once, measures serially once; every determinism test
/// compares a differently-threaded run against this baseline.
class ParallelPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eco_ = web::Ecosystem::generate(small_config()).release();
    core::MeasurementPipeline serial(*eco_, core::PipelineConfig{});
    serial_ = new core::Dataset(serial.run());
  }
  static void TearDownTestSuite() {
    delete serial_;
    delete eco_;
    serial_ = nullptr;
    eco_ = nullptr;
  }

  static core::Dataset run_with_threads(std::size_t threads,
                                        obs::Registry* registry = nullptr) {
    core::PipelineConfig config;
    config.threads = threads;
    config.registry = registry;
    core::MeasurementPipeline pipeline(*eco_, config);
    return pipeline.run();
  }

  /// Worker count the sweep actually runs with: requested threads are
  /// clamped to the host's hardware concurrency.
  static std::size_t clamped(std::size_t threads) {
    const std::size_t hw = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
    return std::min(threads, hw);
  }

  static void expect_equal_to_serial(const core::Dataset& dataset) {
    ASSERT_EQ(dataset.domains.size(), serial_->domains.size());
    for (std::size_t i = 0; i < dataset.domains.size(); ++i) {
      ASSERT_EQ(dataset.domains[i], serial_->domains[i])
          << "first divergent record at index " << i << " ("
          << serial_->domains.name(i) << ")";
    }
    EXPECT_EQ(dataset.counters, serial_->counters);
    EXPECT_EQ(dataset.rank_space, serial_->rank_space);
    EXPECT_TRUE(dataset == *serial_);
  }

  static web::Ecosystem* eco_;
  static core::Dataset* serial_;
};

web::Ecosystem* ParallelPipelineTest::eco_ = nullptr;
core::Dataset* ParallelPipelineTest::serial_ = nullptr;

TEST_F(ParallelPipelineTest, OneWorkerMatchesSerial) {
  expect_equal_to_serial(run_with_threads(1));
}

TEST_F(ParallelPipelineTest, FourWorkersMatchSerialRecordForRecord) {
  expect_equal_to_serial(run_with_threads(4));
}

TEST_F(ParallelPipelineTest, MoreWorkersThanMakesSenseStillMatches) {
  expect_equal_to_serial(run_with_threads(16));
}

TEST_F(ParallelPipelineTest, ParallelRunPublishesSweepMetrics) {
  obs::Registry registry;
  const core::Dataset dataset = run_with_threads(4, &registry);
  expect_equal_to_serial(dataset);

  // The pool must actually have run shard tasks.
  EXPECT_GT(registry.counter("ripki.exec.tasks_executed").value(), 0u);
  EXPECT_EQ(registry.gauge("ripki.exec.threads").value(),
            static_cast<double>(clamped(4)));
}

TEST_F(ParallelPipelineTest, SerialRunPublishesZeroThreadsGauge) {
  obs::Registry registry;
  core::PipelineConfig config;
  config.registry = &registry;
  core::MeasurementPipeline pipeline(*eco_, config);
  expect_equal_to_serial(pipeline.run());
  EXPECT_EQ(registry.gauge("ripki.exec.threads").value(), 0);
}

TEST_F(ParallelPipelineTest, MaxDomainsRespectedInParallel) {
  core::PipelineConfig config;
  config.threads = 4;
  config.max_domains = 17;
  core::MeasurementPipeline pipeline(*eco_, config);
  const core::Dataset dataset = pipeline.run();
  ASSERT_EQ(dataset.domains.size(), 17u);
  for (std::size_t i = 0; i < 17; ++i) {
    EXPECT_EQ(dataset.domains[i], serial_->domains[i]);
  }
}

TEST_F(ParallelPipelineTest, EveryRegisteredMetricCarriesHelpText) {
  // Full-coverage sweep over the whole registry: run the pipeline with
  // every optional path that registers metrics (RTR transport included)
  // and demand HELP text on everything it minted — `ripki.trace.*` span
  // histograms synthesize theirs in collect().
  obs::Registry registry;
  core::PipelineConfig config;
  config.threads = 2;
  config.registry = &registry;
  config.use_rtr = true;
  config.max_domains = 100;
  core::MeasurementPipeline pipeline(*eco_, config);
  pipeline.run();

  std::size_t checked = 0;
  for (const auto& snapshot : registry.collect()) {
    EXPECT_FALSE(snapshot.help.empty()) << snapshot.name << " has no HELP";
    ++checked;
  }
  // dns + bgp + rpki + rtr + pipeline + exec + trace families.
  EXPECT_GE(checked, 30u);
}

}  // namespace
}  // namespace ripki
