// Unit tests for the runtime substrate: virtual GPU scheduling, the task queue and
// worker pool, metrics, and the ingest/query services over small streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "src/cnn/model_zoo.h"
#include "src/core/focus_stream.h"
#include "src/runtime/fleet_query_service.h"
#include "src/runtime/gpu_device.h"
#include "src/runtime/ingest_service.h"
#include "src/runtime/metrics.h"
#include "src/runtime/task_queue.h"
#include "src/runtime/worker_pool.h"

namespace focus::runtime {
namespace {

// --- GpuDevice ---

TEST(GpuDeviceTest, JobsRunBackToBackInFifoOrder) {
  GpuDevice device;
  GpuJobTicket a = device.Submit(0.0, 10.0);
  GpuJobTicket b = device.Submit(0.0, 5.0);
  EXPECT_DOUBLE_EQ(a.start_millis, 0.0);
  EXPECT_DOUBLE_EQ(a.finish_millis, 10.0);
  EXPECT_DOUBLE_EQ(b.start_millis, 10.0);  // Queued behind a.
  EXPECT_DOUBLE_EQ(b.finish_millis, 15.0);
  EXPECT_DOUBLE_EQ(device.free_at(), 15.0);
  EXPECT_DOUBLE_EQ(device.busy_millis(), 15.0);
  EXPECT_EQ(device.jobs_executed(), 2);
}

TEST(GpuDeviceTest, LateSubmissionStartsAtSubmitTime) {
  GpuDevice device;
  device.Submit(0.0, 10.0);
  GpuJobTicket late = device.Submit(100.0, 5.0);
  EXPECT_DOUBLE_EQ(late.start_millis, 100.0);  // Device idle since t=10.
  EXPECT_DOUBLE_EQ(late.finish_millis, 105.0);
}

TEST(GpuDeviceTest, ZeroCostJobIsLegalAndInstant) {
  GpuDevice device;
  GpuJobTicket t = device.Submit(3.0, 0.0);
  EXPECT_DOUBLE_EQ(t.start_millis, 3.0);
  EXPECT_DOUBLE_EQ(t.finish_millis, 3.0);
}

TEST(GpuDeviceTest, UtilizationIsBusyOverHorizon) {
  GpuDevice device;
  device.Submit(0.0, 25.0);
  EXPECT_DOUBLE_EQ(device.UtilizationOver(100.0), 0.25);
  EXPECT_DOUBLE_EQ(device.UtilizationOver(0.0), 0.0);
  EXPECT_DOUBLE_EQ(device.UtilizationOver(10.0), 1.0);  // Clamped.
}

TEST(GpuDeviceTest, ResetForgetsEverything) {
  GpuDevice device;
  device.Submit(0.0, 10.0);
  device.Reset();
  EXPECT_DOUBLE_EQ(device.free_at(), 0.0);
  EXPECT_DOUBLE_EQ(device.busy_millis(), 0.0);
  EXPECT_EQ(device.jobs_executed(), 0);
}

// --- GpuCluster ---

TEST(GpuClusterTest, DispatchesToLeastLoadedDevice) {
  GpuCluster cluster(2);
  GpuJobTicket a = cluster.Submit(0.0, 10.0);
  GpuJobTicket b = cluster.Submit(0.0, 10.0);
  GpuJobTicket c = cluster.Submit(0.0, 10.0);
  EXPECT_EQ(a.device, 0);
  EXPECT_EQ(b.device, 1);  // Device 0 busy until t=10.
  EXPECT_EQ(c.device, 0);  // Both busy; ties go to the lowest index... device 0 frees first.
  EXPECT_DOUBLE_EQ(c.start_millis, 10.0);
}

TEST(GpuClusterTest, BatchLatencyScalesInverselyWithDevices) {
  // 100 unit jobs: 1 GPU -> 100, 10 GPUs -> 10, 100 GPUs -> 1.
  EXPECT_DOUBLE_EQ(ParallelLatencyMillis(100, 1.0, 1), 100.0);
  EXPECT_DOUBLE_EQ(ParallelLatencyMillis(100, 1.0, 10), 10.0);
  EXPECT_DOUBLE_EQ(ParallelLatencyMillis(100, 1.0, 100), 1.0);
}

TEST(GpuClusterTest, BatchWithFewerJobsThanDevicesTakesOneJobTime) {
  EXPECT_DOUBLE_EQ(ParallelLatencyMillis(3, 7.0, 10), 7.0);
}

TEST(GpuClusterTest, EmptyBatchFinishesImmediately) {
  GpuCluster cluster(4);
  EXPECT_DOUBLE_EQ(cluster.SubmitBatch(5.0, 0, 1.0), 5.0);
}

TEST(GpuClusterTest, StatsAggregateAcrossDevices) {
  GpuCluster cluster(3);
  cluster.SubmitBatch(0.0, 9, 2.0);
  GpuClusterStats stats = cluster.Stats();
  EXPECT_EQ(stats.num_devices, 3);
  EXPECT_EQ(stats.jobs_executed, 9);
  EXPECT_DOUBLE_EQ(stats.total_busy_millis, 18.0);
  EXPECT_DOUBLE_EQ(stats.makespan_millis, 6.0);
  EXPECT_NEAR(stats.imbalance, 1.0, 1e-9);  // 9 jobs split 3/3/3.
}

TEST(GpuClusterTest, SchedulesAreDeterministic) {
  GpuCluster a(4);
  GpuCluster b(4);
  for (int i = 0; i < 50; ++i) {
    GpuJobTicket ta = a.Submit(static_cast<double>(i), 3.0);
    GpuJobTicket tb = b.Submit(static_cast<double>(i), 3.0);
    EXPECT_EQ(ta.device, tb.device);
    EXPECT_DOUBLE_EQ(ta.finish_millis, tb.finish_millis);
  }
}

// --- TaskQueue ---

TEST(TaskQueueTest, FifoWithinSingleThread) {
  TaskQueue<int> queue(8);
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));
  ASSERT_TRUE(queue.Push(3));
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.Pop().value(), 2);
  EXPECT_EQ(queue.Pop().value(), 3);
}

TEST(TaskQueueTest, TryPushFailsWhenFull) {
  TaskQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));
  EXPECT_EQ(queue.size(), 2u);
}

TEST(TaskQueueTest, CloseDrainsBacklogThenSignalsEnd) {
  TaskQueue<int> queue(4);
  queue.Push(7);
  queue.Close();
  EXPECT_FALSE(queue.Push(8));  // Rejected after close.
  EXPECT_EQ(queue.Pop().value(), 7);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(TaskQueueTest, BlockedConsumerWakesOnPush) {
  TaskQueue<int> queue(4);
  std::atomic<int> got{-1};
  std::thread consumer([&] { got.store(queue.Pop().value_or(-2)); });
  queue.Push(42);
  consumer.join();
  EXPECT_EQ(got.load(), 42);
}

TEST(TaskQueueTest, ManyProducersManyConsumersDeliverEverythingOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  TaskQueue<int> queue(16);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        queue.Push(p * kPerProducer + i);
      }
    });
  }
  std::mutex seen_mutex;
  std::set<int> seen;
  std::vector<std::thread> consumers;
  consumers.reserve(3);
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto item = queue.Pop()) {
        std::lock_guard<std::mutex> lock(seen_mutex);
        EXPECT_TRUE(seen.insert(*item).second);  // Each item delivered exactly once.
      }
    });
  }
  for (std::thread& t : producers) {
    t.join();
  }
  queue.Close();
  for (std::thread& t : consumers) {
    t.join();
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kProducers * kPerProducer));
}

TEST(TaskQueueTest, PopBatchDrainsFifoUpToMax) {
  TaskQueue<int> queue(8);
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(queue.Push(i));
  }
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.PopBatch(out, 10), 2u);  // Appends the remainder.
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(TaskQueueTest, PopBatchReturnsZeroWhenClosedAndEmpty) {
  TaskQueue<int> queue(4);
  queue.Push(1);
  queue.Close();
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(out, 8), 1u);  // Backlog drains first.
  EXPECT_EQ(queue.PopBatch(out, 8), 0u);  // Then closed-and-empty.
}

TEST(TaskQueueTest, PopBatchEdgeCases) {
  TaskQueue<int> queue(4);
  std::vector<int> out;
  // max_items == 1 is the smallest legal batch and behaves like Pop().
  ASSERT_TRUE(queue.Push(9));
  EXPECT_EQ(queue.PopBatch(out, 1), 1u);
  EXPECT_EQ(out, (std::vector<int>{9}));
  // A batch wider than the backlog takes what is there without blocking.
  ASSERT_TRUE(queue.Push(10));
  EXPECT_EQ(queue.PopBatch(out, 100), 1u);
  EXPECT_EQ(out, (std::vector<int>{9, 10}));
  // max_items == 0 is a programmer error: its return value would be
  // indistinguishable from the closed-and-empty sentinel on an open queue.
  EXPECT_DEATH_IF_SUPPORTED(queue.PopBatch(out, 0), "max_items");
}

TEST(TaskQueueTest, PopBatchWakesBlockedProducers) {
  TaskQueue<int> queue(2);
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(3));  // Blocks until the batch pop frees capacity.
    EXPECT_TRUE(queue.Push(4));
  });
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(out, 2), 2u);
  producer.join();
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(TaskQueueTest, PopBatchDeliversEverythingOnceAcrossConsumers) {
  constexpr int kItems = 1000;
  TaskQueue<int> queue(16);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      queue.Push(i);
    }
    queue.Close();
  });
  std::mutex seen_mutex;
  std::set<int> seen;
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      std::vector<int> batch;
      while (true) {
        batch.clear();
        if (queue.PopBatch(batch, 7) == 0) {
          return;
        }
        std::lock_guard<std::mutex> lock(seen_mutex);
        for (int item : batch) {
          EXPECT_TRUE(seen.insert(item).second);
        }
      }
    });
  }
  producer.join();
  for (std::thread& t : consumers) {
    t.join();
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kItems));
}

// --- WorkerPool ---

TEST(WorkerPoolTest, BatchedWorkersExecuteAllTasks) {
  WorkerPool pool(4, 1024, /*pop_batch=*/8);
  std::atomic<int> counter{0};
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(pool.Submit([&] { counter.fetch_add(1); }));
  }
  pool.Drain();
  EXPECT_EQ(counter.load(), 500);
  EXPECT_EQ(pool.tasks_completed(), 500);
}

TEST(WorkerPoolTest, ExecutesAllSubmittedTasks) {
  WorkerPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&] { counter.fetch_add(1); }));
  }
  pool.Drain();
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(pool.tasks_completed(), 100);
}

TEST(WorkerPoolTest, DrainWithNoTasksReturnsImmediately) {
  WorkerPool pool(2);
  pool.Drain();
  EXPECT_EQ(pool.tasks_completed(), 0);
}

TEST(WorkerPoolTest, ShutdownRejectsFurtherWork) {
  WorkerPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(WorkerPoolTest, DestructorDrainsBacklog) {
  std::atomic<int> counter{0};
  {
    WorkerPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 32);
}

// --- MetricsRegistry ---

TEST(MetricsTest, CountersAccumulate) {
  MetricsRegistry metrics;
  metrics.IncrementCounter("a");
  metrics.IncrementCounter("a", 4);
  EXPECT_EQ(metrics.counter("a"), 5);
  EXPECT_EQ(metrics.counter("missing"), 0);
}

TEST(MetricsTest, GaugesKeepLastValue) {
  MetricsRegistry metrics;
  metrics.SetGauge("g", 1.5);
  metrics.SetGauge("g", 2.5);
  EXPECT_DOUBLE_EQ(metrics.gauge("g"), 2.5);
}

TEST(MetricsTest, DistributionsTrackCountSumMinMax) {
  MetricsRegistry metrics;
  metrics.Observe("d", 2.0);
  metrics.Observe("d", 6.0);
  metrics.Observe("d", 4.0);
  MetricsRegistry::Distribution d = metrics.distribution("d");
  EXPECT_EQ(d.count, 3);
  EXPECT_DOUBLE_EQ(d.sum, 12.0);
  EXPECT_DOUBLE_EQ(d.min, 2.0);
  EXPECT_DOUBLE_EQ(d.max, 6.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 4.0);
}

TEST(MetricsTest, ConcurrentUpdatesDoNotLoseIncrements) {
  MetricsRegistry metrics;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        metrics.IncrementCounter("c");
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(metrics.counter("c"), 4000);
}

TEST(MetricsTest, RenderListsAllMetrics) {
  MetricsRegistry metrics;
  metrics.IncrementCounter("requests", 3);
  metrics.SetGauge("load", 0.5);
  std::string rendered = metrics.Render();
  EXPECT_NE(rendered.find("requests=3"), std::string::npos);
  EXPECT_NE(rendered.find("load=0.5"), std::string::npos);
}

// --- IngestService / FleetQueryService over a real (small) stream ---

class RuntimeServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new video::ClassCatalog(21);
    video::StreamProfile profile;
    ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
    run_ = new video::StreamRun(catalog_, profile, 120.0, 30.0, 5);
  }

  static void TearDownTestSuite() {
    delete run_;
    delete catalog_;
    run_ = nullptr;
    catalog_ = nullptr;
  }

  static core::IngestParams GenericParams() {
    core::IngestParams params;
    params.model = cnn::GenericCheapCandidates(33)[0];  // ResNet18 @ 224.
    params.k = 40;
    params.cluster_threshold = 0.6;
    return params;
  }

  static video::ClassCatalog* catalog_;
  static video::StreamRun* run_;
};

video::ClassCatalog* RuntimeServiceTest::catalog_ = nullptr;
video::StreamRun* RuntimeServiceTest::run_ = nullptr;

TEST_F(RuntimeServiceTest, IngestServiceMatchesDirectPipelineRun) {
  IngestServiceOptions options;
  options.num_worker_threads = 2;
  MetricsRegistry metrics;
  IngestService service(options, &metrics);
  IngestJob job;
  job.name = "auburn_c";
  job.run = run_;
  job.params = GenericParams();
  service.AddStream(job);
  FleetIngestSummary summary = service.RunAll();
  ASSERT_EQ(summary.reports.size(), 1u);

  cnn::Cnn cheap(GenericParams().model, catalog_);
  core::IngestResult direct = core::RunIngest(*run_, cheap, GenericParams());
  EXPECT_EQ(summary.reports[0].result.detections, direct.detections);
  EXPECT_EQ(summary.reports[0].result.cnn_invocations, direct.cnn_invocations);
  EXPECT_DOUBLE_EQ(summary.reports[0].result.gpu_millis, direct.gpu_millis);
  EXPECT_EQ(metrics.counter("ingest.detections"), direct.detections);
}

TEST_F(RuntimeServiceTest, ShardedIngestMatchesSequentialAccounting) {
  IngestServiceOptions options;
  options.num_worker_threads = 2;
  options.num_shards = 4;  // Service-level override of the jobs' default of 1.
  MetricsRegistry metrics;
  IngestService service(options, &metrics);
  IngestJob job;
  job.name = "auburn_c";
  job.run = run_;
  job.params = GenericParams();
  service.AddStream(job);
  FleetIngestSummary summary = service.RunAll();
  ASSERT_EQ(summary.reports.size(), 1u);

  // Classification (the GPU-bearing stage) is untouched by sharding: detection,
  // invocation, and GPU accounting match the sequential pipeline exactly.
  cnn::Cnn cheap(GenericParams().model, catalog_);
  core::IngestResult direct = core::RunIngest(*run_, cheap, GenericParams());
  EXPECT_EQ(summary.reports[0].result.detections, direct.detections);
  EXPECT_EQ(summary.reports[0].result.cnn_invocations, direct.cnn_invocations);
  EXPECT_EQ(summary.reports[0].result.suppressed, direct.suppressed);
  EXPECT_DOUBLE_EQ(summary.reports[0].result.gpu_millis, direct.gpu_millis);
  EXPECT_GT(summary.reports[0].result.num_clusters, 0);
  EXPECT_EQ(summary.reports[0].result.index.view().total_detections(), direct.detections);
}

TEST_F(RuntimeServiceTest, ParallelIngestOfClonedStreamsIsDeterministic) {
  auto run_fleet = [&] {
    IngestServiceOptions options;
    options.num_worker_threads = 3;
    MetricsRegistry metrics;
    IngestService service(options, &metrics);
    for (int i = 0; i < 3; ++i) {
      IngestJob job;
      job.name = "clone" + std::to_string(i);
      job.run = run_;
      job.params = GenericParams();
      service.AddStream(job);
    }
    return service.RunAll();
  };
  FleetIngestSummary a = run_fleet();
  FleetIngestSummary b = run_fleet();
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.reports[i].result.gpu_millis, b.reports[i].result.gpu_millis);
    EXPECT_DOUBLE_EQ(a.reports[i].cluster_finish_millis, b.reports[i].cluster_finish_millis);
  }
  EXPECT_DOUBLE_EQ(a.total_gpu_occupancy, b.total_gpu_occupancy);
}

TEST_F(RuntimeServiceTest, OccupancyAnswersRealtimeProvisioning) {
  IngestServiceOptions options;
  MetricsRegistry metrics;
  IngestService service(options, &metrics);
  IngestJob job;
  job.name = "auburn_c";
  job.run = run_;
  job.params = GenericParams();
  service.AddStream(job);
  FleetIngestSummary summary = service.RunAll();
  // A cheap CNN ingesting one stream must need (far) less than one full GPU.
  EXPECT_GT(summary.reports[0].gpu_occupancy, 0.0);
  EXPECT_LT(summary.reports[0].gpu_occupancy, 1.0);
  EXPECT_EQ(summary.min_gpus_for_realtime, 1);
  // Monthly cost scales linearly with occupancy.
  EXPECT_NEAR(service.CostPerStreamMonthly(summary.reports[0].gpu_occupancy),
              summary.reports[0].gpu_occupancy * 250.0, 1e-9);
}

TEST_F(RuntimeServiceTest, QueryLatencyDropsWithMoreGpus) {
  core::FocusOptions focus_options;
  auto focus_or = core::FocusStream::Build(run_, catalog_, focus_options);
  ASSERT_TRUE(focus_or.ok()) << focus_or.error().message;
  const core::FocusStream& focus = **focus_or;

  cnn::SegmentGroundTruth truth(*run_, focus.gt_cnn());
  std::vector<common::ClassId> dominant = truth.DominantClasses(0.95, 3);
  ASSERT_FALSE(dominant.empty());

  FleetQueryRequest request;
  request.camera = "auburn_c";
  request.query.stream = &focus;
  request.query.cls = dominant[0];

  // batch_size = 1 pins the per-centroid fan-out (one launch per centroid at
  // full single-inference cost), so the speedup from adding GPUs is pure
  // parallelism — the seed service's contract. Batched launches trade some of
  // that scaling for launch amortization; see the batching tests below.
  FleetQueryService one_gpu(QueryServiceOptions{.num_gpus = 1, .batch_size = 1});
  FleetQueryService ten_gpus(QueryServiceOptions{.num_gpus = 10, .batch_size = 1});
  QueryExecution on_one = one_gpu.Execute(request);
  QueryExecution on_ten = ten_gpus.Execute(request);
  EXPECT_EQ(on_one.result.centroids_classified, on_ten.result.centroids_classified);
  if (on_one.result.centroids_classified >= 10) {
    EXPECT_LT(on_ten.latency_millis(), on_one.latency_millis());
    // Perfect parallelism within rounding: one GPU's latency is ~10x ten GPUs'.
    EXPECT_NEAR(on_one.latency_millis() / on_ten.latency_millis(), 10.0, 2.0);
  }
}

TEST_F(RuntimeServiceTest, ConcurrentQueriesShareTheCluster) {
  core::FocusOptions focus_options;
  auto focus_or = core::FocusStream::Build(run_, catalog_, focus_options);
  ASSERT_TRUE(focus_or.ok()) << focus_or.error().message;
  const core::FocusStream& focus = **focus_or;

  cnn::SegmentGroundTruth truth(*run_, focus.gt_cnn());
  std::vector<common::ClassId> dominant = truth.DominantClasses(0.95, 4);
  ASSERT_GE(dominant.size(), 2u);

  std::vector<FleetQueryRequest> batch;
  for (common::ClassId cls : dominant) {
    batch.push_back(FleetQueryRequest{"auburn_c", "default", {.stream = &focus, .cls = cls}});
  }
  FleetQueryService service(QueryServiceOptions{.num_gpus = 4});
  std::vector<QueryExecution> executions = service.ExecuteConcurrently(batch);
  ASSERT_EQ(executions.size(), batch.size());
  // All requests were admitted at the same instant and share the cluster. The
  // time actually charged to the cluster is the launch-amortized batched cost
  // (stats), never more than the logical per-centroid sum — batching and
  // cross-query dedup only remove work.
  common::GpuMillis total_work = 0;
  for (const QueryExecution& e : executions) {
    EXPECT_EQ(e.submit_millis, 0.0);
    total_work += e.result.gpu_millis;
  }
  const FleetServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<int64_t>(batch.size()));
  EXPECT_EQ(stats.cache_misses + stats.dedup_hits, stats.work_items);
  EXPECT_GT(stats.gpu_millis, 0.0);
  EXPECT_LE(stats.gpu_millis, total_work + 1e-6);
}

TEST_F(RuntimeServiceTest, BatchedExecutionIsResultIdenticalToPerCentroid) {
  core::FocusOptions focus_options;
  auto focus_or = core::FocusStream::Build(run_, catalog_, focus_options);
  ASSERT_TRUE(focus_or.ok()) << focus_or.error().message;
  const core::FocusStream& focus = **focus_or;

  cnn::SegmentGroundTruth truth(*run_, focus.gt_cnn());
  std::vector<common::ClassId> dominant = truth.DominantClasses(0.95, 4);
  ASSERT_FALSE(dominant.empty());

  std::vector<FleetQueryRequest> batch;
  for (common::ClassId cls : dominant) {
    batch.push_back(FleetQueryRequest{"auburn_c", "default", {.stream = &focus, .cls = cls}});
  }
  // The direct engine query is the per-centroid reference; every batch_size must
  // reproduce it bit for bit (including the execution-independent gpu_millis).
  for (int batch_size : {1, 4, 32}) {
    FleetQueryService service(QueryServiceOptions{.num_gpus = 3, .batch_size = batch_size});
    std::vector<QueryExecution> executions = service.ExecuteConcurrently(batch);
    ASSERT_EQ(executions.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const core::QueryResult direct = focus.Query(dominant[i]);
      EXPECT_EQ(executions[i].result.frame_runs, direct.frame_runs) << batch_size;
      EXPECT_EQ(executions[i].result.frames_returned, direct.frames_returned);
      EXPECT_EQ(executions[i].result.clusters_matched, direct.clusters_matched);
      EXPECT_EQ(executions[i].result.centroids_classified, direct.centroids_classified);
      EXPECT_DOUBLE_EQ(executions[i].result.gpu_millis, direct.gpu_millis);
    }
  }
}

TEST_F(RuntimeServiceTest, DuplicateConcurrentQueriesClassifyEachCentroidOnce) {
  core::FocusOptions focus_options;
  auto focus_or = core::FocusStream::Build(run_, catalog_, focus_options);
  ASSERT_TRUE(focus_or.ok()) << focus_or.error().message;
  const core::FocusStream& focus = **focus_or;

  cnn::SegmentGroundTruth truth(*run_, focus.gt_cnn());
  std::vector<common::ClassId> dominant = truth.DominantClasses(0.95, 1);
  ASSERT_FALSE(dominant.empty());
  const core::QueryResult direct = focus.Query(dominant[0]);
  ASSERT_GT(direct.centroids_classified, 0);

  // Three analysts ask the identical question at once: the shared (stream,
  // centroid) classifications run once and all three resolve from the shared
  // verdict table, with identical results.
  std::vector<FleetQueryRequest> batch(
      3, FleetQueryRequest{"auburn_c", "default", {.stream = &focus, .cls = dominant[0]}});
  FleetQueryService service(QueryServiceOptions{.num_gpus = 4});
  std::vector<QueryExecution> executions = service.ExecuteConcurrently(batch);
  ASSERT_EQ(executions.size(), batch.size());

  const FleetServiceStats stats = service.stats();
  EXPECT_EQ(stats.work_items, 3 * direct.centroids_classified);
  EXPECT_EQ(stats.cache_misses, direct.centroids_classified);
  EXPECT_EQ(stats.dedup_hits, 2 * direct.centroids_classified);
  for (const QueryExecution& e : executions) {
    EXPECT_EQ(e.result.frame_runs, direct.frame_runs);
    // Logical accounting stays per-request even though the GPU work was shared.
    EXPECT_DOUBLE_EQ(e.result.gpu_millis, direct.gpu_millis);
  }
  // The cluster was charged for one query's worth of (batched) work, not three.
  EXPECT_LT(stats.gpu_millis, 3 * direct.gpu_millis);
}

TEST_F(RuntimeServiceTest, BatchingReducesGpuTimeWithoutChangingResults) {
  core::FocusOptions focus_options;
  auto focus_or = core::FocusStream::Build(run_, catalog_, focus_options);
  ASSERT_TRUE(focus_or.ok()) << focus_or.error().message;
  const core::FocusStream& focus = **focus_or;

  cnn::SegmentGroundTruth truth(*run_, focus.gt_cnn());
  std::vector<common::ClassId> dominant = truth.DominantClasses(0.95, 4);
  ASSERT_FALSE(dominant.empty());

  std::vector<FleetQueryRequest> batch;
  for (common::ClassId cls : dominant) {
    batch.push_back(FleetQueryRequest{"auburn_c", "default", {.stream = &focus, .cls = cls}});
  }

  FleetQueryService unbatched(QueryServiceOptions{.num_gpus = 2, .batch_size = 1});
  FleetQueryService batched(QueryServiceOptions{.num_gpus = 2, .batch_size = 32});
  std::vector<QueryExecution> a = unbatched.ExecuteConcurrently(batch);
  std::vector<QueryExecution> b = batched.ExecuteConcurrently(batch);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].result.frame_runs, b[i].result.frame_runs);
  }
  // Same unique work either way; batching packs it into fewer launches whose
  // amortized cost is strictly lower once launches carry more than one image.
  EXPECT_EQ(unbatched.stats().cache_misses, batched.stats().cache_misses);
  if (batched.stats().cache_misses > 2) {
    EXPECT_LT(batched.stats().launches, unbatched.stats().launches);
    EXPECT_LT(batched.stats().gpu_millis, unbatched.stats().gpu_millis);
    common::GpuMillis max_a = 0.0;
    common::GpuMillis max_b = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      max_a = std::max(max_a, a[i].latency_millis());
      max_b = std::max(max_b, b[i].latency_millis());
    }
    EXPECT_LE(max_b, max_a);
  }
}

}  // namespace
}  // namespace focus::runtime
