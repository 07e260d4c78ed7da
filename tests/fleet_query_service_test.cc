// Property tests for the persistent fleet query runtime
// (src/runtime/fleet_query_service.h, docs/fleet_serving.md).
//
// The central contract: results are byte-identical to per-camera sequential
// execution (core::FocusFleet::ExecuteFederatedSequential) no matter how work
// was packed into launches or what the global verdict cache held. The fixture builds a 32-camera fleet once
// (cycling the 13 built-in stream profiles across two regions) and every case
// checks an executor property against the sequential oracle. Under
// ThreadSanitizer (tools/check_all.sh gate 3) the same cases run over an
// 8-camera fleet of 30 s streams: the fixture's tuning and ingest would
// otherwise run for many minutes at the sanitizer's slowdown.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cnn/ground_truth.h"
#include "src/cnn/model_zoo.h"
#include "src/common/fault_injection.h"
#include "src/core/fleet.h"
#include "src/core/live_snapshot.h"
#include "src/runtime/fleet_query_service.h"
#include "src/video/stream_generator.h"

namespace focus::runtime {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr double kDurationSec = 30.0;
constexpr int kNumCameras = 8;
#else
constexpr double kDurationSec = 60.0;
constexpr int kNumCameras = 32;
#endif
constexpr double kFps = 30.0;

const char* const kProfiles[] = {
    "auburn_c", "auburn_r", "bend",     "church_st", "city_a_d", "city_a_r", "cnn",
    "foxnews",  "jacksonh", "lausanne", "msnbc",     "oxford",   "sittard",
};

// Camera |i|'s name. Indices wrap at the fleet size, so the cases written
// against the 32-camera fleet address the sanitizer-sized fleet too.
std::string CameraName(int i) {
  i %= kNumCameras;
  return "cam" + std::to_string(i / 10) + std::to_string(i % 10);
}

void ExpectSameQueryResult(const core::QueryResult& got, const core::QueryResult& want) {
  EXPECT_EQ(got.queried, want.queried);
  EXPECT_EQ(got.frame_runs, want.frame_runs);
  EXPECT_EQ(got.centroids_classified, want.centroids_classified);
  EXPECT_EQ(got.clusters_matched, want.clusters_matched);
  EXPECT_EQ(got.frames_returned, want.frames_returned);
  EXPECT_DOUBLE_EQ(got.gpu_millis, want.gpu_millis);
}

void ExpectSameFleetResult(const core::FleetQueryResult& got,
                           const core::FleetQueryResult& want) {
  EXPECT_EQ(got.queried, want.queried);
  EXPECT_EQ(got.total_frames, want.total_frames);
  EXPECT_EQ(got.total_centroids_classified, want.total_centroids_classified);
  EXPECT_DOUBLE_EQ(got.total_gpu_millis, want.total_gpu_millis);
  ASSERT_EQ(got.hits.size(), want.hits.size());
  for (size_t i = 0; i < got.hits.size(); ++i) {
    SCOPED_TRACE("camera=" + want.hits[i].camera);
    EXPECT_EQ(got.hits[i].camera, want.hits[i].camera);
    EXPECT_EQ(got.hits[i].live, want.hits[i].live);
    EXPECT_EQ(got.hits[i].epoch, want.hits[i].epoch);
    EXPECT_EQ(got.hits[i].watermark, want.hits[i].watermark);
    ExpectSameQueryResult(got.hits[i].result, want.hits[i].result);
  }
}

class FleetQueryServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new video::ClassCatalog(11);
    fleet_ = new core::FocusFleet();
    core::FocusOptions options;
    // Deterministic fill: cycle (profile, seed) combos, skipping the rare
    // short-sample combos the tuner rejects, until the fleet holds 32 cameras.
    int added = 0;
    for (int attempt = 0; added < kNumCameras && attempt < 4 * kNumCameras; ++attempt) {
      video::StreamProfile profile;
      ASSERT_TRUE(
          video::FindProfile(kProfiles[attempt % std::size(kProfiles)], &profile));
      core::CameraMeta meta;
      meta.region = added < kNumCameras / 2 ? "east" : "west";
      if (added % 8 == 0) meta.tags.push_back("hub");
      if (fleet_
              ->AddCamera(CameraName(added), catalog_, profile, kDurationSec, kFps,
                          1000 + static_cast<uint64_t>(attempt), options, meta)
              .ok()) {
        ++added;
      }
    }
    ASSERT_EQ(added, kNumCameras);
    // The fleet-wide investigation class: among the dominant GT classes of the
    // first cameras, the one with the widest federated fan-out.
    int64_t widest = 0;
    for (int i = 0; i < 4; ++i) {
      const core::FocusStream* stream = fleet_->Find(CameraName(i));
      ASSERT_NE(stream, nullptr);
      cnn::SegmentGroundTruth truth(stream->run(), stream->gt_cnn());
      for (common::ClassId cls : truth.DominantClasses(0.95, 3)) {
        auto plan = fleet_->PlanFederated(cls);
        if (plan.ok() && plan->TotalWorkItems() > widest) {
          widest = plan->TotalWorkItems();
          dominant_class_ = cls;
        }
      }
    }
    ASSERT_GT(widest, 0);
  }

  static void TearDownTestSuite() {
    delete fleet_;
    delete catalog_;
    fleet_ = nullptr;
    catalog_ = nullptr;
  }

  static video::ClassCatalog* catalog_;
  static core::FocusFleet* fleet_;
  static common::ClassId dominant_class_;
};

video::ClassCatalog* FleetQueryServiceTest::catalog_ = nullptr;
core::FocusFleet* FleetQueryServiceTest::fleet_ = nullptr;
common::ClassId FleetQueryServiceTest::dominant_class_ = common::kInvalidClass;

// The tentpole property: a federated fan-out over the whole fleet (and over
// each narrowing selector) executed through the packed/cached service is
// byte-identical to the per-camera sequential oracle — cold cache, warm cache,
// either way.
TEST_F(FleetQueryServiceTest, FederatedMatchesSequentialOracle) {
  std::vector<core::FederatedSelector> selectors(5);  // [0]: whole fleet.
  selectors[1].region = "east";
  selectors[2].region = "west";
  selectors[3].tag = "hub";
  selectors[4].cameras = {CameraName(3), CameraName(17), CameraName(30)};
  FleetQueryService service;
  for (const auto& selector : selectors) {
    SCOPED_TRACE("region=" + selector.region + " tag=" + selector.tag +
                 " explicit=" + std::to_string(selector.cameras.size()));
    auto plan = fleet_->PlanFederated(dominant_class_, selector);
    ASSERT_TRUE(plan.ok()) << plan.error().message;
    const core::FleetQueryResult sequential = fleet_->ExecuteFederatedSequential(*plan);

    const FederatedExecution cold = service.ExecuteFederated(*plan);
    ASSERT_FALSE(cold.error.has_value());
    ExpectSameFleetResult(cold.result, sequential);

    // Re-executing the same pinned plan answers fully from the verdict cache —
    // still byte-identical.
    const FederatedExecution warm = service.ExecuteFederated(*plan);
    ASSERT_FALSE(warm.error.has_value());
    ExpectSameFleetResult(warm.result, sequential);
  }
}

// Acceptance guardrail: on a fan-out wide enough to fill the cluster, packing
// work items across cameras into shared GT-CNN launches costs >= 15% less
// GPU-time than the per-centroid sequential execution. (With 10 GPUs and
// batch_size 32 the saving is 0.25 - 2.5/n, so n >= 25 unique items suffices.)
TEST_F(FleetQueryServiceTest, PackedLaunchesSaveAtLeastFifteenPercent) {
  auto plan = fleet_->PlanFederated(dominant_class_);
  ASSERT_TRUE(plan.ok());
  ASSERT_GE(plan->TotalWorkItems(), 25) << "fleet too small to exercise the guardrail";

  FleetQueryService service;  // Fresh: cold cache, cluster at time 0.
  const FederatedExecution exec = service.ExecuteFederated(*plan);
  ASSERT_FALSE(exec.error.has_value());

  const FleetServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_misses, plan->TotalWorkItems());
  // The sequential per-centroid cost is what the merged result itself accounts.
  EXPECT_DOUBLE_EQ(exec.result.total_gpu_millis,
                   static_cast<double>(stats.cache_misses) *
                       fleet_->Find(CameraName(0))->gt_cnn().inference_cost_millis());
  EXPECT_LE(stats.gpu_millis, 0.85 * exec.result.total_gpu_millis)
      << "packed launches saved less than 15%";
  // Parallelism first: the packer never leaves a GPU idle while work remains,
  // so a fleet-wide fan-out uses every device.
  EXPECT_GE(stats.launches, static_cast<int64_t>(service.options().num_gpus));
}

// Warm-cache acceptance: a duplicate federated query pays zero additional
// GT-CNN GPU-time — every item answers from the global verdict cache at the
// cluster's current frontier (latency 0 in virtual time).
TEST_F(FleetQueryServiceTest, WarmCacheRepeatPaysZero) {
  core::FederatedSelector east;
  east.region = "east";
  auto plan = fleet_->PlanFederated(dominant_class_, east);
  ASSERT_TRUE(plan.ok());
  FleetQueryService service;
  const FederatedExecution cold = service.ExecuteFederated(*plan);
  ASSERT_FALSE(cold.error.has_value());
  const FleetServiceStats before = service.stats();

  const FederatedExecution warm = service.ExecuteFederated(*plan);
  ASSERT_FALSE(warm.error.has_value());
  const FleetServiceStats after = service.stats();

  ExpectSameFleetResult(warm.result, cold.result);
  EXPECT_EQ(after.launches, before.launches);
  EXPECT_DOUBLE_EQ(after.gpu_millis, before.gpu_millis);
  EXPECT_EQ(after.cache_hits, before.cache_hits + plan->TotalWorkItems());
  EXPECT_EQ(after.cache_misses, before.cache_misses);
  EXPECT_DOUBLE_EQ(warm.latency_millis(), 0.0);
}

// Single-camera requests through the shared service — sequential, pooled
// concurrently in one admission, with in-admission duplicates, cold or warm —
// all reproduce FocusStream::Query byte-for-byte.
TEST_F(FleetQueryServiceTest, RequestsMatchDirectStreamQuery) {
  FleetQueryService service;
  std::vector<FleetQueryRequest> requests;
  std::vector<core::QueryResult> direct;
  for (int i : {0, 7, 13, 21, 31}) {
    const core::FocusStream* stream = fleet_->Find(CameraName(i));
    ASSERT_NE(stream, nullptr);
    FleetQueryRequest request;
    request.camera = CameraName(i);
    request.query.stream = stream;
    request.query.cls = dominant_class_;
    if (i == 13) request.query.kx = 1;                        // Narrowed Kx.
    if (i == 21) request.query.range = {5.0, 30.0};           // Time window.
    requests.push_back(request);
    direct.push_back(stream->Query(dominant_class_, request.query.kx, request.query.range));
  }
  // One at a time (cold, then increasingly warm cache).
  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryExecution exec = service.Execute(requests[i]);
    ASSERT_FALSE(exec.error.has_value());
    ExpectSameQueryResult(exec.result, direct[i]);
  }
  // Pooled into one admission, duplicated, and reversed: request order in,
  // request order out, every result still identical.
  std::vector<FleetQueryRequest> pooled(requests.rbegin(), requests.rend());
  pooled.insert(pooled.end(), requests.begin(), requests.end());
  const auto execs = service.ExecuteConcurrently(pooled);
  ASSERT_EQ(execs.size(), pooled.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_FALSE(execs[i].error.has_value());
    ExpectSameQueryResult(execs[i].result, direct[requests.size() - 1 - i]);
    ASSERT_FALSE(execs[requests.size() + i].error.has_value());
    ExpectSameQueryResult(execs[requests.size() + i].result, direct[i]);
  }
}

// S2: clients repeating a query at a growing Kx (§5: "if more objects are
// required, we can increase Kx to extract a new batch of results") through
// the shared service never re-pay a centroid any of them already paid. The
// plan at a smaller Kx is a subset of the plan at a larger one, so however the
// threads interleave, the service pays each centroid of the full-K plan
// exactly once, and every answer equals a one-shot query at its Kx.
TEST_F(FleetQueryServiceTest, ConcurrentKxLaddersShareVerdictsAcrossTheService) {
  const std::string camera = CameraName(1);
  const core::FocusStream* stream = fleet_->Find(camera);
  ASSERT_NE(stream, nullptr);
  const int full_k = stream->chosen_params().k;
  ASSERT_GE(full_k, 2);
  const std::vector<int> ladder = {1, 2, full_k};
  // The union every client eventually requests: the full-width plan.
  const size_t unique = stream->Plan(dominant_class_, full_k).work.size();
  ASSERT_GT(unique, 0u);
  size_t ladder_items = 0;
  std::vector<core::QueryResult> want;
  for (int kx : ladder) {
    ladder_items += stream->Plan(dominant_class_, kx).work.size();
    want.push_back(stream->Query(dominant_class_, kx));
  }

  // batch_size 1: every fresh centroid is exactly one launch of one inference,
  // so service gpu time counts paid centroids with no amortization noise.
  QueryServiceOptions options;
  options.batch_size = 1;
  FleetQueryService service(options);

  // Each client runs KX 1 -> 2 -> full K on its own thread; the service
  // shares verdicts between them.
  constexpr int kThreads = 3;
  std::vector<std::vector<QueryExecution>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int kx : ladder) {
        FleetQueryRequest request;
        request.camera = camera;
        request.query.stream = stream;
        request.query.cls = dominant_class_;
        request.query.kx = kx;
        got[t].push_back(service.Execute(request));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& executions : got) {
    ASSERT_EQ(executions.size(), ladder.size());
    for (size_t r = 0; r < ladder.size(); ++r) {
      SCOPED_TRACE("kx=" + std::to_string(ladder[r]));
      ASSERT_FALSE(executions[r].error.has_value());
      ExpectSameQueryResult(executions[r].result, want[r]);
    }
  }

  // The service paid each unique centroid exactly once, fleet-wide; every
  // other work item of every rung of every client was a cache hit.
  const FleetServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_misses, static_cast<int64_t>(unique));
  EXPECT_EQ(stats.work_items, static_cast<int64_t>(kThreads * ladder_items));
  EXPECT_EQ(stats.cache_hits, static_cast<int64_t>(kThreads * ladder_items - unique));
  EXPECT_EQ(stats.dedup_hits, 0);
  EXPECT_DOUBLE_EQ(stats.gpu_millis,
                   static_cast<double>(unique) * stream->gt_cnn().inference_cost_millis());
}

// Regression: a GT-CNN launch that stayed failed must never be cached as a
// "no match" verdict, or later queries silently lose those clusters' frames.
// With launches wedged from the second one on, the request surfaces a typed
// Unavailable; the same request on the same service, unwedged, equals the
// unfaulted answer and pays only for the centroids whose launches failed.
TEST_F(FleetQueryServiceTest, FailedLaunchIsRetriedNotCachedAsNoMatch) {
  // The first camera whose full-K query matches frames and admits at least
  // two centroids past its Kx = 1 plan (so the wedged request has one launch
  // that lands and at least one that fails).
  std::string camera;
  const core::FocusStream* stream = nullptr;
  for (int i = 0; i < kNumCameras && stream == nullptr; ++i) {
    const core::FocusStream* candidate = fleet_->Find(CameraName(i));
    const int k = candidate->chosen_params().k;
    if (k >= 2 && candidate->Query(dominant_class_, k).frames_returned > 0 &&
        candidate->Plan(dominant_class_, k).work.size() >=
            candidate->Plan(dominant_class_, 1).work.size() + 2) {
      camera = CameraName(i);
      stream = candidate;
    }
  }
  ASSERT_NE(stream, nullptr);
  const int full_k = stream->chosen_params().k;
  const core::QueryResult reference = stream->Query(dominant_class_, full_k);

  FleetQueryService service;
  FleetQueryRequest request;
  request.camera = camera;
  request.query.stream = stream;
  request.query.cls = dominant_class_;
  request.query.kx = 1;
  ASSERT_FALSE(service.Execute(request).error.has_value());  // Warm Kx = 1.

  request.query.kx = full_k;
  const FleetServiceStats before_failure = service.stats();
  {
    common::FaultPlan wedged;
    wedged.FireAlwaysFrom("gpu.launch", 2);
    common::ScopedFaultPlan armed(&wedged);
    const QueryExecution failed = service.Execute(request);
    ASSERT_TRUE(failed.error.has_value());
    EXPECT_EQ(failed.error->code, common::ErrorCode::kUnavailable);
  }
  const FleetServiceStats after_failure = service.stats();
  EXPECT_GE(after_failure.launches_failed, 1);
  // Only verdicts whose launch landed entered the cache.
  const int64_t landed =
      static_cast<int64_t>(after_failure.cache_size - before_failure.cache_size);
  const int64_t failed_items =
      after_failure.cache_misses - before_failure.cache_misses - landed;
  EXPECT_GT(landed, 0);
  EXPECT_GT(failed_items, 0);

  const QueryExecution recovered = service.Execute(request);
  ASSERT_FALSE(recovered.error.has_value());
  ExpectSameQueryResult(recovered.result, reference);
  const FleetServiceStats after_retry = service.stats();
  EXPECT_EQ(after_retry.cache_misses - after_failure.cache_misses, failed_items);
  EXPECT_EQ(after_retry.launches_failed, after_failure.launches_failed);
}

// The verdict cache never grows past its configured capacity, and a cache too
// small for the working set only costs re-paid classifications — results stay
// byte-identical.
TEST_F(FleetQueryServiceTest, TinyCacheStaysBoundedAndCorrect) {
  core::FederatedSelector west;
  west.region = "west";
  auto plan = fleet_->PlanFederated(dominant_class_, west);
  ASSERT_TRUE(plan.ok());
  ASSERT_GT(plan->TotalWorkItems(), 8);
  const core::FleetQueryResult sequential = fleet_->ExecuteFederatedSequential(*plan);

  QueryServiceOptions options;
  options.verdict_cache_capacity = 8;
  FleetQueryService service(options);
  for (int pass = 0; pass < 3; ++pass) {
    SCOPED_TRACE("pass=" + std::to_string(pass));
    const FederatedExecution exec = service.ExecuteFederated(*plan);
    ASSERT_FALSE(exec.error.has_value());
    ExpectSameFleetResult(exec.result, sequential);
    EXPECT_LE(service.stats().cache_size, options.verdict_cache_capacity);
  }
  EXPECT_GT(service.stats().cache_evicted, 0);
}

// The striped verdict cache under concurrent warm traffic: once the fleet-wide
// plan is cached, parallel single-camera requests answer entirely from their
// stripes (zero launches, zero fresh GPU time) and stay byte-identical.
TEST_F(FleetQueryServiceTest, StripedCacheAnswersConcurrentWarmTrafficIdentically) {
  FleetQueryService service;
  auto plan = fleet_->PlanFederated(dominant_class_);
  ASSERT_TRUE(plan.ok());
  const FederatedExecution cold = service.ExecuteFederated(*plan);
  ASSERT_FALSE(cold.error.has_value());
  const FleetServiceStats before = service.stats();

  std::vector<core::QueryResult> direct;
  int64_t warm_items = 0;
  for (int i = 0; i < kNumCameras; ++i) {
    direct.push_back(fleet_->Find(CameraName(i))->Query(dominant_class_));
    warm_items += static_cast<int64_t>(fleet_->Find(CameraName(i))->Plan(dominant_class_).work.size());
  }

  constexpr int kThreads = 8;
  constexpr int kPasses = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int pass = 0; pass < kPasses; ++pass) {
        for (int i = t; i < kNumCameras; i += kThreads) {
          FleetQueryRequest request;
          request.camera = CameraName(i);
          request.query.stream = fleet_->Find(CameraName(i));
          request.query.cls = dominant_class_;
          const QueryExecution exec = service.Execute(request);
          const core::QueryResult& want = direct[i];
          const bool same = !exec.error.has_value() &&
                            exec.result.queried == want.queried &&
                            exec.result.frame_runs == want.frame_runs &&
                            exec.result.centroids_classified == want.centroids_classified &&
                            exec.result.clusters_matched == want.clusters_matched &&
                            exec.result.frames_returned == want.frames_returned &&
                            exec.result.gpu_millis == want.gpu_millis;
          if (!same) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);

  const FleetServiceStats after = service.stats();
  EXPECT_EQ(after.cache_misses, before.cache_misses);  // Nothing fresh.
  EXPECT_EQ(after.launches, before.launches);          // Fully-cached fast path.
  EXPECT_DOUBLE_EQ(after.gpu_millis, before.gpu_millis);
  EXPECT_EQ(after.cache_hits, before.cache_hits + kPasses * warm_items);
  EXPECT_LE(after.cache_size, service.options().verdict_cache_capacity);
}

// Tenants only attribute traffic: every Execute and ExecuteFederated call
// counts once under its tenant, beside the fleet-wide request, federated and
// admission counters.
TEST_F(FleetQueryServiceTest, PerTenantAdmissionMetricsSurface) {
  MetricsRegistry metrics;
  FleetQueryService service({}, &metrics);

  for (int i = 3; i < 5; ++i) {
    FleetQueryRequest request;
    request.camera = CameraName(i);
    request.tenant = "ops";
    request.query.stream = fleet_->Find(CameraName(i));
    request.query.cls = dominant_class_;
    ASSERT_FALSE(service.Execute(request).error.has_value());
  }
  core::FederatedSelector east;
  east.region = "east";
  auto plan = fleet_->PlanFederated(dominant_class_, east);
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(service.ExecuteFederated(*plan, "analysts").error.has_value());

  EXPECT_EQ(metrics.counter("fleet.tenant.ops.requests"), 2);
  EXPECT_EQ(metrics.counter("fleet.tenant.analysts.requests"), 1);
  EXPECT_EQ(metrics.counter("fleet.requests"), 2);
  EXPECT_EQ(metrics.counter("fleet.federated_queries"), 1);
  EXPECT_EQ(metrics.counter("fleet.federated_cameras"),
            static_cast<int64_t>(plan->cameras.size()));
  EXPECT_EQ(metrics.counter("fleet.admissions"), 3);  // One per call.
  EXPECT_EQ(service.stats().requests, 3);
}

// Tenant names are caller input, so their counters are bounded: the first 64
// distinct names get one each, every later name shares the overflow counter.
TEST_F(FleetQueryServiceTest, TenantCountersAreBounded) {
  MetricsRegistry metrics;
  FleetQueryService service({}, &metrics);
  FleetQueryRequest request;
  request.camera = CameraName(0);
  request.query.stream = fleet_->Find(CameraName(0));
  request.query.cls = dominant_class_;
  for (int t = 0; t < 70; ++t) {
    request.tenant = "t" + std::to_string(t);
    ASSERT_FALSE(service.Execute(request).error.has_value());
  }
  request.tenant = "t0";  // A counted name stays counted.
  ASSERT_FALSE(service.Execute(request).error.has_value());
  EXPECT_EQ(metrics.counter("fleet.tenant.t0.requests"), 2);
  EXPECT_EQ(metrics.counter("fleet.tenant.t63.requests"), 1);
  EXPECT_EQ(metrics.counter("fleet.tenant.t64.requests"), 0);
  EXPECT_EQ(metrics.counter("fleet.tenant_overflow.requests"), 6);
  EXPECT_EQ(metrics.counter("fleet.requests"), 71);
}

// A snapshot of |clusters| single-member clusters, all indexed under |cls| at
// rank 1, whose centroids are the detections (first_frame + i, object i).
std::shared_ptr<const core::LiveSnapshot> SyntheticSnapshot(common::ClassId cls,
                                                            common::ClassId true_class,
                                                            size_t clusters,
                                                            common::FrameIndex first_frame) {
  index::IndexBuilder builder;
  index::ClusterEntry entry;
  entry.size = 1;
  entry.topk_classes = {cls};
  entry.topk_ranks = {1};
  entry.representative.true_class = true_class;
  entry.representative.bbox = video::BBox{0.25f, 0.25f, 0.1f, 0.2f};
  entry.members.resize(1);
  for (size_t i = 0; i < clusters; ++i) {
    entry.representative.frame = first_frame + static_cast<common::FrameIndex>(i);
    entry.representative.object_id = static_cast<common::ObjectId>(i);
    entry.members[0].object = entry.representative.object_id;
    entry.members[0].first_frame = entry.representative.frame;
    entry.members[0].last_frame = entry.representative.frame;
    builder.Add(entry);
  }
  auto snapshot = std::make_shared<core::LiveSnapshot>();
  snapshot->epoch = 1;
  snapshot->watermark = first_frame + static_cast<common::FrameIndex>(clusters);
  snapshot->index = builder.Finish();
  return snapshot;
}

// A live camera's cache is bounded only by its capacity: fill it, then churn
// a disjoint working set of the same size through it. The cache never passes
// its capacity, every entry it drops is counted as evicted, and (where the
// allocator reports heap use; sanitizer runtimes do not) the filled cache
// costs a bounded number of heap bytes per entry — a key is three integers,
// with no per-entry copy of the camera name — and churn grows the heap by
// next to nothing.
TEST(FleetQueryServiceCacheTest, CacheAtCapacityHasBoundedHeapPerEntry) {
  constexpr size_t kCapacity = size_t{1} << 15;
  video::ClassCatalog catalog(11);
  cnn::Cnn cheap(cnn::GenericCheapCandidates(catalog.world_seed())[1], &catalog);
  cnn::Cnn gt(cnn::GtCnnDesc(catalog.world_seed()), &catalog);
  const common::ClassId cls = 1;
  const common::ClassId lookup = cheap.MapTrueLabel(cls);
  const auto fill = SyntheticSnapshot(lookup, cls, kCapacity, 0);
  const auto churn =
      SyntheticSnapshot(lookup, cls, kCapacity, static_cast<common::FrameIndex>(kCapacity));

  MetricsRegistry metrics;
  QueryServiceOptions options;
  options.verdict_cache_capacity = kCapacity;
  FleetQueryService service(options, &metrics);
  auto execute = [&](const std::shared_ptr<const core::LiveSnapshot>& snapshot) {
    FleetQueryRequest request;
    request.camera = "live";
    request.query.cls = cls;
    request.query.kx = 1;
    request.query.snapshot = snapshot;
    request.query.ingest_cnn = &cheap;
    request.query.gt_cnn = &gt;
    const QueryExecution execution = service.Execute(request);
    ASSERT_FALSE(execution.error.has_value());
    EXPECT_EQ(execution.result.centroids_classified, static_cast<int64_t>(kCapacity));
  };

  // Each stripe holds an exact share of the capacity, so a stripe that draws
  // more than its share of keys evicts before the cache as a whole is full.
  const size_t heap_empty = mallinfo2().uordblks;
  execute(fill);
  const size_t heap_full = mallinfo2().uordblks;
  FleetServiceStats stats = service.stats();
  const size_t filled = stats.cache_size;
  EXPECT_LE(filled, kCapacity);
  EXPECT_GE(filled, kCapacity * 9 / 10);
  EXPECT_EQ(stats.cache_misses, static_cast<int64_t>(kCapacity));
  EXPECT_EQ(static_cast<int64_t>(filled) + stats.cache_evicted, stats.cache_misses);

  execute(churn);
  const size_t heap_churned = mallinfo2().uordblks;
  stats = service.stats();
  EXPECT_LE(stats.cache_size, kCapacity);
  EXPECT_EQ(stats.cache_misses, static_cast<int64_t>(2 * kCapacity));
  EXPECT_EQ(static_cast<int64_t>(stats.cache_size) + stats.cache_evicted, stats.cache_misses);

#if !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
  const double bytes_per_entry =
      static_cast<double>(heap_full - heap_empty) / static_cast<double>(filled);
  RecordProperty("cache_heap_bytes_per_entry", std::to_string(bytes_per_entry));
  EXPECT_GT(bytes_per_entry, 0.0);
  EXPECT_LE(bytes_per_entry, 160.0);
  EXPECT_LE(static_cast<double>(heap_churned) - static_cast<double>(heap_full),
            0.05 * static_cast<double>(heap_full - heap_empty));
#else
  (void)heap_empty;
  (void)heap_full;
  (void)heap_churned;
#endif
}

}  // namespace
}  // namespace focus::runtime
