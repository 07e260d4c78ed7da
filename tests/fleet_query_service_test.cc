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

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cnn/ground_truth.h"
#include "src/common/fault_injection.h"
#include "src/core/fleet.h"
#include "src/core/query_session.h"
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

// S2: concurrent QuerySessions routed through the shared service never re-pay
// a centroid any of them already paid — total GT-CNN time equals the union of
// unique centroids, while every session's own results and accounting stay
// byte-identical to a session running on the engine directly.
TEST_F(FleetQueryServiceTest, ConcurrentSessionsShareVerdictsAcrossTheService) {
  const std::string camera = CameraName(1);
  const core::FocusStream* stream = fleet_->Find(camera);
  ASSERT_NE(stream, nullptr);
  const int full_k = stream->chosen_params().k;
  ASSERT_GE(full_k, 2);
  // The union every session eventually requests: the full-width plan.
  const size_t unique = stream->Plan(dominant_class_).work.size();
  ASSERT_GT(unique, 0u);

  // batch_size 1: every fresh centroid is exactly one launch of one inference,
  // so service gpu time counts paid centroids with no amortization noise.
  QueryServiceOptions options;
  options.batch_size = 1;
  FleetQueryService service(options);

  constexpr int kSessions = 3;
  std::vector<std::unique_ptr<core::QuerySession>> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(std::make_unique<core::QuerySession>(
        &stream->ingest().index, &stream->ingest_cnn(), &stream->gt_cnn(), dominant_class_));
    sessions.back()->SetClassifier([&service, &camera, stream](const core::QueryPlan& plan) {
      return service.ClassifySessionPlan(camera, *stream, plan);
    });
  }
  // Each session expands 1 -> 2 -> full K on its own thread; the service
  // serializes and shares verdicts between them.
  std::vector<std::thread> threads;
  for (auto& session : sessions) {
    threads.emplace_back([&session, full_k] {
      session->ExpandTo(1);
      session->ExpandTo(2);
      session->ExpandTo(full_k);
    });
  }
  for (auto& thread : threads) thread.join();

  // Reference: the same expansion sequence on the engine directly.
  core::QuerySession reference(&stream->ingest().index, &stream->ingest_cnn(),
                               &stream->gt_cnn(), dominant_class_);
  reference.ExpandTo(1);
  reference.ExpandTo(2);
  reference.ExpandTo(full_k);
  for (const auto& session : sessions) {
    EXPECT_EQ(session->frame_runs(), reference.frame_runs());
    EXPECT_EQ(session->total_frames(), reference.total_frames());
    EXPECT_EQ(session->total_centroids_classified(), reference.total_centroids_classified());
    EXPECT_DOUBLE_EQ(session->total_gpu_millis(), reference.total_gpu_millis());
  }

  // The service paid each unique centroid exactly once, fleet-wide.
  const FleetServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_misses, static_cast<int64_t>(unique));
  EXPECT_EQ(stats.work_items, static_cast<int64_t>(kSessions * unique));
  EXPECT_EQ(stats.cache_hits, static_cast<int64_t>((kSessions - 1) * unique));
  EXPECT_EQ(stats.dedup_hits, 0);
  EXPECT_DOUBLE_EQ(stats.gpu_millis,
                   static_cast<double>(unique) * stream->gt_cnn().inference_cost_millis());
}

// Regression: a session step whose GT-CNN launch stayed failed used to store
// its centroids as permanent "no match" verdicts and advance Kx, so later
// expansions silently lost those clusters' frames. The failed step now
// surfaces a typed error and records nothing; expanding again re-pays it and
// converges to the unfaulted session.
TEST_F(FleetQueryServiceTest, FailedSessionLaunchIsRetriedNotCachedAsNoMatch) {
  // The first camera whose Kx = 1 step already matches frames, so losing that
  // step's verdicts would lose frames.
  std::string camera;
  const core::FocusStream* stream = nullptr;
  for (int i = 0; i < kNumCameras && stream == nullptr; ++i) {
    const core::FocusStream* candidate = fleet_->Find(CameraName(i));
    if (candidate->chosen_params().k >= 2 &&
        core::QuerySession(&candidate->ingest().index, &candidate->ingest_cnn(),
                           &candidate->gt_cnn(), dominant_class_)
                .ExpandTo(1)
                .new_frames > 0) {
      camera = CameraName(i);
      stream = candidate;
    }
  }
  ASSERT_NE(stream, nullptr);
  const int full_k = stream->chosen_params().k;

  core::QuerySession reference(&stream->ingest().index, &stream->ingest_cnn(),
                               &stream->gt_cnn(), dominant_class_);
  reference.ExpandTo(1);
  reference.ExpandTo(full_k);

  FleetQueryService service;
  core::QuerySession session(&stream->ingest().index, &stream->ingest_cnn(),
                             &stream->gt_cnn(), dominant_class_);
  session.SetClassifier([&service, &camera, stream](const core::QueryPlan& plan) {
    return service.ClassifySessionPlan(camera, *stream, plan);
  });
  {
    common::FaultPlan wedged;
    wedged.FireAlwaysFrom("gpu.launch", 1);
    common::ScopedFaultPlan armed(&wedged);
    const core::QueryBatch failed = session.ExpandTo(1);
    ASSERT_TRUE(failed.error.has_value());
    EXPECT_EQ(failed.error->code, common::ErrorCode::kUnavailable);
    EXPECT_EQ(failed.new_frames, 0);
    EXPECT_EQ(session.current_kx(), 0);
  }
  EXPECT_GE(service.stats().launches_failed, 1);

  const core::QueryBatch recovered = session.ExpandTo(full_k);
  ASSERT_FALSE(recovered.error.has_value());
  EXPECT_EQ(session.current_kx(), full_k);
  EXPECT_EQ(session.frame_runs(), reference.frame_runs());
  EXPECT_EQ(session.total_frames(), reference.total_frames());
  EXPECT_EQ(session.total_centroids_classified(), reference.total_centroids_classified());
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

}  // namespace
}  // namespace focus::runtime
