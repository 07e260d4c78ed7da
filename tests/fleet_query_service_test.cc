// Property tests for the persistent fleet query runtime
// (src/runtime/fleet_query_service.h, docs/fleet_serving.md).
//
// The central contract: results are byte-identical to per-camera sequential
// execution (core::FocusFleet::ExecuteFederatedSequential) no matter how work
// was packed into launches, what the global verdict cache held, or in which
// order tenants were admitted. The fixture builds a 32-camera fleet once
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

// Weighted-fair admission: a deep backlog from one tenant drains in rounds
// interleaved with another tenant's work (weight 2 admits two per round), and
// the admission order never changes any result.
TEST_F(FleetQueryServiceTest, WeightedFairDrainInterleavesTenants) {
  FleetQueryService service;
  service.SetTenantWeight("b", 2.0);

  auto request_for = [&](int i, const std::string& tenant) {
    FleetQueryRequest request;
    request.camera = CameraName(i);
    request.tenant = tenant;
    request.query.stream = fleet_->Find(CameraName(i));
    request.query.cls = dominant_class_;
    return request;
  };
  std::vector<uint64_t> a_tickets, b_tickets;
  for (int i = 0; i < 6; ++i) a_tickets.push_back(service.Enqueue(request_for(i, "a")));
  for (int i = 6; i < 9; ++i) b_tickets.push_back(service.Enqueue(request_for(i, "b")));

  const auto depths = service.QueueDepths();
  ASSERT_EQ(depths.size(), 2u);
  EXPECT_EQ(depths.at("a"), 6u);
  EXPECT_EQ(depths.at("b"), 3u);

  const auto drained = service.DrainAdmitted();
  ASSERT_EQ(drained.size(), 9u);
  // Rounds: {a1,b1,b2}, {a2,b3}, then a alone.
  const std::vector<uint64_t> want_order = {
      a_tickets[0], b_tickets[0], b_tickets[1], a_tickets[1], b_tickets[2],
      a_tickets[2], a_tickets[3], a_tickets[4], a_tickets[5],
  };
  std::vector<uint64_t> got_order;
  for (const auto& [ticket, exec] : drained) got_order.push_back(ticket);
  EXPECT_EQ(got_order, want_order);
  EXPECT_TRUE(service.QueueDepths().empty());

  // Admission order shapes latency, never results: every drained execution
  // matches the direct per-camera query.
  for (const auto& [ticket, exec] : drained) {
    ASSERT_FALSE(exec.error.has_value());
    const int i = static_cast<int>(ticket - 1);  // Tickets issued in enqueue order.
    ExpectSameQueryResult(exec.result, fleet_->Find(CameraName(i))->Query(dominant_class_));
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

// Federated fan-outs route through the same tenant queues as single-camera
// traffic: a two-fan-out burst from tenant a drains in rounds interleaved
// with tenant b's singles (visible as shared per-round submit instants on a
// one-GPU cluster), and every result — federated and single — stays
// byte-identical to its oracle.
TEST_F(FleetQueryServiceTest, FederatedDrainsThroughTenantQueuesFairly) {
  core::FederatedSelector east;
  east.region = "east";
  core::FederatedSelector hub;
  hub.tag = "hub";
  auto plan_east = fleet_->PlanFederated(dominant_class_, east);
  auto plan_hub = fleet_->PlanFederated(dominant_class_, hub);
  ASSERT_TRUE(plan_east.ok());
  ASSERT_TRUE(plan_hub.ok());
  const core::FleetQueryResult seq_east = fleet_->ExecuteFederatedSequential(*plan_east);
  const core::FleetQueryResult seq_hub = fleet_->ExecuteFederatedSequential(*plan_hub);

  // One GPU: the virtual frontier advances with every round's fresh work, so
  // admission rounds are visible as strictly increasing submit times.
  QueryServiceOptions options;
  options.num_gpus = 1;
  FleetQueryService service(options);

  const uint64_t fed_east = service.EnqueueFederated(*plan_east, "a");
  const uint64_t fed_hub = service.EnqueueFederated(*plan_hub, "a");
  std::vector<uint64_t> b_tickets;
  for (int i = 20; i < 23; ++i) {
    FleetQueryRequest request;
    request.camera = CameraName(i);
    request.tenant = "b";
    request.query.stream = fleet_->Find(CameraName(i));
    request.query.cls = dominant_class_;
    b_tickets.push_back(service.Enqueue(request));
  }
  const auto depths = service.QueueDepths();
  ASSERT_EQ(depths.size(), 2u);
  EXPECT_EQ(depths.at("a"), 2u);  // A fan-out queues as ONE entry.
  EXPECT_EQ(depths.at("b"), 3u);

  // Rounds: {fed_east, b1}, {fed_hub, b2}, {b3}.
  const auto drained = service.DrainAdmitted();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].first, b_tickets[0]);
  EXPECT_EQ(drained[1].first, b_tickets[1]);
  EXPECT_EQ(drained[2].first, b_tickets[2]);
  EXPECT_TRUE(service.QueueDepths().empty());

  auto east_exec = service.TakeFederated(fed_east);
  auto hub_exec = service.TakeFederated(fed_hub);
  ASSERT_TRUE(east_exec.has_value());
  ASSERT_TRUE(hub_exec.has_value());
  ASSERT_FALSE(east_exec->error.has_value());
  ASSERT_FALSE(hub_exec->error.has_value());
  ExpectSameFleetResult(east_exec->result, seq_east);
  ExpectSameFleetResult(hub_exec->result, seq_hub);
  EXPECT_FALSE(service.TakeFederated(fed_east).has_value());  // Claimed once.
  EXPECT_FALSE(service.TakeFederated(99999).has_value());

  // Fairness in virtual time: round members share a submit instant, rounds
  // submit strictly later than their predecessors — tenant a's burst never
  // pushes tenant b's queue behind both fan-outs.
  EXPECT_DOUBLE_EQ(east_exec->submit_millis, drained[0].second.submit_millis);
  EXPECT_DOUBLE_EQ(hub_exec->submit_millis, drained[1].second.submit_millis);
  EXPECT_LT(east_exec->submit_millis, hub_exec->submit_millis);
  EXPECT_LT(drained[1].second.submit_millis, drained[2].second.submit_millis);

  // Admission order never changes results.
  for (size_t i = 0; i < drained.size(); ++i) {
    ASSERT_FALSE(drained[i].second.error.has_value());
    ExpectSameQueryResult(drained[i].second.result,
                          fleet_->Find(CameraName(20 + static_cast<int>(i)))
                              ->Query(dominant_class_));
  }
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

// Regression: all-or-nothing admission starved oversized plans. The packer
// splits an oversized plan into budget-sized slices
// executed across consecutive rounds — the entry completes, other tenants
// still interleave, and the merged result is byte-identical to the sequential
// oracle (verdicts are pure per-centroid, so slicing cannot change them).
TEST_F(FleetQueryServiceTest, OversizedPlanSplitsAcrossRoundsByteIdentically) {
  auto plan = fleet_->PlanFederated(dominant_class_);
  ASSERT_TRUE(plan.ok());
  const core::FocusStream* small_stream = fleet_->Find(CameraName(5));
  ASSERT_NE(small_stream, nullptr);
  const size_t small_items = small_stream->Plan(dominant_class_).work.size();
  ASSERT_GT(small_items, 0u);
  ASSERT_GT(plan->TotalWorkItems(), static_cast<int64_t>(2 * small_items));
  const double per_item = small_stream->gt_cnn().batch_cost_model().EstimateMillis(1);
  const core::FleetQueryResult sequential = fleet_->ExecuteFederatedSequential(*plan);

  QueryServiceOptions options;
  options.round_cost_budget_millis = static_cast<double>(small_items) * per_item;
  MetricsRegistry metrics;
  FleetQueryService service(options, &metrics);

  const uint64_t fed = service.EnqueueFederated(*plan, "a");
  FleetQueryRequest small;
  small.camera = CameraName(5);
  small.tenant = "b";
  small.query.stream = small_stream;
  small.query.cls = dominant_class_;
  const uint64_t small_ticket = service.Enqueue(small);

  const auto drained = service.DrainAdmitted();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].first, small_ticket);
  ASSERT_FALSE(drained[0].second.error.has_value());
  ExpectSameQueryResult(drained[0].second.result, small_stream->Query(dominant_class_));

  auto fed_exec = service.TakeFederated(fed);
  ASSERT_TRUE(fed_exec.has_value());
  ASSERT_FALSE(fed_exec->error.has_value());
  ExpectSameFleetResult(fed_exec->result, sequential);
  EXPECT_TRUE(service.QueueDepths().empty());
  EXPECT_EQ(service.stats().plans_split, 1);
  EXPECT_EQ(metrics.counter("fleet.plans_split"), 1);
  EXPECT_GT(metrics.counter("fleet.plan_slices"), 1);

  // Direct execution splits too, and a warm repeat stays byte-identical.
  FleetQueryService direct(options);
  const FederatedExecution cold = direct.ExecuteFederated(*plan);
  ASSERT_FALSE(cold.error.has_value());
  ExpectSameFleetResult(cold.result, sequential);
  const FederatedExecution warm = direct.ExecuteFederated(*plan);
  ASSERT_FALSE(warm.error.has_value());
  ExpectSameFleetResult(warm.result, sequential);
  EXPECT_GE(direct.stats().plans_split, 1);

  // An oversized single-camera request splits through the same path.
  const core::FocusStream* wide_stream = fleet_->Find(CameraName(1));
  ASSERT_NE(wide_stream, nullptr);
  const size_t wide_items = wide_stream->Plan(dominant_class_).work.size();
  if (wide_items > 1) {
    QueryServiceOptions tight = options;
    tight.round_cost_budget_millis =
        wide_stream->gt_cnn().batch_cost_model().EstimateMillis(1) * 1.5;
    FleetQueryService single(tight);
    FleetQueryRequest wide;
    wide.camera = CameraName(1);
    wide.query.stream = wide_stream;
    wide.query.cls = dominant_class_;
    const uint64_t ticket = single.Enqueue(wide);
    const auto singles = single.DrainAdmitted();
    ASSERT_EQ(singles.size(), 1u);
    EXPECT_EQ(singles[0].first, ticket);
    ASSERT_FALSE(singles[0].second.error.has_value());
    ExpectSameQueryResult(singles[0].second.result, wide_stream->Query(dominant_class_));
    EXPECT_EQ(single.stats().plans_split, 1);
  }
}

// Per-tenant admission accounting reaches the metrics registry: enqueue and
// admit counters per tenant, live queue-depth gauges, and the fleet-wide
// request/federated counters.
TEST_F(FleetQueryServiceTest, PerTenantAdmissionMetricsSurface) {
  MetricsRegistry metrics;
  FleetQueryService service({}, &metrics);

  for (int i = 3; i < 5; ++i) {
    FleetQueryRequest request;
    request.camera = CameraName(i);
    request.tenant = "ops";
    request.query.stream = fleet_->Find(CameraName(i));
    request.query.cls = dominant_class_;
    service.Enqueue(request);
  }
  core::FederatedSelector east;
  east.region = "east";
  auto plan = fleet_->PlanFederated(dominant_class_, east);
  ASSERT_TRUE(plan.ok());
  const uint64_t fed = service.EnqueueFederated(*plan, "analysts");

  EXPECT_EQ(metrics.counter("fleet.enqueued"), 3);
  EXPECT_EQ(metrics.counter("fleet.tenant.ops.enqueued"), 2);
  EXPECT_EQ(metrics.counter("fleet.tenant.analysts.enqueued"), 1);
  EXPECT_DOUBLE_EQ(metrics.gauge("fleet.tenant.ops.queue_depth"), 2.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("fleet.tenant.analysts.queue_depth"), 1.0);

  const auto drained = service.DrainAdmitted();
  EXPECT_EQ(drained.size(), 2u);
  ASSERT_TRUE(service.TakeFederated(fed).has_value());

  EXPECT_EQ(metrics.counter("fleet.tenant.ops.admitted"), 2);
  EXPECT_EQ(metrics.counter("fleet.tenant.analysts.admitted"), 1);
  EXPECT_DOUBLE_EQ(metrics.gauge("fleet.tenant.ops.queue_depth"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("fleet.tenant.analysts.queue_depth"), 0.0);
  EXPECT_EQ(metrics.counter("fleet.requests"), 2);
  EXPECT_EQ(metrics.counter("fleet.federated_queries"), 1);
  EXPECT_EQ(metrics.counter("fleet.federated_cameras"),
            static_cast<int64_t>(plan->cameras.size()));
  EXPECT_GT(metrics.counter("fleet.admissions"), 0);
}

}  // namespace
}  // namespace focus::runtime
