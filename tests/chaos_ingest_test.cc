// Chaos suite (docs/robustness.md): deterministic fault injection through the
// persistent ingest path, worker supervision in IngestService, degraded-mode
// serving through the query server, and GT-CNN launch retry in the query
// service.
//
// The core property under test: for any injected fault plan, ingest either
// converges to the byte-identical no-fault result (after in-place retries or
// supervised restarts) or surfaces a typed error and a well-formed degraded
// answer — never a crash, a hang, or a silently wrong result.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/sharded_clusterer.h"
#include "src/cnn/ground_truth.h"
#include "src/cnn/model_zoo.h"
#include "src/common/fault_injection.h"
#include "src/common/result.h"
#include "src/core/focus_stream.h"
#include "src/core/ingest_pipeline.h"
#include "src/runtime/fleet_query_service.h"
#include "src/runtime/ingest_service.h"
#include "src/server/query_server.h"
#include "src/storage/serializer.h"
#include "src/storage/snapshot_store.h"
#include "src/video/flaky_stream.h"
#include "src/video/stream_generator.h"

namespace focus {
namespace {

namespace fs = std::filesystem;

core::IngestParams CheapParams() {
  core::IngestParams params;
  params.model = cnn::GenericCheapCandidates(5)[1];
  params.k = 3;
  params.cluster_threshold = 0.6;
  return params;
}

void ExpectSameResult(const core::IngestResult& a, const core::IngestResult& b) {
  EXPECT_EQ(a.detections, b.detections);
  EXPECT_EQ(a.cnn_invocations, b.cnn_invocations);
  EXPECT_EQ(a.suppressed, b.suppressed);
  EXPECT_DOUBLE_EQ(a.gpu_millis, b.gpu_millis);
  ASSERT_EQ(a.index.num_clusters(), b.index.num_clusters());
  EXPECT_TRUE(a.index.image() == b.index.image()) << "index images differ";
}

class ChaosIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("chaos_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// --- S1: the pixel-diff reuse-map eviction gap is a knob ---

// A scripted recording with one continuously tracked anchor object and one
// object that is occluded for 12 sampled frames and then returns *suppressed*
// (its crop matches the pre-occlusion frame — a parked car the camera loses
// behind a truck). Only checkpoint-time eviction distinguishes the persistent
// run from the volatile one, so the eviction gap decides whether the returning
// suppressed detection still finds its reuse-map entry.
class ScriptedStreamRun : public video::StreamRun {
 public:
  ScriptedStreamRun(const video::StreamRun& shape,
                    std::vector<std::vector<video::Detection>> frames)
      : StreamRun(shape), frames_(std::move(frames)) {}

  video::SweepStats ForEachFrame(const FrameCallback& callback) const override {
    video::SweepStats stats;
    for (size_t f = 0; f < frames_.size(); ++f) {
      ++stats.total_frames;
      if (!frames_[f].empty()) {
        ++stats.frames_with_moving_objects;
      }
      stats.total_detections += static_cast<int64_t>(frames_[f].size());
      for (const video::Detection& d : frames_[f]) {
        if (d.pixel_diff_suppressed) {
          ++stats.suppressed_detections;
        }
      }
      callback(static_cast<common::FrameIndex>(f), frames_[f]);
    }
    return stats;
  }

 private:
  std::vector<std::vector<video::Detection>> frames_;
};

TEST_F(ChaosIngestTest, ReuseEvictGapKnobControlsOcclusionSurvival) {
  video::ClassCatalog catalog(23);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));

  // A real detection supplies a valid class + appearance vector; the script
  // only rewrites identity, timing, and suppression flags.
  video::StreamRun donor(&catalog, profile, 20.0, 10.0, 11);
  video::Detection proto;
  bool have_proto = false;
  donor.ForEachFrame([&](common::FrameIndex, const std::vector<video::Detection>& dets) {
    if (!have_proto && !dets.empty()) {
      proto = dets.front();
      have_proto = true;
    }
  });
  ASSERT_TRUE(have_proto);

  const auto det = [&](common::FrameIndex frame, common::ObjectId id, bool first,
                       bool suppressed) {
    video::Detection d = proto;
    d.frame = frame;
    d.object_id = id;
    d.first_observation = first;
    d.pixel_diff_suppressed = suppressed;
    return d;
  };
  // 20 sampled frames. Anchor object 9001 is present in all of them; object
  // 9002 is present in frames 0-2, occluded through frame 14, and returns
  // suppressed for frames 15-19.
  std::vector<std::vector<video::Detection>> frames(20);
  for (int f = 0; f < 20; ++f) {
    frames[f].push_back(det(f, 9001, f == 0, f > 0));
  }
  for (int f = 0; f < 3; ++f) {
    frames[f].push_back(det(f, 9002, f == 0, f > 0));
  }
  for (int f = 15; f < 20; ++f) {
    frames[f].push_back(det(f, 9002, false, true));
  }
  video::StreamRun shape(&catalog, profile, 2.0, 10.0, 11);  // 20 frames @ 10 fps.
  ScriptedStreamRun run(shape, std::move(frames));

  const core::IngestParams params = CheapParams();
  cnn::Cnn cheap(params.model, &catalog);
  // Volatile reference: reuse maps are never evicted, so the returning
  // suppressed detections of 9002 all reuse the frame-2 classification.
  const core::IngestResult reference = core::RunIngest(run, cheap, params);

  // Checkpoints land on frames 3, 7, 11, 15, 19. At the frame-11 checkpoint
  // object 9002 has been idle 9 frames: the default gap of 8 evicts it, so its
  // frame-15 return is re-classified — the persistent run diverges from the
  // volatile one in its CNN accounting.
  core::IngestOptions tight;
  tight.persist_dir = (dir_ / "gap8").string();
  tight.checkpoint_every_frames = 4;
  tight.reuse_evict_gap_frames = 8;
  const core::IngestResult evicted = core::RunIngest(run, cheap, params, tight);
  EXPECT_EQ(evicted.detections, reference.detections);
  EXPECT_EQ(evicted.cnn_invocations, reference.cnn_invocations + 1);
  EXPECT_EQ(evicted.suppressed, reference.suppressed - 1);

  // A gap covering the occlusion (16 > 12 idle frames at every checkpoint)
  // keeps the entry, and the persistent run is byte-identical to the volatile
  // one — the regression this knob exists to make fixable per deployment.
  core::IngestOptions wide;
  wide.persist_dir = (dir_ / "gap16").string();
  wide.checkpoint_every_frames = 4;
  wide.reuse_evict_gap_frames = 16;
  const core::IngestResult kept = core::RunIngest(run, cheap, params, wide);
  ExpectSameResult(kept, reference);
}

// --- The per-site fire-point sweep ---
//
// Arm an empty plan, run a clean persistent ingest once to learn how often
// each storage site is reached, then re-run with FireOnHit(site, n) across the
// hit range. Every faulted run must either converge in place (absorbed by a
// retry) or fail typed-and-retryable and converge after supervised restarts —
// and the converged result must match the no-fault run exactly.
TEST_F(ChaosIngestTest, StorageFaultSweepConvergesByteIdentical) {
  video::ClassCatalog catalog(21);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  video::StreamRun run(&catalog, profile, 8.0, 10.0, 13);
  const core::IngestParams params = CheapParams();
  cnn::Cnn cheap(params.model, &catalog);

  core::IngestOptions base;
  base.checkpoint_every_frames = 16;
  // One commit attempt, no in-place absorption: every injected storage fault
  // must surface to the supervisor, which is the path under test.
  base.checkpoint_retry.max_attempts = 1;

  // No-fault reference through the same persistent configuration.
  core::IngestOptions clean = base;
  clean.persist_dir = (dir_ / "clean").string();
  auto reference = core::RunIngestChecked(run, cheap, params, clean);
  ASSERT_TRUE(reference.ok()) << reference.error().message;

  // Counting pass: an empty armed plan records per-site hit counts.
  const std::vector<std::string> kSites = {
      "record_log.append", "arena.commit.msync", "arena.header_write",
      "arena.truncate",    "snapshot.write",     "snapshot.rename"};
  std::map<std::string, int64_t> hits;
  {
    common::FaultPlan count_plan;
    common::ScopedFaultPlan armed(&count_plan);
    core::IngestOptions counting = base;
    counting.persist_dir = (dir_ / "count").string();
    auto counted = core::RunIngestChecked(run, cheap, params, counting);
    ASSERT_TRUE(counted.ok()) << counted.error().message;
    for (const std::string& site : kSites) {
      hits[site] = count_plan.HitCount(site);
      EXPECT_EQ(count_plan.FireCount(site), 0);
    }
  }

  int fire_points = 0;
  for (const std::string& site : kSites) {
    const int64_t site_hits = hits[site];
    ASSERT_GT(site_hits, 0) << site << " never reached — dead injection site";
    const int64_t stride = std::max<int64_t>(1, site_hits / 5);
    for (int64_t n = 1; n <= site_hits; n += stride) {
      SCOPED_TRACE(site + " hit " + std::to_string(n) + "/" + std::to_string(site_hits));
      common::FaultPlan plan;
      plan.FireOnHit(site, n);
      common::ScopedFaultPlan armed(&plan);

      core::IngestOptions opts = base;
      opts.persist_dir =
          (dir_ / (site + "." + std::to_string(n))).string();
      bool converged = false;
      for (int attempt = 0; attempt < 6 && !converged; ++attempt) {
        auto outcome = core::RunIngestChecked(run, cheap, params, opts);
        if (outcome.ok()) {
          ExpectSameResult(*outcome, *reference);
          converged = true;
          break;
        }
        // The never-crash contract: a fault surfaces as a typed retryable
        // error, and a restarted worker recovers from the checkpoint.
        EXPECT_TRUE(common::IsRetryable(outcome.error().code))
            << common::ErrorCodeName(outcome.error().code) << ": "
            << outcome.error().message;
      }
      EXPECT_TRUE(converged) << "did not converge within the restart budget";
      ++fire_points;
    }
  }
  EXPECT_GE(fire_points, static_cast<int>(kSites.size()));
}

// A persistent failure (dead disk under the checkpoint msync) exhausts the
// restart budget and stays a typed error — the process never crashes and never
// reports a bogus success.
TEST_F(ChaosIngestTest, StickyStorageFaultStaysTypedError) {
  video::ClassCatalog catalog(21);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  video::StreamRun run(&catalog, profile, 6.0, 10.0, 17);
  const core::IngestParams params = CheapParams();
  cnn::Cnn cheap(params.model, &catalog);

  common::FaultPlan plan;
  plan.FireAlwaysFrom("arena.commit.msync", 1);
  common::ScopedFaultPlan armed(&plan);

  core::IngestOptions opts;
  opts.persist_dir = (dir_ / "sticky").string();
  opts.checkpoint_every_frames = 16;
  opts.checkpoint_retry.max_attempts = 1;
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto outcome = core::RunIngestChecked(run, cheap, params, opts);
    ASSERT_FALSE(outcome.ok()) << "succeeded under a dead disk";
    EXPECT_TRUE(common::IsRetryable(outcome.error().code));
    EXPECT_FALSE(outcome.error().message.empty());
  }
  EXPECT_GT(plan.FireCount("arena.commit.msync"), 0);
}

// The default checkpoint_retry policy absorbs a transient commit failure in
// place: the run succeeds on its first supervision attempt and matches the
// no-fault result.
TEST_F(ChaosIngestTest, DefaultRetryPolicyAbsorbsTransientCommitFault) {
  video::ClassCatalog catalog(21);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  video::StreamRun run(&catalog, profile, 8.0, 10.0, 13);
  const core::IngestParams params = CheapParams();
  cnn::Cnn cheap(params.model, &catalog);

  core::IngestOptions clean;
  clean.persist_dir = (dir_ / "clean").string();
  clean.checkpoint_every_frames = 16;
  auto reference = core::RunIngestChecked(run, cheap, params, clean);
  ASSERT_TRUE(reference.ok());

  common::FaultPlan plan;
  plan.FireOnHit("arena.commit.msync", 2);
  common::ScopedFaultPlan armed(&plan);
  core::IngestOptions opts = clean;
  opts.persist_dir = (dir_ / "faulted").string();
  auto outcome = core::RunIngestChecked(run, cheap, params, opts);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  EXPECT_EQ(plan.FireCount("arena.commit.msync"), 1);
  ExpectSameResult(*outcome, *reference);
}

// --- IngestService worker supervision ---

TEST_F(ChaosIngestTest, SupervisorRestartsFlakyWorkerWithinBudget) {
  video::ClassCatalog catalog(21);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  video::StreamRun run(&catalog, profile, 20.0, 10.0, 5);
  const core::IngestParams params = CheapParams();
  cnn::Cnn cheap(params.model, &catalog);
  const core::IngestResult reference = core::RunIngest(run, cheap, params);

  video::FlakyStreamOptions flaky_options;
  flaky_options.restart_at_frames = {50};  // Attempt 0 aborts; attempt 1 is clean.
  video::FlakyStreamRun flaky(run, flaky_options);

  runtime::IngestServiceOptions service_options;
  service_options.num_worker_threads = 1;
  service_options.max_worker_restarts = 3;
  service_options.persist_dir = (dir_ / "fleet").string();
  runtime::MetricsRegistry metrics;
  runtime::IngestService service(service_options, &metrics);
  runtime::IngestJob job;
  job.name = "cam";
  job.run = &flaky;
  job.params = params;
  service.AddStream(job);
  const runtime::FleetIngestSummary summary = service.RunAll();

  ASSERT_EQ(summary.reports.size(), 1u);
  const runtime::IngestReport& report = summary.reports[0];
  EXPECT_EQ(report.health.state, runtime::StreamState::kHealthy);
  EXPECT_EQ(report.health.restarts, 1);
  EXPECT_EQ(report.health.consecutive_failures, 0);  // Reset on success.
  EXPECT_FALSE(report.error.has_value());
  ExpectSameResult(report.result, reference);
  EXPECT_EQ(metrics.counter("ingest.worker_restarts"), 1);
  EXPECT_EQ(metrics.counter("ingest.streams_down"), 0);
}

TEST_F(ChaosIngestTest, ExhaustedRestartBudgetMarksStreamDown) {
  video::ClassCatalog catalog(21);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  video::StreamRun run(&catalog, profile, 20.0, 10.0, 5);

  video::FlakyStreamOptions flaky_options;
  flaky_options.restart_at_frames = {30, 30, 30, 30};  // Outlasts the budget.
  video::FlakyStreamRun flaky(run, flaky_options);

  runtime::IngestServiceOptions service_options;
  service_options.num_worker_threads = 1;
  service_options.max_worker_restarts = 2;
  runtime::MetricsRegistry metrics;
  runtime::IngestService service(service_options, &metrics);
  runtime::IngestJob job;
  job.name = "cam";
  job.run = &flaky;
  job.params = CheapParams();
  service.AddStream(job);
  const runtime::FleetIngestSummary summary = service.RunAll();

  ASSERT_EQ(summary.reports.size(), 1u);
  const runtime::IngestReport& report = summary.reports[0];
  EXPECT_EQ(report.health.state, runtime::StreamState::kDown);
  EXPECT_EQ(report.health.restarts, 2);
  EXPECT_EQ(report.health.consecutive_failures, 3);  // Initial try + 2 restarts.
  ASSERT_TRUE(report.error.has_value());
  EXPECT_TRUE(common::IsRetryable(report.error->code));
  EXPECT_EQ(report.result.detections, 0);  // No bogus partial result.
  EXPECT_EQ(metrics.counter("ingest.streams_down"), 1);
  EXPECT_EQ(service.Health("cam").state, runtime::StreamState::kDown);
  EXPECT_EQ(service.FleetHealth().count("cam"), 1u);
}

// A checkpoint from an older sharded.meta version is well-formed but
// unusable: recovery refuses it with a non-retryable FailedPrecondition naming
// both versions, so the supervisor marks the stream Down at once instead of
// burning its restart budget re-reading the same file.
TEST_F(ChaosIngestTest, OldShardedMetaVersionIsRefusedWithoutRestarts) {
  // A v2 header (version, shard count, then the since-removed merge-mode
  // echo) sealed with a valid CRC.
  auto write_v2_meta = [](const fs::path& stream_dir) {
    fs::create_directories(stream_dir);
    storage::Encoder enc;
    enc.PutU32(2);
    enc.PutVarint(1);
    enc.PutSignedVarint(8192);
    enc.PutDouble(0.5);
    enc.PutU32(0);
    enc.PutU32(storage::Crc32(enc.bytes()));
    ASSERT_TRUE(
        storage::WriteFileAtomic((stream_dir / "sharded.meta").string(), enc.bytes()).ok());
  };

  write_v2_meta(dir_ / "direct");
  cluster::ShardedClusterer clusterer;
  auto recovery = clusterer.OpenOrRecover((dir_ / "direct").string());
  ASSERT_FALSE(recovery.ok());
  EXPECT_EQ(recovery.error().code, common::ErrorCode::kFailedPrecondition);
  EXPECT_NE(recovery.error().message.find("version 2"), std::string::npos)
      << recovery.error().message;
  EXPECT_NE(recovery.error().message.find("version 3"), std::string::npos)
      << recovery.error().message;

  video::ClassCatalog catalog(21);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  video::StreamRun run(&catalog, profile, 6.0, 10.0, 5);
  runtime::IngestServiceOptions service_options;
  service_options.num_worker_threads = 1;
  service_options.max_worker_restarts = 3;
  service_options.persist_dir = (dir_ / "fleet").string();
  write_v2_meta(dir_ / "fleet" / "cam");
  runtime::MetricsRegistry metrics;
  runtime::IngestService service(service_options, &metrics);
  runtime::IngestJob job;
  job.name = "cam";
  job.run = &run;
  job.params = CheapParams();
  service.AddStream(job);
  const runtime::FleetIngestSummary summary = service.RunAll();

  ASSERT_EQ(summary.reports.size(), 1u);
  const runtime::IngestReport& report = summary.reports[0];
  EXPECT_EQ(report.health.state, runtime::StreamState::kDown);
  EXPECT_EQ(report.health.restarts, 0);
  EXPECT_EQ(report.health.consecutive_failures, 1);
  ASSERT_TRUE(report.error.has_value());
  EXPECT_EQ(report.error->code, common::ErrorCode::kFailedPrecondition);
  EXPECT_EQ(metrics.counter("ingest.worker_restarts"), 0);
  EXPECT_EQ(metrics.counter("ingest.streams_down"), 1);
}

// --- Degraded-mode serving through the query server ---

TEST_F(ChaosIngestTest, ServerServesStaleSnapshotsAndHealthForDownStreams) {
  video::ClassCatalog catalog(29);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  video::StreamRun run(&catalog, profile, 20.0, 10.0, 7);

  // "gate" publishes its epoch-1 snapshot (watermark 32) on every attempt,
  // then dies at frame 40; the budget of 1 restart leaves it Down with a
  // last-good snapshot. "dead" dies at frame 5 — before any epoch — with no
  // restart budget at all.
  video::FlakyStreamOptions gate_faults;
  gate_faults.restart_at_frames = {40, 40, 40, 40};
  video::FlakyStreamRun gate(run, gate_faults);
  video::FlakyStreamOptions dead_faults;
  dead_faults.restart_at_frames = {5, 5};
  video::FlakyStreamRun dead(run, dead_faults);

  runtime::IngestServiceOptions service_options;
  service_options.num_worker_threads = 1;
  service_options.max_worker_restarts = 1;
  service_options.finalize_every_frames = 32;
  runtime::MetricsRegistry metrics;
  runtime::IngestService service(service_options, &metrics);
  runtime::IngestJob job;
  job.name = "gate";
  job.run = &gate;
  job.params = CheapParams();
  service.AddStream(job);
  job.name = "dead";
  job.run = &dead;
  service.AddStream(job);
  service.RunAll();

  ASSERT_NE(service.LatestSnapshot("gate"), nullptr);
  EXPECT_EQ(service.LatestSnapshot("dead"), nullptr);
  EXPECT_EQ(service.Health("gate").state, runtime::StreamState::kDown);

  core::FocusFleet fleet;  // Empty: both cameras resolve through the service.
  server::QueryServer server(&fleet, &catalog, &metrics, {}, &service);
  const std::string cls = catalog.Name(run.present_classes().front());

  // A down stream with a published epoch answers STALE from its last-good
  // snapshot instead of erroring.
  const std::string stale = server.HandleLine("QUERY gate " + cls);
  ASSERT_EQ(stale.rfind("OK STALE EPOCH ", 0), 0u) << stale;
  EXPECT_NE(stale.find("WATERMARK 32"), std::string::npos) << stale;
  EXPECT_EQ(metrics.counter("server.stale_queries"), 1);

  // A down stream with nothing published errs Unavailable — typed, not a crash
  // and not an empty "OK".
  const std::string down = server.HandleLine("QUERY dead " + cls);
  EXPECT_EQ(down.rfind("ERR Unavailable", 0), 0u) << down;

  // HEALTH: per-stream and fleet listings.
  const std::string gate_health = server.HandleLine("HEALTH gate");
  EXPECT_EQ(gate_health.rfind("OK gate STATE Down", 0), 0u) << gate_health;
  EXPECT_NE(gate_health.find("RESTARTS 1"), std::string::npos) << gate_health;
  EXPECT_NE(gate_health.find("EPOCH "), std::string::npos) << gate_health;
  EXPECT_NE(gate_health.find(" LAST "), std::string::npos) << gate_health;

  const std::string fleet_health = server.HandleLine("HEALTH");
  EXPECT_EQ(fleet_health.rfind("OK 2\n", 0), 0u) << fleet_health;
  EXPECT_NE(fleet_health.find("gate STATE Down"), std::string::npos) << fleet_health;
  EXPECT_NE(fleet_health.find("dead STATE Down"), std::string::npos) << fleet_health;

  EXPECT_EQ(server.HandleLine("HEALTH nowhere").rfind("ERR NotFound", 0), 0u);
}

// --- FleetQueryService GT-CNN launch retry ---

TEST_F(ChaosIngestTest, GpuLaunchFaultsRetryOrSurfaceTypedError) {
  video::ClassCatalog catalog(21);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  video::StreamRun run(&catalog, profile, 120.0, 30.0, 5);
  core::FocusOptions focus_options;
  auto focus_or = core::FocusStream::Build(&run, &catalog, focus_options);
  ASSERT_TRUE(focus_or.ok()) << focus_or.error().message;
  const core::FocusStream& focus = **focus_or;

  cnn::SegmentGroundTruth truth(run, focus.gt_cnn());
  const std::vector<common::ClassId> dominant = truth.DominantClasses(0.95, 1);
  ASSERT_FALSE(dominant.empty());
  runtime::FleetQueryRequest request;
  request.camera = "auburn_c";
  request.query.stream = &focus;
  request.query.cls = dominant[0];

  const runtime::QueryServiceOptions qopts{.num_gpus = 2, .batch_size = 8};
  runtime::FleetQueryService reference_service(qopts);
  const runtime::QueryExecution reference = reference_service.Execute(request);
  ASSERT_FALSE(reference.error.has_value());
  ASSERT_GT(reference_service.stats().launches, 0);

  {
    // One failed launch: the retry policy re-submits and the answer is
    // byte-identical to the no-fault execution.
    common::FaultPlan plan;
    plan.FireOnHit("gpu.launch", 1);
    common::ScopedFaultPlan armed(&plan);
    runtime::FleetQueryService service(qopts);
    const runtime::QueryExecution execution = service.Execute(request);
    EXPECT_FALSE(execution.error.has_value());
    EXPECT_EQ(execution.result.frame_runs, reference.result.frame_runs);
    EXPECT_EQ(execution.result.frames_returned, reference.result.frames_returned);
    EXPECT_GE(service.stats().launch_retries, 1);
    EXPECT_EQ(service.stats().launches_failed, 0);
  }
  {
    // A timeout burns the launch's full device cost, then the retry recovers.
    common::FaultPlan plan;
    plan.FireOnHit("gpu.timeout", 1);
    common::ScopedFaultPlan armed(&plan);
    runtime::FleetQueryService service(qopts);
    const runtime::QueryExecution execution = service.Execute(request);
    EXPECT_FALSE(execution.error.has_value());
    EXPECT_EQ(execution.result.frame_runs, reference.result.frame_runs);
    EXPECT_GT(service.stats().wasted_gpu_millis, 0.0);
  }
  {
    // A wedged GPU exhausts the retry budget: the execution carries a typed
    // error and an empty (non-authoritative) result, never a partial answer.
    common::FaultPlan plan;
    plan.FireAlwaysFrom("gpu.launch", 1);
    common::ScopedFaultPlan armed(&plan);
    runtime::FleetQueryService service(qopts);
    const runtime::QueryExecution execution = service.Execute(request);
    ASSERT_TRUE(execution.error.has_value());
    EXPECT_EQ(execution.error->code, common::ErrorCode::kUnavailable);
    EXPECT_EQ(execution.result.frames_returned, 0);
    EXPECT_GE(service.stats().launches_failed, 1);
  }
}

}  // namespace
}  // namespace focus
