// The two-stage live ingest of RunIngestChecked (src/core/ingest_pipeline.h):
// the detection stage (frame sweep + cheap CNN) runs on its own thread ahead
// of the engine (clustering, snapshots, checkpoints) on the calling thread,
// with a bounded ring of frames between them. These cases drive the stop
// paths while frames are in flight — a checkpoint that stays failed, a stream
// that cuts out mid-recording — and pin which thread the engine's consumers
// run on and how the detection stage's thread is scheduled.
#include <gtest/gtest.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cnn/model_zoo.h"
#include "src/common/fault_injection.h"
#include "src/common/result.h"
#include "src/core/ingest_pipeline.h"
#include "src/video/flaky_stream.h"
#include "src/video/stream_generator.h"

namespace focus::core {
namespace {

namespace fs = std::filesystem;

IngestParams CheapParams() {
  IngestParams params;
  params.model = cnn::GenericCheapCandidates(5)[1];
  params.k = 3;
  params.cluster_threshold = 0.6;
  return params;
}

void ExpectSameResult(const IngestResult& a, const IngestResult& b) {
  EXPECT_EQ(a.detections, b.detections);
  EXPECT_EQ(a.cnn_invocations, b.cnn_invocations);
  EXPECT_EQ(a.suppressed, b.suppressed);
  EXPECT_DOUBLE_EQ(a.gpu_millis, b.gpu_millis);
  ASSERT_EQ(a.index.num_clusters(), b.index.num_clusters());
  EXPECT_TRUE(a.index.image() == b.index.image()) << "index images differ";
}

class IngestPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new video::ClassCatalog(29);
    video::StreamProfile profile;
    ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
    // 60 s at 10 fps: 600 sampled frames, more than the frame ring holds.
    run_ = new video::StreamRun(catalog_, profile, 60.0, 10.0, 19);
  }
  static void TearDownTestSuite() {
    delete run_;
    delete catalog_;
    run_ = nullptr;
    catalog_ = nullptr;
  }

  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ingest_pipeline_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static video::ClassCatalog* catalog_;
  static video::StreamRun* run_;
  fs::path dir_;
};

video::ClassCatalog* IngestPipelineTest::catalog_ = nullptr;
video::StreamRun* IngestPipelineTest::run_ = nullptr;

// Counts the frames its sweep has started to deliver, so a test can see the
// detection stage stall on a full frame ring.
class CountingStreamRun : public video::StreamRun {
 public:
  explicit CountingStreamRun(const video::StreamRun& base) : StreamRun(base) {}

  video::SweepStats ForEachFrame(const FrameCallback& callback) const override {
    entered_.store(0);
    return StreamRun::ForEachFrame(
        [&](common::FrameIndex frame, const std::vector<video::Detection>& dets) {
          entered_.fetch_add(1);
          callback(frame, dets);
        });
  }

  int64_t entered() const { return entered_.load(); }

 private:
  mutable std::atomic<int64_t> entered_{0};
};

// A dead disk under the checkpoint msync, hit while the detection stage is
// blocked on a full frame ring. The first epoch and the first checkpoint
// fall on the same frame: the epoch's synchronous sink holds the engine until
// the sweep stops advancing, then the checkpoint fails with no slot freed in
// between, so only the engine's stop can wake the sweep. The call must
// return the typed error instead of hanging. Repeated in one process: no
// thread or ring state leaks between runs, and each run fails at the same
// commit.
TEST_F(IngestPipelineTest, StickyCheckpointFaultReleasesABlockedSweep) {
  const IngestParams params = CheapParams();
  const cnn::Cnn cheap(params.model, catalog_);
  const CountingStreamRun counting(*run_);

  common::FaultPlan plan;
  plan.FireAlwaysFrom("arena.commit.msync", 1);
  common::ScopedFaultPlan armed(&plan);

  int64_t stalled_at = -1;
  IngestOptions opts;
  opts.checkpoint_every_frames = 4;
  opts.checkpoint_retry.max_attempts = 1;
  opts.finalize_every_frames = 4;  // Epoch 1 and the first checkpoint both at frame 3.
  opts.snapshot_sink = [&](std::shared_ptr<const LiveSnapshot> snap) {
    if (snap->epoch != 1) {
      return;
    }
    // Wait until the sweep has not advanced for 50 ms (bounded at 10 s).
    int64_t seen = -1;
    for (int polls = 0; polls < 200 && counting.entered() != seen; ++polls) {
      seen = counting.entered();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    stalled_at = seen;
  };
  int64_t fires_per_run = -1;
  for (int attempt = 0; attempt < 3; ++attempt) {
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    opts.persist_dir = (dir_ / ("sticky" + std::to_string(attempt))).string();
    stalled_at = -1;
    const int64_t fires_before = plan.FireCount("arena.commit.msync");
    const auto start = std::chrono::steady_clock::now();
    auto outcome = RunIngestChecked(counting, cheap, params, opts);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    ASSERT_FALSE(outcome.ok()) << "succeeded under a dead disk";
    EXPECT_TRUE(common::IsRetryable(outcome.error().code)) << outcome.error().message;
    EXPECT_LT(seconds, 60.0);
    // The sweep stalled short of the end of the recording: the ring was full.
    EXPECT_GT(stalled_at, 0);
    EXPECT_LT(stalled_at, run_->num_frames());
    // Released, the sweep ran through the rest of the recording and returned.
    EXPECT_EQ(counting.entered(), run_->num_frames());
    const int64_t fires = plan.FireCount("arena.commit.msync") - fires_before;
    EXPECT_GT(fires, 0);
    if (fires_per_run < 0) {
      fires_per_run = fires;
    }
    // No checkpoint runs after the failed one.
    EXPECT_EQ(fires, fires_per_run);
  }
}

// A synchronous sink that takes a while per epoch keeps the engine behind
// the detection stage, so frames are queued when the stream cuts out.
std::function<void(std::shared_ptr<const LiveSnapshot>)> SlowSink() {
  return [](std::shared_ptr<const LiveSnapshot>) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  };
}

// The stream cuts out while frames are in flight: the engine still consumes
// every frame delivered before the cut (and commits their checkpoints), the
// attempt reports Unavailable, and the restarted attempt resumes from the
// last checkpoint before the cut and converges to the uninterrupted result.
TEST_F(IngestPipelineTest, AbortWithFramesInFlightResumesToTheUninterruptedResult) {
  const IngestParams params = CheapParams();
  const cnn::Cnn cheap(params.model, catalog_);

  IngestOptions opts;
  opts.checkpoint_every_frames = 16;
  opts.finalize_every_frames = 8;
  opts.snapshot_sink = SlowSink();
  opts.persist_dir = (dir_ / "reference").string();
  auto reference = RunIngestChecked(*run_, cheap, params, opts);
  ASSERT_TRUE(reference.ok()) << reference.error().message;

  constexpr common::FrameIndex kCutAt = 500;
  video::FlakyStreamOptions faults;
  faults.restart_at_frames = {kCutAt};
  const video::FlakyStreamRun flaky(*run_, faults);
  opts.persist_dir = (dir_ / "flaky").string();
  auto cut = RunIngestChecked(flaky, cheap, params, opts);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.error().code, common::ErrorCode::kUnavailable) << cut.error().message;

  auto resumed = RunIngestChecked(flaky, cheap, params, opts);
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;
  EXPECT_EQ(resumed->resumed_from_frame, kCutAt / 16 * 16);
  ExpectSameResult(*resumed, *reference);
}

// Records the scheduling policy of the thread its sweep runs on.
class PolicyStreamRun : public video::StreamRun {
 public:
  explicit PolicyStreamRun(const video::StreamRun& base) : StreamRun(base) {}

  video::SweepStats ForEachFrame(const FrameCallback& callback) const override {
    policy_ = sched_getscheduler(0);
    return StreamRun::ForEachFrame(callback);
  }

  int policy() const { return policy_; }

 private:
  mutable int policy_ = -1;  // Read after RunIngestChecked joined the sweep.
};

#ifdef SCHED_BATCH
// The sweep is throughput work: its thread runs SCHED_BATCH, so a paced
// stream's per-frame wakes never preempt a thread serving queries. The
// calling (engine) thread keeps its own policy.
TEST_F(IngestPipelineTest, DetectionStageRunsAsABatchThread) {
  const IngestParams params = CheapParams();
  const cnn::Cnn cheap(params.model, catalog_);
  const PolicyStreamRun recorded(*run_);
  const int caller_policy = sched_getscheduler(0);

  auto outcome = RunIngestChecked(recorded, cheap, params, IngestOptions{});
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  EXPECT_EQ(recorded.policy(), SCHED_BATCH);
  EXPECT_EQ(sched_getscheduler(0), caller_policy);
}
#endif

// The engine stays on the calling thread: a synchronous sink runs there, and
// its epochs equal those of the stored-sample front end over the same run.
// The stored sample carries no empty frames, so it finds a boundary only
// when a later detection crosses it: live ingest may publish trailing epochs
// past the last detection that the replay never reaches, and those add no
// detections.
TEST_F(IngestPipelineTest, SynchronousSinkRunsOnTheCallingThreadWithReplayEpochs) {
  const IngestParams params = CheapParams();
  const cnn::Cnn cheap(params.model, catalog_);

  std::vector<std::shared_ptr<const LiveSnapshot>> live;
  std::vector<std::thread::id> sink_threads;
  IngestOptions opts;
  opts.finalize_every_frames = 24;
  opts.background_publish = false;
  opts.snapshot_sink = [&](std::shared_ptr<const LiveSnapshot> snap) {
    sink_threads.push_back(std::this_thread::get_id());
    live.push_back(std::move(snap));
  };
  auto direct = RunIngestChecked(*run_, cheap, params, opts);
  ASSERT_TRUE(direct.ok()) << direct.error().message;

  std::vector<std::shared_ptr<const LiveSnapshot>> replayed;
  opts.snapshot_sink = [&](std::shared_ptr<const LiveSnapshot> snap) {
    replayed.push_back(std::move(snap));
  };
  const IngestResult replay =
      RunIngestClassified(ClassifySample(*run_, cheap, params.k), params, opts);

  ASSERT_FALSE(live.empty());
  for (const std::thread::id id : sink_threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  ASSERT_FALSE(replayed.empty());
  ASSERT_GE(live.size(), replayed.size());
  for (size_t e = replayed.size(); e < live.size(); ++e) {
    EXPECT_EQ(live[e]->detections, direct->detections) << "epoch " << e + 1;
  }
  for (size_t e = 0; e < replayed.size(); ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e + 1));
    EXPECT_EQ(live[e]->epoch, replayed[e]->epoch);
    EXPECT_EQ(live[e]->watermark, replayed[e]->watermark);
    EXPECT_EQ(live[e]->detections, replayed[e]->detections);
    EXPECT_EQ(live[e]->num_clusters, replayed[e]->num_clusters);
    EXPECT_TRUE(live[e]->index.image() == replayed[e]->index.image()) << "epoch images differ";
  }
  ExpectSameResult(*direct, replay);
}

}  // namespace
}  // namespace focus::core
