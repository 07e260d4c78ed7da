// FlakyStreamRun semantics and the camera-flap convergence property (S3,
// docs/robustness.md): a stream whose delivery restarts mid-recording at
// random frames, ingested through the supervised checkpoint-resuming path,
// must converge to a result byte-identical to the uninterrupted run — the
// restarts change *when* frames arrive, never *what* the recording contains.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "src/cnn/model_zoo.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/core/ingest_pipeline.h"
#include "src/video/flaky_stream.h"
#include "src/video/stream_generator.h"

namespace focus::video {
namespace {

namespace fs = std::filesystem;

class FlakyStreamTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new ClassCatalog(23);
    StreamProfile profile;
    ASSERT_TRUE(FindProfile("auburn_c", &profile));
    base_ = new StreamRun(catalog_, profile, 20.0, 10.0, 11);
  }
  static void TearDownTestSuite() {
    delete base_;
    delete catalog_;
    base_ = nullptr;
    catalog_ = nullptr;
  }

  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("flaky_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static ClassCatalog* catalog_;
  static StreamRun* base_;
  fs::path dir_;
};

ClassCatalog* FlakyStreamTest::catalog_ = nullptr;
StreamRun* FlakyStreamTest::base_ = nullptr;

// One delivered frame: index plus detection count, enough to fingerprint a
// delivery sequence exactly.
std::vector<std::pair<common::FrameIndex, size_t>> Delivered(const StreamRun& run) {
  std::vector<std::pair<common::FrameIndex, size_t>> frames;
  run.ForEachFrame([&](common::FrameIndex frame, const std::vector<Detection>& dets) {
    frames.emplace_back(frame, dets.size());
  });
  return frames;
}

TEST_F(FlakyStreamTest, RestartAbortsAttemptThenRunsClean) {
  FlakyStreamOptions options;
  options.restart_at_frames = {50};
  FlakyStreamRun flaky(*base_, options);

  std::vector<common::FrameIndex> first;
  SweepStats aborted = flaky.ForEachFrame(
      [&](common::FrameIndex frame, const std::vector<Detection>&) { first.push_back(frame); });
  EXPECT_TRUE(aborted.aborted);
  ASSERT_FALSE(first.empty());
  EXPECT_LT(first.back(), 50);  // Nothing at or past the cut.

  // Attempt 1 is beyond the restart list: clean, full delivery.
  SweepStats clean = flaky.ForEachFrame(
      [](common::FrameIndex, const std::vector<Detection>&) {});
  EXPECT_FALSE(clean.aborted);
  EXPECT_EQ(clean.total_frames, base_->num_frames());
  EXPECT_EQ(flaky.attempts(), 2);
}

TEST_F(FlakyStreamTest, RestartsOnlyModeLeavesContentUntouched) {
  FlakyStreamOptions options;
  options.restart_at_frames = {};  // No faults at all.
  FlakyStreamRun flaky(*base_, options);
  EXPECT_EQ(Delivered(flaky), Delivered(*base_));
}

TEST_F(FlakyStreamTest, ContentFaultsAreDeterministicPerAttempt) {
  FlakyStreamOptions options;
  options.drop_probability = 0.2;
  options.duplicate_probability = 0.1;
  options.flap_probability = 0.02;
  options.flap_length_frames = 7;
  options.seed = 99;
  // Two decorators over the same base with the same seed: attempt k of one
  // matches attempt k of the other frame for frame.
  FlakyStreamRun a(*base_, options);
  FlakyStreamRun b(*base_, options);
  EXPECT_EQ(Delivered(a), Delivered(b));  // Attempt 0 vs attempt 0.
  const auto a1 = Delivered(a);
  EXPECT_EQ(a1, Delivered(b));  // Attempt 1 vs attempt 1.
  // A dropping stream delivers strictly less than the recording (with
  // p = 0.2 over 200 frames, all-delivered has probability ~1e-20).
  EXPECT_LT(Delivered(a).size(), static_cast<size_t>(base_->num_frames()));
}

// The S3 property: random mid-recording restarts, supervised resumable ingest,
// byte-identical convergence. Each trial draws 1-3 restart frames from the
// trial seed, runs the checkpoint-resuming pipeline until it succeeds (every
// aborted attempt surfaces as a typed retryable error, never a crash), and
// compares against the uninterrupted volatile run.
TEST_F(FlakyStreamTest, RandomRestartsConvergeByteIdenticalUnderSupervision) {
  core::IngestParams params;
  params.model = cnn::GenericCheapCandidates(5)[1];
  params.k = 8;
  params.cluster_threshold = 0.5;
  cnn::Cnn cheap(params.model, catalog_);

  const core::IngestResult reference = core::RunIngest(*base_, cheap, params);

  for (uint64_t trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    common::Pcg32 rng(common::DeriveSeed(0xF1A4, trial));
    FlakyStreamOptions options;
    const int restarts = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < restarts; ++i) {
      options.restart_at_frames.push_back(static_cast<common::FrameIndex>(
          1 + rng.NextBounded(static_cast<uint32_t>(base_->num_frames() - 1))));
    }
    FlakyStreamRun flaky(*base_, options);

    core::IngestOptions opts;
    opts.persist_dir = (dir_ / ("trial" + std::to_string(trial))).string();
    opts.checkpoint_every_frames = 16;

    core::IngestResult converged;
    bool ok = false;
    for (int attempt = 0; attempt <= restarts; ++attempt) {
      auto outcome = core::RunIngestChecked(flaky, cheap, params, opts);
      if (outcome.ok()) {
        converged = *std::move(outcome);
        ok = true;
        break;
      }
      ASSERT_TRUE(common::IsRetryable(outcome.error().code)) << outcome.error().message;
    }
    ASSERT_TRUE(ok) << "never converged within the restart budget";

    // Byte-identity with the uninterrupted run: counters cover the whole
    // stream and the final index is identical entry for entry.
    EXPECT_EQ(converged.detections, reference.detections);
    EXPECT_EQ(converged.cnn_invocations, reference.cnn_invocations);
    EXPECT_EQ(converged.suppressed, reference.suppressed);
    EXPECT_DOUBLE_EQ(converged.gpu_millis, reference.gpu_millis);
    ASSERT_EQ(converged.index.num_clusters(), reference.index.num_clusters());
    EXPECT_TRUE(converged.index.image() == reference.index.image()) << "index images differ";
  }
}

}  // namespace
}  // namespace focus::video
