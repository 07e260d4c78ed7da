// End-to-end integration tests: FocusStream over full simulated recordings, checking
// the paper's headline claims hold qualitatively (accuracy targets met, order-of-
// magnitude cheaper ingest than Ingest-all, order-of-magnitude faster queries than
// Query-all), plus tuner behaviour and index persistence round-trips.
#include <gtest/gtest.h>

#include <filesystem>

#include "src/baseline/baselines.h"
#include "src/cnn/ground_truth.h"
#include "src/core/focus_stream.h"
#include "src/storage/index_file.h"
#include "src/video/stream_generator.h"

namespace focus::core {
namespace {

constexpr uint64_t kSeed = 42;

class FocusE2eTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new video::ClassCatalog(kSeed);
    video::StreamProfile profile;
    ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
    run_ = new video::StreamRun(catalog_, profile, 600.0, 30.0, 7);
    FocusOptions options;
    auto built = FocusStream::Build(run_, catalog_, options);
    ASSERT_TRUE(built.ok()) << built.error().message;
    focus_ = built.value().release();
    truth_ = new cnn::SegmentGroundTruth(*run_, focus_->gt_cnn());
  }

  static void TearDownTestSuite() {
    delete truth_;
    delete focus_;
    delete run_;
    delete catalog_;
    truth_ = nullptr;
    focus_ = nullptr;
    run_ = nullptr;
    catalog_ = nullptr;
  }

  static video::ClassCatalog* catalog_;
  static video::StreamRun* run_;
  static FocusStream* focus_;
  static cnn::SegmentGroundTruth* truth_;
};

video::ClassCatalog* FocusE2eTest::catalog_ = nullptr;
video::StreamRun* FocusE2eTest::run_ = nullptr;
FocusStream* FocusE2eTest::focus_ = nullptr;
cnn::SegmentGroundTruth* FocusE2eTest::truth_ = nullptr;

TEST_F(FocusE2eTest, TunerPicksViableSpecializedConfig) {
  const TuningResult& tuning = focus_->tuning();
  ASSERT_TRUE(tuning.found);
  EXPECT_FALSE(tuning.viable_indices.empty());
  EXPECT_FALSE(tuning.pareto_indices.empty());
  // A busy traffic stream should end up on a specialized model with small K (§4.3).
  EXPECT_TRUE(focus_->chosen_params().model.specialized());
  EXPECT_LE(focus_->chosen_params().k, 16);
}

TEST_F(FocusE2eTest, MeetsAccuracyTargetsOnDominantClasses) {
  AccuracyEvaluator evaluator(truth_, run_->fps());
  std::vector<common::ClassId> dominant = truth_->DominantClasses(0.95, 10);
  ASSERT_FALSE(dominant.empty());
  double sum_p = 0.0;
  double sum_r = 0.0;
  for (common::ClassId cls : dominant) {
    PrecisionRecall pr = evaluator.Evaluate(cls, focus_->Query(cls));
    sum_p += pr.precision;
    sum_r += pr.recall;
  }
  // Targets are enforced on the tuning sample; the full run may wobble slightly, so
  // allow a small generalization slack below the 0.95 targets.
  EXPECT_GE(sum_p / dominant.size(), 0.93);
  EXPECT_GE(sum_r / dominant.size(), 0.93);
}

TEST_F(FocusE2eTest, IngestFarCheaperThanIngestAll) {
  double ingest_all = static_cast<double>(focus_->ingest().detections) *
                      focus_->gt_cnn().inference_cost_millis();
  ASSERT_GT(focus_->ingest().gpu_millis, 0.0);
  // Paper: 43x-98x. Require at least an order of magnitude here.
  EXPECT_GT(ingest_all / focus_->ingest().gpu_millis, 10.0);
}

TEST_F(FocusE2eTest, QueriesFarFasterThanQueryAll) {
  std::vector<common::ClassId> dominant = truth_->DominantClasses(0.95, 10);
  ASSERT_FALSE(dominant.empty());
  double query_all = static_cast<double>(focus_->ingest().detections) *
                     focus_->gt_cnn().inference_cost_millis();
  double total = 0.0;
  for (common::ClassId cls : dominant) {
    total += focus_->Query(cls).gpu_millis;
  }
  double mean = total / static_cast<double>(dominant.size());
  ASSERT_GT(mean, 0.0);
  // Paper: 11x-57x. Require at least an order of magnitude.
  EXPECT_GT(query_all / mean, 10.0);
}

TEST_F(FocusE2eTest, DynamicKxTradesRecallForLatency) {
  std::vector<common::ClassId> dominant = truth_->DominantClasses(0.5, 1);
  ASSERT_FALSE(dominant.empty());
  QueryResult narrow = focus_->Query(dominant[0], 1);
  QueryResult wide = focus_->Query(dominant[0], focus_->chosen_params().k);
  EXPECT_LE(narrow.centroids_classified, wide.centroids_classified);
  EXPECT_LE(narrow.frames_returned, wide.frames_returned);
}

TEST_F(FocusE2eTest, IndexRoundTripsThroughIndexFileAndAnswersIdentically) {
  std::vector<common::ClassId> dominant = truth_->DominantClasses(0.5, 1);
  ASSERT_FALSE(dominant.empty());

  const std::string path =
      (std::filesystem::temp_directory_path() / "focus_e2e_test_index.idx").string();
  storage::IndexFileMeta meta;
  meta.stream_name = "e2e";
  meta.model = focus_->chosen_params().model;
  ASSERT_TRUE(storage::WriteIndexFile(path, meta, focus_->ingest().index).ok());
  auto reloaded = storage::ReadIndexFile(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().message;
  EXPECT_EQ(reloaded->index.image(), focus_->ingest().index.image());

  QueryEngine original(&focus_->ingest().index, &focus_->ingest_cnn(), &focus_->gt_cnn());
  QueryEngine restored(&reloaded->index, &focus_->ingest_cnn(), &focus_->gt_cnn());
  QueryResult a = original.Query(dominant[0], -1, {}, run_->fps());
  QueryResult b = restored.Query(dominant[0], -1, {}, run_->fps());
  EXPECT_EQ(a.frame_runs, b.frame_runs);
  EXPECT_EQ(a.centroids_classified, b.centroids_classified);
}

TEST_F(FocusE2eTest, OtherClassQueriesWork) {
  // Find a class outside the specialized model's Ls set that truly occurs.
  const cnn::ModelDesc& model = focus_->chosen_params().model;
  ASSERT_TRUE(model.specialized());
  common::ClassId rare = common::kInvalidClass;
  for (const auto& [cls, segments] : truth_->segments_per_class()) {
    bool in_model = std::find(model.classes.begin(), model.classes.end(), cls) !=
                    model.classes.end();
    if (!in_model && segments >= 3) {
      rare = cls;
      break;
    }
  }
  if (rare == common::kInvalidClass) {
    GTEST_SKIP() << "no OTHER-class candidates in this run";
  }
  QueryResult qr = focus_->Query(rare);
  // OTHER-class queries inspect the OTHER postings and can return genuine results.
  EXPECT_GT(qr.centroids_classified, 0);
}

TEST_F(FocusE2eTest, DeterministicAcrossRebuilds) {
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  video::StreamRun run_b(catalog_, profile, 600.0, 30.0, 7);
  FocusOptions options;
  auto rebuilt = FocusStream::Build(&run_b, catalog_, options);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ((*rebuilt)->chosen_params().model.name, focus_->chosen_params().model.name);
  EXPECT_EQ((*rebuilt)->chosen_params().k, focus_->chosen_params().k);
  EXPECT_EQ((*rebuilt)->ingest().num_clusters, focus_->ingest().num_clusters);
  EXPECT_DOUBLE_EQ((*rebuilt)->ingest().gpu_millis, focus_->ingest().gpu_millis);
}

}  // namespace
}  // namespace focus::core
