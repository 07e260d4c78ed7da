// Unit tests for the Focus core: ingest pipeline, query engine, accuracy evaluator,
// Pareto selection, and policy choice.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "src/cnn/ground_truth.h"
#include "src/cnn/model_zoo.h"
#include "src/core/accuracy_evaluator.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/parameter_tuner.h"
#include "src/core/pareto.h"
#include "src/core/query_engine.h"
#include "src/video/stream_generator.h"

namespace focus::core {
namespace {

constexpr uint64_t kSeed = 42;

class CoreFixture : public ::testing::Test {
 protected:
  CoreFixture() : catalog_(kSeed), gt_(cnn::GtCnnDesc(kSeed), &catalog_) {
    video::StreamProfile profile;
    video::FindProfile("auburn_c", &profile);
    run_ = std::make_unique<video::StreamRun>(&catalog_, profile, 300.0, 30.0, 7);
  }

  IngestParams SpecializedParams(int k, double threshold) {
    cnn::ClassDistributionEstimate est =
        cnn::EstimateClassDistribution(*run_, gt_, 300.0, 5);
    cnn::SpecializationOptions sopts;
    sopts.ls = 20;
    sopts.layers = 15;
    sopts.input_px = 112;
    IngestParams params;
    params.model = cnn::TrainSpecializedModel(est, sopts, 0.5, kSeed);
    params.k = k;
    params.cluster_threshold = threshold;
    params.ls = 20;
    return params;
  }

  video::ClassCatalog catalog_;
  cnn::Cnn gt_;
  std::unique_ptr<video::StreamRun> run_;
};

TEST(MergeFrameRunsTest, MergesOverlapsAndAdjacent) {
  std::vector<std::pair<common::FrameIndex, common::FrameIndex>> runs = {
      {10, 20}, {15, 25}, {26, 30}, {40, 45}};
  auto merged = MergeFrameRuns(runs);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0], (std::pair<common::FrameIndex, common::FrameIndex>{10, 30}));
  EXPECT_EQ(merged[1], (std::pair<common::FrameIndex, common::FrameIndex>{40, 45}));
  EXPECT_TRUE(MergeFrameRuns({}).empty());
}

TEST(FrameBoundsOfRangeTest, AgreesWithContainsFrameBruteForce) {
  // The O(1) arithmetic bounds must admit exactly the frames ContainsFrame
  // admits, including awkward fps/boundary combinations.
  const double fps_values[] = {30.0, 29.97, 24.0, 1.0, 7.5};
  const common::TimeRange ranges[] = {
      {0.0, -1.0},   {0.0, 10.0},  {1.0, 2.0},     {0.5, 0.5},
      {2.0, 1.0},    {3.3, -1.0},  {1.0 / 3.0, 2.0 / 3.0}, {0.0, 0.0},
      {10.0, 10.04}, {0.033, 0.067},
  };
  for (double fps : fps_values) {
    for (const common::TimeRange& range : ranges) {
      const auto [first, last] = FrameBoundsOfRange(range, fps);
      for (common::FrameIndex f = 0; f < 400; ++f) {
        const bool in_bounds = f >= first && f <= last;
        EXPECT_EQ(in_bounds, range.ContainsFrame(f, fps))
            << "fps=" << fps << " begin=" << range.begin_sec << " end=" << range.end_sec
            << " frame=" << f;
      }
    }
  }
}

TEST(FrameBoundsOfRangeTest, OpenEndedRangeIsUnbounded) {
  const auto [first, last] = FrameBoundsOfRange({0.0, -1.0}, 30.0);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(last, std::numeric_limits<common::FrameIndex>::max());
}

TEST(FrameBoundsOfRangeTest, HugeClientRangeValuesDoNotOverflow) {
  // Range values arrive from clients via the query protocol; estimates beyond
  // the representable frame range must clamp instead of overflowing the cast
  // (or spinning in the fix-up loop).
  const double huge = 1e18;
  const double inf = std::numeric_limits<double>::infinity();
  // Unreachable begin: admits nothing.
  for (double begin : {huge, inf}) {
    const auto [first, last] = FrameBoundsOfRange({begin, -1.0}, 30.0);
    EXPECT_GT(first, last) << "begin=" << begin;
  }
  // Unreachable end: effectively open-ended.
  for (double end : {huge, inf}) {
    const auto [first, last] = FrameBoundsOfRange({1.0, end}, 30.0);
    EXPECT_EQ(first, 30) << "end=" << end;
    EXPECT_EQ(last, std::numeric_limits<common::FrameIndex>::max()) << "end=" << end;
  }
}

TEST(ParetoTest, BoundaryExcludesDominatedPoints) {
  std::vector<CostPoint> points = {
      {1.0, 10.0},  // Boundary (cheapest ingest).
      {2.0, 5.0},   // Boundary.
      {3.0, 5.0},   // Dominated by (2,5).
      {4.0, 1.0},   // Boundary (fastest query).
      {5.0, 2.0},   // Dominated by (4,1).
  };
  auto boundary = ParetoBoundary(points);
  EXPECT_EQ(boundary, (std::vector<size_t>{0, 1, 3}));
}

TEST(ParetoTest, SinglePointAndEmpty) {
  EXPECT_TRUE(ParetoBoundary({}).empty());
  EXPECT_EQ(ParetoBoundary({{1.0, 1.0}}), std::vector<size_t>{0});
}

TEST(PolicyTest, ChoosesExtremesAndBalance) {
  std::vector<EvaluatedConfig> configs(3);
  configs[0].ingest_cost_norm = 0.01;
  configs[0].query_latency_norm = 0.5;
  configs[1].ingest_cost_norm = 0.05;
  configs[1].query_latency_norm = 0.05;
  configs[2].ingest_cost_norm = 0.5;
  configs[2].query_latency_norm = 0.01;
  std::vector<size_t> pareto = {0, 1, 2};
  EXPECT_EQ(ChooseByPolicy(configs, pareto, Policy::kOptIngest), 0u);
  EXPECT_EQ(ChooseByPolicy(configs, pareto, Policy::kOptQuery), 2u);
  EXPECT_EQ(ChooseByPolicy(configs, pareto, Policy::kBalance), 1u);
}

TEST_F(CoreFixture, IngestAccountsGpuTimeAndSuppression) {
  IngestParams params = SpecializedParams(4, 0.5);
  cnn::Cnn cheap(params.model, &catalog_);
  IngestResult result = RunIngest(*run_, cheap, params);
  EXPECT_GT(result.detections, 0);
  EXPECT_GT(result.suppressed, 0);
  EXPECT_EQ(result.cnn_invocations + result.suppressed, result.detections);
  EXPECT_NEAR(result.gpu_millis,
              static_cast<double>(result.cnn_invocations) * cheap.inference_cost_millis(), 1e-6);
  EXPECT_GT(result.num_clusters, 0);
  // All detections are indexed.
  EXPECT_EQ(result.index.view().total_detections(), result.detections);
}

TEST_F(CoreFixture, IngestClusterClassListsAreRankedUnions) {
  IngestParams params = SpecializedParams(3, 0.5);
  cnn::Cnn cheap(params.model, &catalog_);
  IngestResult result = RunIngest(*run_, cheap, params);
  const index::IndexView view = result.index.view();
  for (uint64_t id = 0; id < view.num_clusters(); ++id) {
    ASSERT_GE(view.classes(id).size(), 1u);
    int32_t prev = 0;
    for (const index::RankedClass& ranked : view.classes(id)) {
      // Ranks are 1-based, bounded by the indexing K, and sorted ascending.
      EXPECT_GE(ranked.rank, 1);
      EXPECT_LE(ranked.rank, 3);
      EXPECT_GE(ranked.rank, prev);
      prev = ranked.rank;
    }
  }
}

TEST_F(CoreFixture, IngestLimitSecTruncates) {
  IngestParams params = SpecializedParams(4, 0.5);
  cnn::Cnn cheap(params.model, &catalog_);
  IngestOptions opts;
  opts.limit_sec = 60.0;
  IngestResult truncated = RunIngest(*run_, cheap, params, opts);
  IngestResult full = RunIngest(*run_, cheap, params);
  EXPECT_LT(truncated.detections, full.detections);
}

TEST_F(CoreFixture, QueryReturnsFramesAndCharGesGtTime) {
  IngestParams params = SpecializedParams(4, 0.5);
  cnn::Cnn cheap(params.model, &catalog_);
  IngestResult ingest = RunIngest(*run_, cheap, params);
  QueryEngine engine(&ingest.index, &cheap, &gt_);

  cnn::SegmentGroundTruth truth(*run_, gt_);
  auto dominant = truth.DominantClasses(0.5, 1);
  ASSERT_FALSE(dominant.empty());
  QueryResult qr = engine.Query(dominant[0], params.k, {}, run_->fps());
  EXPECT_GT(qr.frames_returned, 0);
  EXPECT_GT(qr.centroids_classified, 0);
  EXPECT_GE(qr.centroids_classified, qr.clusters_matched);
  EXPECT_NEAR(qr.gpu_millis,
              static_cast<double>(qr.centroids_classified) * gt_.inference_cost_millis(), 1e-6);
  // Frame runs are sorted and disjoint.
  for (size_t i = 1; i < qr.frame_runs.size(); ++i) {
    EXPECT_GT(qr.frame_runs[i].first, qr.frame_runs[i - 1].second);
  }
}

TEST_F(CoreFixture, SmallerKxShrinksCandidates) {
  IngestParams params = SpecializedParams(8, 0.5);
  cnn::Cnn cheap(params.model, &catalog_);
  IngestResult ingest = RunIngest(*run_, cheap, params);
  QueryEngine engine(&ingest.index, &cheap, &gt_);
  cnn::SegmentGroundTruth truth(*run_, gt_);
  auto dominant = truth.DominantClasses(0.5, 1);
  ASSERT_FALSE(dominant.empty());
  QueryResult wide = engine.Query(dominant[0], 8, {}, run_->fps());
  QueryResult narrow = engine.Query(dominant[0], 1, {}, run_->fps());
  EXPECT_LE(narrow.centroids_classified, wide.centroids_classified);
}

TEST_F(CoreFixture, TimeRangeRestrictsResults) {
  IngestParams params = SpecializedParams(4, 0.5);
  cnn::Cnn cheap(params.model, &catalog_);
  IngestResult ingest = RunIngest(*run_, cheap, params);
  QueryEngine engine(&ingest.index, &cheap, &gt_);
  cnn::SegmentGroundTruth truth(*run_, gt_);
  auto dominant = truth.DominantClasses(0.5, 1);
  ASSERT_FALSE(dominant.empty());
  common::TimeRange window{60.0, 120.0};
  QueryResult qr = engine.Query(dominant[0], params.k, window, run_->fps());
  for (const auto& [first, last] : qr.frame_runs) {
    EXPECT_TRUE(window.ContainsFrame(first, run_->fps()));
    EXPECT_TRUE(window.ContainsFrame(last, run_->fps()));
  }
}

TEST_F(CoreFixture, EvaluatorSegmentRule) {
  cnn::SegmentGroundTruth truth(*run_, gt_);
  AccuracyEvaluator evaluator(&truth, 30.0);
  QueryResult qr;
  // 20 of 30 frames of segment 2 -> claimed; 5 of 30 frames of segment 3 -> not.
  qr.frame_runs = {{60, 79}, {90, 94}};
  auto claimed = evaluator.ClaimedSegments(qr);
  EXPECT_TRUE(claimed.contains(2));
  EXPECT_FALSE(claimed.contains(3));
}

TEST_F(CoreFixture, EvaluatorPerfectResultScoresPerfect) {
  cnn::SegmentGroundTruth truth(*run_, gt_);
  AccuracyEvaluator evaluator(&truth, 30.0);
  auto dominant = truth.DominantClasses(0.5, 1);
  ASSERT_FALSE(dominant.empty());
  // Synthesize a result covering exactly the truth segments.
  QueryResult qr;
  for (common::SegmentId seg : truth.SegmentsWithClass(dominant[0])) {
    qr.frame_runs.emplace_back(seg * 30, seg * 30 + 29);
  }
  qr.frame_runs = MergeFrameRuns(std::move(qr.frame_runs));
  PrecisionRecall pr = evaluator.Evaluate(dominant[0], qr);
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);
}

TEST_F(CoreFixture, EvaluatorEmptyResultHasZeroRecall) {
  cnn::SegmentGroundTruth truth(*run_, gt_);
  AccuracyEvaluator evaluator(&truth, 30.0);
  auto dominant = truth.DominantClasses(0.5, 1);
  ASSERT_FALSE(dominant.empty());
  QueryResult qr;
  PrecisionRecall pr = evaluator.Evaluate(dominant[0], qr);
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);  // Nothing claimed, nothing wrong.
  EXPECT_DOUBLE_EQ(pr.recall, 0.0);
  EXPECT_GT(pr.truth_segments, 0);
}

TEST_F(CoreFixture, HigherKImprovesRecallCostsLatency) {
  IngestParams params = SpecializedParams(1, 0.5);
  cnn::Cnn cheap(params.model, &catalog_);
  params.k = 8;
  IngestResult ingest = RunIngest(*run_, cheap, params);
  QueryEngine engine(&ingest.index, &cheap, &gt_);
  cnn::SegmentGroundTruth truth(*run_, gt_);
  AccuracyEvaluator evaluator(&truth, run_->fps());
  auto dominant = truth.DominantClasses(0.9, 5);
  ASSERT_GE(dominant.size(), 2u);
  double recall_k1 = 0.0;
  double recall_k8 = 0.0;
  double gpu_k1 = 0.0;
  double gpu_k8 = 0.0;
  for (common::ClassId cls : dominant) {
    QueryResult narrow = engine.Query(cls, 1, {}, run_->fps());
    QueryResult wide = engine.Query(cls, 8, {}, run_->fps());
    recall_k1 += evaluator.Evaluate(cls, narrow).recall;
    recall_k8 += evaluator.Evaluate(cls, wide).recall;
    gpu_k1 += narrow.gpu_millis;
    gpu_k8 += wide.gpu_millis;
  }
  EXPECT_GE(recall_k8, recall_k1);
  EXPECT_GE(gpu_k8, gpu_k1);
}

}  // namespace
}  // namespace focus::core
