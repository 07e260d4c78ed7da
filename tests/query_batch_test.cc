// Fixed-seed equivalence tests for the plan/execute query API (§5).
//
// The contract under test: splitting Query() into Plan + ClassifyBatch + Resolve —
// and batching the GT-CNN work any way an executor likes — must return results
// identical to the seed's per-centroid loop (one gt_cnn->Top1() per candidate,
// accumulated result and accounting in candidate order). The seed loop is kept
// here verbatim as the reference; the production paths under test are
// QueryEngine::{Plan,ClassifyPlan,Resolve}, cnn::Cnn::ClassifyBatch /
// BatchCostMillis, and the QuerySession re-implementation on plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/cnn/cost_model.h"
#include "src/cnn/ground_truth.h"
#include "src/cnn/model_zoo.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/query_engine.h"
#include "src/core/query_session.h"
#include "src/video/stream_generator.h"

namespace focus::core {
namespace {

constexpr double kDurationSec = 60.0;
constexpr double kFps = 30.0;
constexpr int kIndexK = 16;

class QueryBatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new video::ClassCatalog(31);
    video::StreamProfile profile;
    ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
    run_ = new video::StreamRun(catalog_, profile, kDurationSec, kFps, 7);
    cheap_ = new cnn::Cnn(cnn::GenericCheapCandidates(9)[0], catalog_);
    gt_ = new cnn::Cnn(cnn::GtCnnDesc(catalog_->world_seed()), catalog_);

    IngestParams params;
    params.model = cheap_->desc();
    params.k = kIndexK;
    params.cluster_threshold = 0.5;
    ingest_ = new IngestResult(RunIngest(*run_, *cheap_, params));

    cnn::SegmentGroundTruth truth(*run_, *gt_);
    classes_ = new std::vector<common::ClassId>(truth.DominantClasses(0.95, 3));
    ASSERT_FALSE(classes_->empty());
  }

  static void TearDownTestSuite() {
    delete classes_;
    delete ingest_;
    delete gt_;
    delete cheap_;
    delete run_;
    classes_ = nullptr;
    ingest_ = nullptr;
    gt_ = nullptr;
    cheap_ = nullptr;
    run_ = nullptr;
  }

  // The seed's Query() loop, verbatim: the per-centroid reference every batched
  // execution must reproduce bit for bit.
  static QueryResult SeedQuery(common::ClassId cls, int kx, common::TimeRange range) {
    QueryResult result;
    result.queried = cls;
    const common::ClassId lookup = cheap_->MapTrueLabel(cls);
    const bool clip = range.begin_sec > 0.0 || range.end_sec >= 0.0;
    const auto [range_first, range_last] =
        clip ? FrameBoundsOfRange(range, kFps)
             : std::pair<common::FrameIndex, common::FrameIndex>{
                   0, std::numeric_limits<common::FrameIndex>::max()};
    std::vector<std::pair<common::FrameIndex, common::FrameIndex>> runs;
    const index::IndexView view = ingest_->index.view();
    for (const index::Posting& posting : view.postings(lookup)) {
      const uint64_t id = posting.cluster;
      // Kx filter from the cluster's own ranked class list.
      const auto classes = view.classes(id);
      const auto ranked = std::find_if(classes.begin(), classes.end(),
                                       [&](const index::RankedClass& c) { return c.cls == lookup; });
      if (kx > 0 && (ranked == classes.end() || ranked->rank > kx)) {
        continue;
      }
      ++result.centroids_classified;
      result.gpu_millis += gt_->inference_cost_millis();
      if (gt_->Top1(view.centroid(id)) != cls) {
        continue;
      }
      ++result.clusters_matched;
      for (const cluster::MemberRun& run : view.runs(id)) {
        const common::FrameIndex first = std::max(run.first_frame, range_first);
        const common::FrameIndex last = std::min(run.last_frame, range_last);
        if (first > last) {
          continue;
        }
        runs.emplace_back(first, last);
      }
    }
    result.frame_runs = MergeFrameRuns(std::move(runs));
    for (const auto& [first, last] : result.frame_runs) {
      result.frames_returned += last - first + 1;
    }
    return result;
  }

  static void ExpectIdentical(const QueryResult& got, const QueryResult& want) {
    EXPECT_EQ(got.queried, want.queried);
    EXPECT_EQ(got.frame_runs, want.frame_runs);
    EXPECT_EQ(got.centroids_classified, want.centroids_classified);
    EXPECT_EQ(got.clusters_matched, want.clusters_matched);
    EXPECT_EQ(got.frames_returned, want.frames_returned);
    EXPECT_DOUBLE_EQ(got.gpu_millis, want.gpu_millis);
  }

  static video::ClassCatalog* catalog_;
  static video::StreamRun* run_;
  static cnn::Cnn* cheap_;
  static cnn::Cnn* gt_;
  static IngestResult* ingest_;
  static std::vector<common::ClassId>* classes_;
};

video::ClassCatalog* QueryBatchTest::catalog_ = nullptr;
video::StreamRun* QueryBatchTest::run_ = nullptr;
cnn::Cnn* QueryBatchTest::cheap_ = nullptr;
cnn::Cnn* QueryBatchTest::gt_ = nullptr;
IngestResult* QueryBatchTest::ingest_ = nullptr;
std::vector<common::ClassId>* QueryBatchTest::classes_ = nullptr;

// --- cnn::Cnn batch primitives ---

TEST_F(QueryBatchTest, ClassifyBatchMatchesPerDetectionClassify) {
  std::vector<video::Detection> detections;
  run_->ForEachFrame([&](common::FrameIndex, const std::vector<video::Detection>& dets) {
    for (const video::Detection& d : dets) {
      if (detections.size() < 200) {
        detections.push_back(d);
      }
    }
  });
  ASSERT_FALSE(detections.empty());
  for (int k : {1, 5, kIndexK}) {
    std::vector<cnn::TopKResult> batched;
    gt_->ClassifyBatch(detections, k, &batched);
    ASSERT_EQ(batched.size(), detections.size());
    for (size_t i = 0; i < detections.size(); ++i) {
      EXPECT_EQ(batched[i].entries, gt_->Classify(detections[i], k).entries) << "k=" << k;
    }
  }
}

TEST_F(QueryBatchTest, BatchCostAmortizesTheLaunchOverhead) {
  const common::GpuMillis single = gt_->inference_cost_millis();
  // A batch of one costs exactly one inference — bit-identical, not just close.
  EXPECT_EQ(gt_->BatchCostMillis(1), single);
  // Larger batches are strictly cheaper than separate launches, monotone in
  // size, and never cheaper than the pure per-image compute share.
  common::GpuMillis prev = gt_->BatchCostMillis(1);
  for (int64_t b : {2, 8, 32, 256}) {
    const common::GpuMillis batch = gt_->BatchCostMillis(b);
    EXPECT_LT(batch, static_cast<double>(b) * single) << b;
    EXPECT_GT(batch, prev) << b;
    EXPECT_GT(batch, (1.0 - cnn::kLaunchOverheadShare) * static_cast<double>(b) * single) << b;
    prev = batch;
  }
}

// --- QueryEngine plan/execute ---

TEST_F(QueryBatchTest, PlanClassifyResolveMatchesSeedPerCentroidQuery) {
  QueryEngine engine(&ingest_->index, cheap_, gt_);
  const common::TimeRange ranges[] = {{}, {10.0, 40.0}, {0.0, 25.5}};
  for (common::ClassId cls : *classes_) {
    for (int kx : {1, 2, 4, 8, -1}) {
      for (const common::TimeRange& range : ranges) {
        const QueryResult want = SeedQuery(cls, kx, range);
        // One-call wrapper.
        ExpectIdentical(engine.Query(cls, kx, range, kFps), want);
        // Explicit plan -> batch classify -> resolve.
        const QueryPlan plan = engine.Plan(cls, kx, range, kFps);
        EXPECT_EQ(static_cast<int64_t>(plan.work.size()), want.centroids_classified);
        ExpectIdentical(engine.Resolve(plan, engine.ClassifyPlan(plan)), want);
      }
    }
  }
}

TEST_F(QueryBatchTest, ResolveIsVerdictDriven) {
  QueryEngine engine(&ingest_->index, cheap_, gt_);
  const common::ClassId cls = classes_->front();
  const QueryPlan plan = engine.Plan(cls);
  ASSERT_FALSE(plan.work.empty());
  // All-wrong verdicts: the GPU accounting is still paid, but nothing matches.
  std::vector<common::ClassId> wrong(plan.work.size(), common::kInvalidClass);
  const QueryResult none = engine.Resolve(plan, wrong);
  EXPECT_EQ(none.centroids_classified, static_cast<int64_t>(plan.work.size()));
  EXPECT_EQ(none.clusters_matched, 0);
  EXPECT_EQ(none.frames_returned, 0);
  EXPECT_TRUE(none.frame_runs.empty());
  // All-right verdicts: every candidate cluster's members come back.
  std::vector<common::ClassId> right(plan.work.size(), cls);
  const QueryResult all = engine.Resolve(plan, right);
  EXPECT_EQ(all.clusters_matched, static_cast<int64_t>(plan.work.size()));
  EXPECT_GE(all.frames_returned, SeedQuery(cls, -1, {}).frames_returned);
}

TEST_F(QueryBatchTest, IncrementalPlanPartitionsTheFullPlan) {
  QueryEngine engine(&ingest_->index, cheap_, gt_);
  for (common::ClassId cls : *classes_) {
    const QueryPlan full = engine.Plan(cls, kIndexK, {}, kFps);
    // Stepping min_kx..kx through a Kx ladder visits every work item of the full
    // plan exactly once — the invariant QuerySession::ExpandTo's never-re-pay
    // guarantee rides on.
    std::vector<int64_t> stepped;
    int prev = 0;
    for (int kx : {1, 2, 4, 8, kIndexK}) {
      const QueryPlan step = engine.Plan(cls, kx, {}, kFps, /*min_kx=*/prev);
      for (const CentroidWorkItem& item : step.work) {
        stepped.push_back(item.cluster_id);
      }
      prev = kx;
    }
    std::vector<int64_t> want;
    for (const CentroidWorkItem& item : full.work) {
      want.push_back(item.cluster_id);
    }
    std::sort(stepped.begin(), stepped.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(stepped, want);
  }
}

// --- QuerySession on plans ---

TEST_F(QueryBatchTest, SessionExpansionNeverRepaysAClassifiedCentroid) {
  for (common::ClassId cls : *classes_) {
    const QueryResult one_shot = SeedQuery(cls, kIndexK, {});
    QuerySession session(&ingest_->index, cheap_, gt_, cls, {}, kFps);
    int64_t total_centroids = 0;
    common::GpuMillis total_gpu = 0.0;
    for (int kx : {1, 2, 3, 4, 8, kIndexK}) {
      const QueryBatch batch = session.ExpandTo(kx);
      total_centroids += batch.centroids_classified;
      total_gpu += batch.gpu_millis;
    }
    // Exactly the one-shot cost: every centroid classified once, none re-paid.
    EXPECT_EQ(total_centroids, one_shot.centroids_classified);
    EXPECT_EQ(session.total_centroids_classified(), one_shot.centroids_classified);
    EXPECT_DOUBLE_EQ(total_gpu, one_shot.gpu_millis);
    // And exactly the one-shot answer.
    EXPECT_EQ(session.frame_runs(), one_shot.frame_runs);
    EXPECT_EQ(session.total_frames(), one_shot.frames_returned);
  }
}

TEST_F(QueryBatchTest, SessionWithRangeMatchesSeedRangeQuery) {
  const common::TimeRange range{15.0, 45.0};
  for (common::ClassId cls : *classes_) {
    const QueryResult want = SeedQuery(cls, kIndexK, range);
    QuerySession session(&ingest_->index, cheap_, gt_, cls, range, kFps);
    session.ExpandTo(2);
    session.ExpandTo(kIndexK);
    EXPECT_EQ(session.frame_runs(), want.frame_runs);
    EXPECT_EQ(session.total_frames(), want.frames_returned);
    EXPECT_EQ(session.total_centroids_classified(), want.centroids_classified);
  }
}

}  // namespace
}  // namespace focus::core
