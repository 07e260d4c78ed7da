// Incremental query sessions: the §5 "Dynamically adjusting K at query-time"
// enhancement as a stateful API.
//
// "If we want to retrieve only some objects of class X, we can use very low Kx to
// quickly retrieve them. If more objects are required, we can increase Kx to extract
// a new batch of results." A QuerySession keeps the per-query state that makes the
// expansion cheap: centroids already classified by the GT-CNN are never re-classified
// when Kx grows, so the total GPU cost of reaching Kx = K through any sequence of
// batches equals the cost of a single query at K.
//
// Each ExpandTo(kx) step is planned and executed through the QueryEngine
// plan/execute API: Plan(cls, kx, range, fps, min_kx = current Kx) emits exactly
// the centroid work a step newly admits, the uncached work items are classified
// as ONE GT-CNN batch (cnn::Cnn::ClassifyBatch — so even incremental expansion
// fills GPU launches, §5), and the verdicts fold into the cumulative result.
#ifndef FOCUS_SRC_CORE_QUERY_SESSION_H_
#define FOCUS_SRC_CORE_QUERY_SESSION_H_

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/cnn/cnn.h"
#include "src/common/result.h"
#include "src/common/time_types.h"
#include "src/core/query_engine.h"
#include "src/index/topk_index.h"

namespace focus::core {

// One expansion step's incremental output.
struct QueryBatch {
  int kx = 0;  // The Kx this batch expanded to.
  // Frames newly added by this batch (disjoint from all earlier batches' frames).
  std::vector<std::pair<common::FrameIndex, common::FrameIndex>> new_frame_runs;
  int64_t new_frames = 0;
  int64_t centroids_classified = 0;  // GT-CNN inferences paid by this batch alone.
  common::GpuMillis gpu_millis = 0.0;
  // Set when the shared executor could not classify the step (SetClassifier):
  // the batch is then empty and the session unchanged, so ExpandTo(kx) again
  // retries the step.
  std::optional<common::Error> error;
};

class QuerySession {
 public:
  // |index|, |ingest_cnn| and |gt_cnn| must outlive the session. |range| restricts
  // every batch.
  QuerySession(const index::TopKIndex* index, const cnn::Cnn* ingest_cnn,
               const cnn::Cnn* gt_cnn, common::ClassId cls, common::TimeRange range = {},
               double fps = 30.0);

  // Expands the session to |kx| (monotonic: values at or below the current Kx return
  // an empty batch). Classifies only centroids of clusters that newly match, as one
  // GT-CNN batch.
  QueryBatch ExpandTo(int kx);

  // Routes this session's classification through a shared executor instead of
  // the direct engine batch: the callback receives each expansion step's fresh
  // sub-plan and must return top-1 verdicts in plan order, byte-identical to
  // QueryEngine::ClassifyPlan, or an error (surfaced as QueryBatch::error;
  // nothing of the step is recorded). runtime::FleetQueryService::ClassifySessionPlan
  // is the intended target — concurrent sessions then share a global verdict
  // cache and never re-pay a centroid any of them (or any past query) paid.
  // Per-batch gpu_millis accounting is unchanged (the execution-independent
  // per-centroid figure); the shared executor's stats show the saved cost.
  using PlanClassifier =
      std::function<common::Result<std::vector<common::ClassId>>(const QueryPlan&)>;
  void SetClassifier(PlanClassifier classifier) { classifier_ = std::move(classifier); }

  // Cumulative results across all batches so far (merged, sorted frame runs).
  const std::vector<std::pair<common::FrameIndex, common::FrameIndex>>& frame_runs() const {
    return cumulative_runs_;
  }
  int64_t total_frames() const { return total_frames_; }
  int64_t total_centroids_classified() const { return total_centroids_; }
  common::GpuMillis total_gpu_millis() const { return total_gpu_millis_; }
  int current_kx() const { return current_kx_; }
  common::ClassId queried() const { return cls_; }

 private:
  QueryEngine engine_;  // Plans, classifies, and folds each expansion step.
  PlanClassifier classifier_;  // Optional shared executor (SetClassifier).
  common::ClassId cls_;
  common::TimeRange range_;
  double fps_;

  int current_kx_ = 0;
  // Centroid verdicts already paid for: cluster id -> confirmed as cls_.
  std::unordered_map<int64_t, bool> verdicts_;
  std::vector<std::pair<common::FrameIndex, common::FrameIndex>> cumulative_runs_;
  int64_t total_frames_ = 0;
  int64_t total_centroids_ = 0;
  common::GpuMillis total_gpu_millis_ = 0.0;
};

}  // namespace focus::core

#endif  // FOCUS_SRC_CORE_QUERY_SESSION_H_
