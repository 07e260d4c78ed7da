// Query-time processing (§3 right side: QT1-QT4), as a plan/execute API.
//
// For a query "find all frames with objects of class X": look up the top-K index for
// clusters indexed under X (mapping X to OTHER when the ingest model was specialized
// and X is not one of its Ls classes), classify each matching cluster's centroid
// object with the GT-CNN, and return the member frames of the clusters whose centroid
// the GT-CNN confirmed as X. Query GPU time = centroid classifications.
//
// The GPU-bearing step is split out of the control flow so callers decide when and
// how it runs (§5 "We parallelize a query's work across many worker processes if
// resources are idle" — and, across concurrent queries, share and batch it):
//
//   Plan(cls, kx, range)    QT1/QT2: index lookup + Kx filter. Free — no GPU work;
//                           emits one CentroidWorkItem per candidate cluster.
//   <classification>        QT3: any execution strategy that produces a GT-CNN
//                           top-1 verdict per work item — cnn::Cnn::ClassifyBatch
//                           over any batching, a shared cross-query verdict cache
//                           (runtime::FleetQueryService), or a cached verdict
//                           (QuerySession).
//   Resolve(plan, verdicts) QT4: folds the verdicts into the final QueryResult.
//
// Query() is the one-call form: Plan, classify the whole plan as one batch,
// Resolve. Its results are byte-identical to the seed's per-centroid loop, and
// QueryResult::gpu_millis always accounts the per-centroid (unbatched) GPU cost so
// result accounting is execution-independent; the launch-amortized cost of an
// actual batched execution is the executor's to report (FleetQueryService,
// cnn::Cnn::BatchCostMillis).
//
// Supports the §5 enhancement of a dynamic Kx <= K: filtering with a smaller Kx
// shrinks the candidate set (lower latency) at some recall cost.
#ifndef FOCUS_SRC_CORE_QUERY_ENGINE_H_
#define FOCUS_SRC_CORE_QUERY_ENGINE_H_

#include <limits>
#include <span>
#include <vector>

#include "src/cnn/cnn.h"
#include "src/common/time_types.h"
#include "src/index/topk_index.h"

namespace focus::core {

struct LiveSnapshot;

struct QueryResult {
  common::ClassId queried = common::kInvalidClass;
  // Returned frames as sorted, disjoint [first, last] runs.
  std::vector<std::pair<common::FrameIndex, common::FrameIndex>> frame_runs;
  int64_t centroids_classified = 0;
  int64_t clusters_matched = 0;  // Centroid confirmed as the queried class.
  int64_t frames_returned = 0;
  common::GpuMillis gpu_millis = 0.0;
};

// One unit of query-time GPU work: the centroid object of a candidate cluster that
// needs a GT-CNN verdict, carried by value (its identity fields; no appearance),
// so a plan never points into the index it was made from. (stream, cluster_id)
// identifies the classification for cross-query dedup — the verdict depends only
// on the centroid object, never on which query asked.
struct CentroidWorkItem {
  int64_t cluster_id = -1;
  video::Detection centroid;
};

// The free half of a query: everything Query() decides before touching a GPU.
struct QueryPlan {
  common::ClassId queried = common::kInvalidClass;
  common::ClassId lookup = common::kInvalidClass;  // queried, in the ingest label space.
  // Informational only: the Kx the plan was built with. The Kx filter is
  // already baked into |work|; Resolve does not re-apply it.
  int kx = -1;
  // The query's time range as inclusive frame bounds (whole recording when open).
  common::FrameIndex range_first = 0;
  common::FrameIndex range_last = std::numeric_limits<common::FrameIndex>::max();
  // Candidate clusters needing a verdict, in posting-list order. Resolve() consumes
  // verdicts in exactly this order.
  std::vector<CentroidWorkItem> work;
};

class QueryEngine {
 public:
  // Plans and resolves over |index|: an image this process assembled
  // (TopKIndex), mapped from a shm plane (shm::ShmEpochView) or read from a
  // file. The image bytes, |ingest_cnn| (the model that built the index, for
  // label-space mapping) and |gt_cnn| must outlive the engine.
  QueryEngine(index::IndexView index, const cnn::Cnn* ingest_cnn, const cnn::Cnn* gt_cnn);
  QueryEngine(const index::TopKIndex* index, const cnn::Cnn* ingest_cnn, const cnn::Cnn* gt_cnn);

  // Live query-over-ingest (src/core/live_snapshot.h): plans against a
  // published epoch snapshot's canonical index instead of a final one —
  // results are byte-identical to halting ingest at the snapshot's watermark
  // and finalizing. The caller must keep the snapshot alive across
  // Plan/Resolve (hold its shared_ptr; runtime::FleetQueryService's snapshot
  // requests do).
  QueryEngine(const LiveSnapshot* snapshot, const cnn::Cnn* ingest_cnn, const cnn::Cnn* gt_cnn);

  // Runs the query: Plan -> ClassifyPlan (one batch) -> Resolve. |kx| <= K restricts
  // matching to the top-kx indexed classes (negative: use the full indexed width K).
  // |range| restricts returned frames.
  QueryResult Query(common::ClassId cls, int kx = -1, common::TimeRange range = {},
                    double fps = 30.0) const;

  // QT1/QT2 only: index lookup, Kx filter, range-to-frame-bounds mapping. No GPU
  // work. |min_kx| > 0 omits clusters already matching within min_kx — the
  // incremental form QuerySession::ExpandTo uses to plan only the candidates a Kx
  // expansion newly admits.
  QueryPlan Plan(common::ClassId cls, int kx = -1, common::TimeRange range = {},
                 double fps = 30.0, int min_kx = 0) const;

  // QT3 as one GT-CNN batch: top-1 verdicts for every work item of |plan|, in plan
  // order. Callers with their own execution strategy (cross-query batching, cached
  // verdicts) produce this vector themselves instead.
  std::vector<common::ClassId> ClassifyPlan(const QueryPlan& plan) const;

  // QT4: folds per-work-item |verdicts| (parallel to plan.work) into the final
  // result. Deterministic and GPU-free; gpu_millis accounts plan.work.size()
  // per-centroid inferences regardless of how the verdicts were produced (see file
  // comment).
  QueryResult Resolve(const QueryPlan& plan, std::span<const common::ClassId> verdicts) const;

  const index::IndexView& index() const { return index_; }
  const cnn::Cnn& gt_cnn() const { return *gt_cnn_; }

 private:
  index::IndexView index_;
  const cnn::Cnn* ingest_cnn_;
  const cnn::Cnn* gt_cnn_;
};

// Merges possibly-overlapping frame runs into sorted disjoint runs.
std::vector<std::pair<common::FrameIndex, common::FrameIndex>> MergeFrameRuns(
    std::vector<std::pair<common::FrameIndex, common::FrameIndex>> runs);

// The frames |range| admits at |fps| as an inclusive [first, last] frame
// interval (last = max FrameIndex for an open-ended range). Derived
// arithmetically but agreeing frame-for-frame with TimeRange::ContainsFrame, so
// clipping a member run to a query's time range is O(1) arithmetic on the run
// bounds instead of a per-frame walk.
std::pair<common::FrameIndex, common::FrameIndex> FrameBoundsOfRange(common::TimeRange range,
                                                                     double fps);

}  // namespace focus::core

#endif  // FOCUS_SRC_CORE_QUERY_ENGINE_H_
