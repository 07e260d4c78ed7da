#include "src/core/query_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "src/common/logging.h"
#include "src/core/live_snapshot.h"

namespace focus::core {

std::vector<std::pair<common::FrameIndex, common::FrameIndex>> MergeFrameRuns(
    std::vector<std::pair<common::FrameIndex, common::FrameIndex>> runs) {
  if (runs.empty()) {
    return runs;
  }
  std::sort(runs.begin(), runs.end());
  std::vector<std::pair<common::FrameIndex, common::FrameIndex>> merged;
  merged.push_back(runs.front());
  for (size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].first <= merged.back().second + 1) {
      merged.back().second = std::max(merged.back().second, runs[i].second);
    } else {
      merged.push_back(runs[i]);
    }
  }
  return merged;
}

std::pair<common::FrameIndex, common::FrameIndex> FrameBoundsOfRange(common::TimeRange range,
                                                                     double fps) {
  constexpr common::FrameIndex kMaxFrame = std::numeric_limits<common::FrameIndex>::max();
  const double frame_limit = static_cast<double>(kMaxFrame);
  // First frame with frame/fps >= begin_sec. The arithmetic estimate can land
  // one frame off ContainsFrame's frame/fps comparison when begin_sec * fps
  // rounds differently than the division; the fix-up loops below run at most a
  // step or two, keeping the bound exact without a per-frame walk. Estimates
  // beyond the representable frame range (range values are client input) are
  // clamped before the narrowing cast.
  common::FrameIndex first = 0;
  if (range.begin_sec > 0.0) {
    const double est = std::ceil(range.begin_sec * fps);
    if (!(est < frame_limit)) {
      // No representable frame reaches begin_sec: the range admits nothing.
      return {kMaxFrame, kMaxFrame - 1};
    }
    first = static_cast<common::FrameIndex>(est);
    while (first > 0 && static_cast<double>(first - 1) / fps >= range.begin_sec) {
      --first;
    }
    while (static_cast<double>(first) / fps < range.begin_sec) {
      ++first;
    }
  }
  // Last frame with frame/fps < end_sec (inclusive bound); open-ended otherwise.
  common::FrameIndex last = kMaxFrame;
  if (range.end_sec >= 0.0) {
    const double est = std::ceil(range.end_sec * fps);
    if (est < frame_limit) {
      last = static_cast<common::FrameIndex>(est);
      while (last > 0 && static_cast<double>(last - 1) / fps >= range.end_sec) {
        --last;
      }
      while (static_cast<double>(last) / fps < range.end_sec) {
        ++last;
      }
      --last;  // |last| was the first excluded frame.
    }
    // Otherwise every representable frame is below end_sec: leave it open.
  }
  return {first, last};
}

QueryEngine::QueryEngine(index::IndexView index, const cnn::Cnn* ingest_cnn,
                         const cnn::Cnn* gt_cnn)
    : index_(index), ingest_cnn_(ingest_cnn), gt_cnn_(gt_cnn) {}

QueryEngine::QueryEngine(const index::TopKIndex* index, const cnn::Cnn* ingest_cnn,
                         const cnn::Cnn* gt_cnn)
    : QueryEngine(index->view(), ingest_cnn, gt_cnn) {}

QueryEngine::QueryEngine(const LiveSnapshot* snapshot, const cnn::Cnn* ingest_cnn,
                         const cnn::Cnn* gt_cnn)
    : QueryEngine(&snapshot->index, ingest_cnn, gt_cnn) {}

QueryPlan QueryEngine::Plan(common::ClassId cls, int kx, common::TimeRange range, double fps,
                            int min_kx) const {
  QueryPlan plan;
  plan.queried = cls;
  plan.kx = kx;

  // QT1/QT2: map the queried class into the ingest model's label space (a class the
  // specialized model was not trained on lives under OTHER, §4.3) and pull the
  // posting list.
  plan.lookup = ingest_cnn_->MapTrueLabel(cls);

  // Map the time range to frame bounds once; clipping each run is then O(1).
  const bool clip = range.begin_sec > 0.0 || range.end_sec >= 0.0;
  if (clip) {
    std::tie(plan.range_first, plan.range_last) = FrameBoundsOfRange(range, fps);
  }

  // The Kx filter: a cluster matches within kx when the class's rank there is
  // <= kx; rank 0 (unranked) matches every kx.
  for (const index::Posting& posting : index_.postings(plan.lookup)) {
    if (kx > 0 && posting.rank > kx) {
      continue;
    }
    if (min_kx > 0 && posting.rank <= min_kx) {
      continue;  // Already admitted (and classified) by an earlier expansion.
    }
    plan.work.push_back(CentroidWorkItem{posting.cluster, index_.centroid(posting.cluster)});
  }
  return plan;
}

std::vector<common::ClassId> QueryEngine::ClassifyPlan(const QueryPlan& plan) const {
  // Cnn::Top1 is Classify(centroid, 1).Top1() without building the ranked
  // list; what the batch costs is Resolve's accounting, not this loop's.
  std::vector<common::ClassId> verdicts;
  verdicts.reserve(plan.work.size());
  for (const CentroidWorkItem& item : plan.work) {
    verdicts.push_back(gt_cnn_->Top1(item.centroid));
  }
  return verdicts;
}

QueryResult QueryEngine::Resolve(const QueryPlan& plan,
                                 std::span<const common::ClassId> verdicts) const {
  FOCUS_CHECK(verdicts.size() == plan.work.size());
  QueryResult result;
  result.queried = plan.queried;

  std::vector<std::pair<common::FrameIndex, common::FrameIndex>> runs;
  for (size_t i = 0; i < plan.work.size(); ++i) {
    // QT3 accounting: one GT-CNN inference per work item, summed term by term so
    // the total is bit-identical to the seed's per-centroid accumulation no
    // matter how the verdicts were actually executed.
    ++result.centroids_classified;
    result.gpu_millis += gt_cnn_->inference_cost_millis();
    if (verdicts[i] != plan.queried) {
      continue;
    }
    // QT4: the whole cluster inherits the centroid's label.
    ++result.clusters_matched;
    for (const cluster::MemberRun& run : index_.runs(plan.work[i].cluster_id)) {
      const common::FrameIndex first = std::max(run.first_frame, plan.range_first);
      const common::FrameIndex last = std::min(run.last_frame, plan.range_last);
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

QueryResult QueryEngine::Query(common::ClassId cls, int kx, common::TimeRange range,
                               double fps) const {
  const QueryPlan plan = Plan(cls, kx, range, fps);
  return Resolve(plan, ClassifyPlan(plan));
}

}  // namespace focus::core
