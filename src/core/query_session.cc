#include "src/core/query_session.h"

#include <algorithm>

namespace focus::core {

namespace {

// Subtracts |existing| (sorted, disjoint) from |candidate|, appending the parts of
// |candidate| not covered to |out|. Counting new frames exactly keeps batch outputs
// disjoint across expansions even when a cluster's members overlap earlier results.
void AppendUncovered(std::pair<common::FrameIndex, common::FrameIndex> candidate,
                     const std::vector<std::pair<common::FrameIndex, common::FrameIndex>>&
                         existing,
                     std::vector<std::pair<common::FrameIndex, common::FrameIndex>>* out) {
  common::FrameIndex cursor = candidate.first;
  // First covered run that could overlap: lower_bound on run end.
  auto it = std::lower_bound(existing.begin(), existing.end(), cursor,
                             [](const auto& run, common::FrameIndex frame) {
                               return run.second < frame;
                             });
  while (cursor <= candidate.second) {
    if (it == existing.end() || it->first > candidate.second) {
      out->emplace_back(cursor, candidate.second);
      return;
    }
    if (it->first > cursor) {
      out->emplace_back(cursor, it->first - 1);
    }
    cursor = std::max(cursor, it->second + 1);
    ++it;
  }
}

}  // namespace

QuerySession::QuerySession(const index::TopKIndex* index, const cnn::Cnn* ingest_cnn,
                           const cnn::Cnn* gt_cnn, common::ClassId cls,
                           common::TimeRange range, double fps)
    : engine_(index, ingest_cnn, gt_cnn), cls_(cls), range_(range), fps_(fps) {}

QueryBatch QuerySession::ExpandTo(int kx) {
  QueryBatch batch;
  batch.kx = std::max(kx, current_kx_);
  if (kx <= current_kx_) {
    return batch;
  }

  // Plan the increment: candidates newly admitted in (current_kx_, kx].
  const QueryPlan plan = engine_.Plan(cls_, kx, range_, fps_, /*min_kx=*/current_kx_);

  // Classify the centroids this session has not paid for yet — as one GT-CNN
  // batch (the sub-plan of uncached work items through ClassifyPlan). In the
  // monotonic-Kx flow every planned item is fresh (a cluster admitted now was
  // never admitted before), so the verdict cache is the §5 never-re-pay
  // guarantee, not a shortcut.
  QueryPlan fresh;
  fresh.queried = plan.queried;
  fresh.lookup = plan.lookup;
  fresh.kx = plan.kx;
  fresh.range_first = plan.range_first;
  fresh.range_last = plan.range_last;
  fresh.work.reserve(plan.work.size());
  for (const CentroidWorkItem& item : plan.work) {
    if (!verdicts_.contains(item.cluster_id)) {
      fresh.work.push_back(item);
    }
  }
  const common::Result<std::vector<common::ClassId>> fresh_verdicts =
      classifier_ ? classifier_(fresh) : engine_.ClassifyPlan(fresh);
  if (!fresh_verdicts.ok()) {
    // A failed verdict is not a fact about the centroid: record nothing, so a
    // retried ExpandTo(kx) re-plans and re-pays the step.
    batch.kx = current_kx_;
    batch.error = fresh_verdicts.error();
    return batch;
  }
  for (size_t i = 0; i < fresh.work.size(); ++i) {
    ++batch.centroids_classified;
    batch.gpu_millis += engine_.gt_cnn().inference_cost_millis();
    verdicts_[fresh.work[i].cluster_id] = (*fresh_verdicts)[i] == cls_;
  }

  // Fold the confirmed clusters' member runs, minus frames earlier batches
  // already returned.
  std::vector<std::pair<common::FrameIndex, common::FrameIndex>> new_runs;
  for (const CentroidWorkItem& item : plan.work) {
    if (!verdicts_.at(item.cluster_id)) {
      continue;
    }
    for (const cluster::MemberRun& run : engine_.index().runs(item.cluster_id)) {
      const common::FrameIndex first = std::max(run.first_frame, plan.range_first);
      const common::FrameIndex last = std::min(run.last_frame, plan.range_last);
      if (first > last) {
        continue;
      }
      AppendUncovered({first, last}, cumulative_runs_, &new_runs);
    }
  }

  batch.new_frame_runs = MergeFrameRuns(std::move(new_runs));
  for (const auto& [first, last] : batch.new_frame_runs) {
    batch.new_frames += last - first + 1;
  }

  // Fold the batch into the cumulative view.
  std::vector<std::pair<common::FrameIndex, common::FrameIndex>> all = cumulative_runs_;
  all.insert(all.end(), batch.new_frame_runs.begin(), batch.new_frame_runs.end());
  cumulative_runs_ = MergeFrameRuns(std::move(all));
  total_frames_ += batch.new_frames;
  total_centroids_ += batch.centroids_classified;
  total_gpu_millis_ += batch.gpu_millis;
  current_kx_ = kx;
  return batch;
}

}  // namespace focus::core
