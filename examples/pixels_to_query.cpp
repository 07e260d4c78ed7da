// Pixels to query: the whole stack with no simulator shortcuts on the vision side.
//
// The other examples consume the stream generator's detections directly (what a
// production deployment gets from its detector). This one starts from raw pixels and
// runs the real vision substrate end to end, exactly as §5 describes the ingest
// worker: render frames -> adaptive background subtraction -> blob extraction ->
// IoU tracking for object identity -> cheap CNN -> clustering -> top-K index ->
// query. Along the way it reports each stage's quality against the generator's
// ground truth (detection recall, tracking fragmentation, final query
// precision/recall).
//
// One simulator seam remains, documented in DESIGN.md: the simulated CNN needs to
// know which true object a pixel crop shows (a real CNN would just look at the
// pixels), so each vision detection is associated back to the generator's box with
// the highest IoU. The association is part of the demonstration: it is measured and
// reported, not assumed.
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "src/cluster/incremental_clusterer.h"
#include "src/cnn/ground_truth.h"
#include "src/cnn/specialization.h"
#include "src/common/logging.h"
#include "src/core/accuracy_evaluator.h"
#include "src/core/query_engine.h"
#include "src/video/renderer.h"
#include "src/video/stream_generator.h"
#include "src/vision/motion_detector.h"
#include "src/vision/tracker.h"

int main() {
  using namespace focus;
  common::SetLogLevel(common::LogLevel::kWarning);

  video::ClassCatalog catalog(42);
  video::StreamProfile profile;
  if (!video::FindProfile("auburn_c", &profile)) {
    return 1;
  }
  video::StreamRun run(&catalog, profile, /*duration_sec=*/180.0, /*fps=*/30.0, /*seed=*/7);
  video::Renderer renderer(&run);
  cnn::Cnn gt(cnn::GtCnnDesc(catalog.world_seed()), &catalog);

  // Ground-truth detections per frame (for association and quality accounting).
  std::map<common::FrameIndex, std::vector<video::Detection>> truth_dets;
  run.ForEachFrame([&](common::FrameIndex frame, const std::vector<video::Detection>& dets) {
    truth_dets[frame] = dets;
  });

  // A specialized cheap model, trained the same way FocusStream would.
  cnn::ClassDistributionEstimate distribution =
      cnn::EstimateClassDistribution(run, gt, 120.0, /*frame_stride=*/10);
  cnn::SpecializationOptions spec;
  spec.ls = 15;
  cnn::ModelDesc cheap_desc =
      cnn::TrainSpecializedModel(distribution, spec, profile.appearance_variability, 77);
  cnn::Cnn cheap(cheap_desc, &catalog);
  constexpr int kTopK = 4;
  constexpr double kThreshold = 0.6;

  vision::MotionDetector detector(profile.frame_width, profile.frame_height);
  vision::IouTracker tracker;
  cluster::IncrementalClusterer clusterer({.threshold = kThreshold});

  // Per-cluster class ranks (the IT3/IT4 aggregation of src/core/ingest_pipeline.cc,
  // inlined here because the detections come from pixels, not from a StreamRun).
  std::map<int64_t, std::map<common::ClassId, int32_t>> ranks;

  int64_t vision_boxes = 0;
  int64_t matched_boxes = 0;
  int64_t truth_boxes = 0;
  double recall_sum = 0.0;
  int64_t recall_frames = 0;
  common::GpuMillis cheap_gpu = 0.0;

  const common::FrameIndex num_frames = run.num_frames();
  for (common::FrameIndex frame = 0; frame < num_frames; ++frame) {
    video::FrameBuffer pixels = renderer.Render(frame);
    std::vector<video::BBox> boxes = detector.Detect(pixels);
    std::vector<vision::TrackedBox> tracked = tracker.Update(frame, boxes);

    const std::vector<video::Detection>& truth = truth_dets[frame];
    truth_boxes += static_cast<int64_t>(truth.size());
    if (!truth.empty()) {
      std::vector<video::BBox> truth_only;
      for (const video::Detection& d : truth) {
        truth_only.push_back(d.bbox);
      }
      recall_sum += vision::DetectionRecall(boxes, truth_only, 0.3f);
      ++recall_frames;
    }

    for (const vision::TrackedBox& tb : tracked) {
      ++vision_boxes;
      // Associate the pixel detection with the generator's best-overlapping truth
      // box — the simulator seam described in the header comment.
      const video::Detection* best = nullptr;
      float best_iou = 0.2f;
      for (const video::Detection& d : truth) {
        float iou = video::IoU(tb.bbox, d.bbox);
        if (iou > best_iou) {
          best_iou = iou;
          best = &d;
        }
      }
      if (best == nullptr) {
        continue;  // Vision false positive: nothing real under the box.
      }
      ++matched_boxes;

      video::Detection det = *best;       // True identity from the association...
      det.bbox = tb.bbox;                 // ...geometry from the vision pipeline...
      det.object_id = tb.track_id;        // ...and identity continuity from the tracker.
      det.frame = frame;

      cheap_gpu += cheap.inference_cost_millis();
      cnn::TopKResult topk = cheap.Classify(det, kTopK);
      common::FeatureVec feature = cheap.ExtractFeature(det);
      int64_t cluster_id = clusterer.Add(det, feature);
      auto& rank_map = ranks[cluster_id];
      for (size_t pos = 0; pos < topk.entries.size(); ++pos) {
        auto [it, inserted] =
            rank_map.try_emplace(topk.entries[pos].first, static_cast<int32_t>(pos) + 1);
        if (!inserted && static_cast<int32_t>(pos) + 1 < it->second) {
          it->second = static_cast<int32_t>(pos) + 1;
        }
      }
    }
  }

  // IT4: build the index from the pixel-path clusters.
  index::IndexBuilder builder;
  for (const cluster::Cluster& c : clusterer.clusters()) {
    index::ClusterEntry entry;
    entry.representative = c.representative;
    entry.members = c.members;
    entry.size = c.size;
    for (const auto& [cls, rank] : ranks[c.id]) {
      entry.topk_classes.push_back(cls);
      entry.topk_ranks.push_back(rank);
    }
    builder.Add(entry);
  }
  const index::TopKIndex index = builder.Finish();

  std::printf("== Vision stages ==\n");
  std::printf("  frames rendered:        %lld\n", static_cast<long long>(num_frames));
  std::printf("  mean detection recall:  %.1f%% (IoU>=0.3 vs generator boxes)\n",
              recall_frames > 0 ? 100.0 * recall_sum / recall_frames : 0.0);
  std::printf("  boxes tracked:          %lld (%lld matched to truth, %lld tracks)\n",
              static_cast<long long>(vision_boxes), static_cast<long long>(matched_boxes),
              static_cast<long long>(tracker.tracks_started()));
  std::printf("  clusters built:         %zu\n", clusterer.num_clusters());

  // Query the pixel-built index and score against the GT-CNN segment truth.
  cnn::SegmentGroundTruth truth(run, gt);
  core::AccuracyEvaluator evaluator(&truth, run.fps());
  core::QueryEngine engine(&index, &cheap, &gt);
  std::vector<common::ClassId> dominant = truth.DominantClasses(0.95, 5);

  std::printf("\n== Queries over the pixel-built index ==\n");
  std::printf("  %-20s %8s %8s %10s %10s\n", "Class", "Prec", "Recall", "Frames", "GT-CNN ms");
  for (common::ClassId cls : dominant) {
    core::QueryResult qr = engine.Query(cls, kTopK, {}, run.fps());
    core::PrecisionRecall pr = evaluator.Evaluate(cls, qr);
    std::printf("  %-20s %8.3f %8.3f %10lld %10.0f\n", catalog.Name(cls).c_str(), pr.precision,
                pr.recall, static_cast<long long>(qr.frames_returned), qr.gpu_millis);
  }
  const double gt_all = static_cast<double>(matched_boxes) * gt.inference_cost_millis();
  std::printf("\nIngest GPU: %.1f s cheap CNN (GT-CNN on everything would be %.1f s, %.0fx)\n",
              cheap_gpu / 1000.0, gt_all / 1000.0, cheap_gpu > 0 ? gt_all / cheap_gpu : 0.0);
  return 0;
}
