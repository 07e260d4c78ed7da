// Simulated CNN inference: ranked classifications and feature vectors.
//
// A Cnn binds a ModelDesc to a ClassCatalog and produces, for any Detection, the two
// outputs the paper's pipeline consumes: a ranked top-K class list with confidences
// (§4.1 "Top-K Ingest Index") and a penultimate-layer feature vector (§4.2). Outputs
// are deterministic in (model, object, frame): the same detection always classifies
// identically, and the same object is classified consistently across frames except
// for calibrated flicker. There are no weights; the error statistics come from
// src/cnn/accuracy_model.h.
//
// Confusions are structured, not uniform: when the model misranks the true class, the
// higher-ranked (wrong) classes are biased toward the true class's semantic group
// (a truck misread as a car, not as a flamingo), which is what makes the top-K sets
// of different objects overlap and gives queries realistic false-candidate loads.
#ifndef FOCUS_SRC_CNN_CNN_H_
#define FOCUS_SRC_CNN_CNN_H_

#include <span>
#include <utility>
#include <vector>

#include "src/cnn/accuracy_model.h"
#include "src/cnn/cost_model.h"
#include "src/cnn/model_desc.h"
#include "src/common/feature_vector.h"
#include "src/common/rng.h"
#include "src/video/class_catalog.h"
#include "src/video/detection.h"

namespace focus::cnn {

// One ranked classification result.
struct TopKResult {
  // Classes in decreasing confidence order, exactly k entries (or the full label
  // space if smaller). Confidences decay geometrically and sum to <= 1.
  std::vector<std::pair<common::ClassId, float>> entries;

  bool Contains(common::ClassId cls) const {
    for (const auto& [c, conf] : entries) {
      if (c == cls) {
        return true;
      }
    }
    return false;
  }

  // 1-based rank of |cls| in the result; 0 when absent.
  int RankOf(common::ClassId cls) const {
    for (size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].first == cls) {
        return static_cast<int>(i) + 1;
      }
    }
    return 0;
  }

  common::ClassId Top1() const {
    return entries.empty() ? common::kInvalidClass : entries[0].first;
  }
};

class Cnn {
 public:
  Cnn(ModelDesc desc, const video::ClassCatalog* catalog);

  const ModelDesc& desc() const { return desc_; }
  const AccuracyParams& accuracy() const { return accuracy_; }
  common::GpuMillis inference_cost_millis() const { return cost_millis_; }

  // Classifies |detection|, returning the top |k| classes. Deterministic.
  TopKResult Classify(const video::Detection& detection, int k) const;

  // Classifies every detection of |detections| as one GPU batch, overwriting
  // |results| with one entry per input, in order. Outputs are identical to
  // per-element Classify(detection, k) — batching changes when and at what cost
  // the work runs (BatchCostMillis amortizes the launch overhead across the
  // batch), never what it computes. This is the execution primitive of the §5
  // plan/execute query path: QueryEngine::Plan emits centroid work items,
  // batches of them are classified here, QueryEngine::Resolve folds the
  // verdicts back into a QueryResult.
  void ClassifyBatch(std::span<const video::Detection> detections, int k,
                     std::vector<TopKResult>* results) const;
  // Gather form for callers whose detections are not contiguous (a fleet
  // launch packs work items of several plans): classifies through the
  // pointers, no copies.
  void ClassifyBatch(std::span<const video::Detection* const> detections, int k,
                     std::vector<TopKResult>* results) const;

  // GPU milliseconds to classify a |batch_size|-image batch in one launch.
  // Exactly inference_cost_millis() at batch_size = 1; cheaper than batch_size
  // separate launches above it (cost_model.h, kLaunchOverheadShare).
  common::GpuMillis BatchCostMillis(int64_t batch_size) const;

  // Batch-cost estimator and packing identity for this model (cost_model.h):
  // a fleet packer groups work by pack_key() — instances sharing a key have
  // the same architecture and may share a launch — and weighs candidate
  // launches with batch_cost_model() estimates.
  BatchCostModel batch_cost_model() const { return BatchCostModel::For(desc_); }
  ModelPackKey pack_key() const { return ModelPackKey::Of(desc_); }

  // Fast path: the top-1 class only (equivalent to Classify(detection, 1).Top1()).
  common::ClassId Top1(const video::Detection& detection) const;

  // The model's label for |detection|'s true class: the class itself when the model
  // knows it, kOtherClass for a specialized model seeing an out-of-set class, or a
  // deterministic confusable stand-in when a generic model lacks the class entirely
  // (cannot happen with the full generic space).
  common::ClassId MapTrueLabel(common::ClassId true_class) const;

  // Rank at which |detection|'s (mapped) true class appears in this model's full
  // ranked output. O(1); used by recall evaluation without building lists.
  int TrueClassRank(const video::Detection& detection) const;

  // Penultimate-layer feature vector for |detection| (unit norm). Deterministic.
  common::FeatureVec ExtractFeature(const video::Detection& detection) const;

  int label_space_size() const { return desc_.label_space_size(); }

 private:
  // Deterministic RNG for a given (object, draw-kind) pair.
  common::Pcg32 RngFor(const video::Detection& detection, uint64_t kind, bool per_frame) const;

  // Index of |cls| in the label space, or -1.
  int LabelIndex(common::ClassId cls) const;

  ModelDesc desc_;
  const video::ClassCatalog* catalog_;
  AccuracyParams accuracy_;
  common::GpuMillis cost_millis_;

  // Label space materialized (generic: 0..999; specialized: classes + OTHER).
  std::vector<common::ClassId> labels_;
  // For confusion sampling: labels grouped by semantic group of the underlying class
  // (OTHER belongs to no group).
  std::vector<std::vector<common::ClassId>> labels_by_group_;
  // Reverse map class -> index in labels_ (kNumClasses+1 entries).
  std::vector<int> label_index_;
};

}  // namespace focus::cnn

#endif  // FOCUS_SRC_CNN_CNN_H_
