#include "src/core/parameter_tuner.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>

#include "src/cnn/model_zoo.h"
#include "src/common/logging.h"
#include "src/runtime/worker_pool.h"

namespace focus::core {

namespace {

// Sampling stride for the class-distribution estimate (§4.3 "Model Retraining"
// samples a small fraction of frames).
constexpr int kDistributionFrameStride = 5;

// Small slack above the targets when screening on the sample, to absorb
// sample-to-full generalization error.
constexpr double kTargetMargin = 0.015;

}  // namespace

const char* PolicyName(Policy policy) {
  switch (policy) {
    case Policy::kBalance:
      return "Balance";
    case Policy::kOptIngest:
      return "Opt-Ingest";
    case Policy::kOptQuery:
      return "Opt-Query";
  }
  return "?";
}

ParameterTuner::ParameterTuner(const video::ClassCatalog* catalog, const cnn::Cnn* gt_cnn,
                               TunerOptions options)
    : catalog_(catalog), gt_cnn_(gt_cnn), options_(std::move(options)) {
  assert(catalog_ != nullptr && gt_cnn_ != nullptr);
}

std::vector<cnn::ModelDesc> ParameterTuner::CandidateModels(
    const cnn::ClassDistributionEstimate& distribution, double stream_variability,
    uint64_t seed) const {
  std::vector<cnn::ModelDesc> models;
  if (options_.include_generic_models) {
    for (cnn::ModelDesc desc : cnn::GenericCheapCandidates(catalog_->world_seed())) {
      models.push_back(std::move(desc));
    }
  }
  if (options_.include_specialized_models) {
    for (int ls : options_.ls_grid) {
      for (const cnn::SpecializedArch& arch : cnn::SpecializedArchGrid()) {
        cnn::SpecializationOptions sopts;
        sopts.ls = ls;
        sopts.layers = arch.layers;
        sopts.input_px = arch.input_px;
        models.push_back(cnn::TrainSpecializedModel(distribution, sopts, stream_variability, seed));
      }
    }
  }
  return models;
}

size_t ChooseByPolicy(const std::vector<EvaluatedConfig>& evaluated,
                      const std::vector<size_t>& pareto, Policy policy) {
  assert(!pareto.empty());
  switch (policy) {
    case Policy::kBalance: {
      size_t best = pareto.front();
      double best_sum = std::numeric_limits<double>::max();
      for (size_t idx : pareto) {
        double sum = evaluated[idx].ingest_cost_norm + evaluated[idx].query_latency_norm;
        if (sum < best_sum) {
          best_sum = sum;
          best = idx;
        }
      }
      return best;
    }
    case Policy::kOptIngest: {
      size_t best = pareto.front();
      for (size_t idx : pareto) {
        if (evaluated[idx].ingest_cost_norm < evaluated[best].ingest_cost_norm) {
          best = idx;
        }
      }
      return best;
    }
    case Policy::kOptQuery: {
      size_t best = pareto.front();
      for (size_t idx : pareto) {
        if (evaluated[idx].query_latency_norm < evaluated[best].query_latency_norm) {
          best = idx;
        }
      }
      return best;
    }
  }
  return pareto.front();
}

TuningResult SelectFromEvaluated(std::vector<EvaluatedConfig> evaluated,
                                 const AccuracyTarget& target, Policy policy) {
  TuningResult result;
  // The screening margin must never push the bar above 1.0 — a 99%+ user target
  // would otherwise be unsatisfiable by construction.
  const double precision_bar = std::min(1.0, target.precision + kTargetMargin);
  const double recall_bar = std::min(1.0, target.recall + kTargetMargin);
  for (EvaluatedConfig& cfg : evaluated) {
    cfg.viable = cfg.precision >= precision_bar && cfg.recall >= recall_bar;
  }
  result.evaluated = std::move(evaluated);
  for (size_t i = 0; i < result.evaluated.size(); ++i) {
    if (result.evaluated[i].viable) {
      result.viable_indices.push_back(i);
    }
  }
  if (result.viable_indices.empty()) {
    // No configuration met both targets on the sample: fall back to the one closest
    // to viability so callers still get a usable deployment.
    size_t best = 0;
    double best_score = -1.0;
    for (size_t i = 0; i < result.evaluated.size(); ++i) {
      const EvaluatedConfig& c = result.evaluated[i];
      double score = std::min(c.precision / target.precision, c.recall / target.recall);
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    result.chosen_index = best;
    result.found = !result.evaluated.empty();
    if (result.found) {
      FOCUS_LOG(kWarning) << "tuner: no viable config; falling back to closest (P="
                          << result.evaluated[best].precision
                          << " R=" << result.evaluated[best].recall << ")";
    }
    return result;
  }

  // Pareto boundary over the viable set.
  std::vector<CostPoint> points;
  points.reserve(result.viable_indices.size());
  for (size_t idx : result.viable_indices) {
    points.push_back(
        {result.evaluated[idx].ingest_cost_norm, result.evaluated[idx].query_latency_norm});
  }
  std::vector<size_t> local_pareto = ParetoBoundary(points);
  result.pareto_indices.reserve(local_pareto.size());
  for (size_t local : local_pareto) {
    result.pareto_indices.push_back(result.viable_indices[local]);
  }

  result.chosen_index = ChooseByPolicy(result.evaluated, result.pareto_indices, policy);
  result.found = true;
  return result;
}

TuningResult ParameterTuner::Tune(const video::StreamRun& run, double stream_variability,
                                  const AccuracyTarget& target, Policy policy) const {
  return SelectFromEvaluated(EvaluateGrid(run, stream_variability), target, policy);
}

std::vector<EvaluatedConfig> ParameterTuner::EvaluateGrid(const video::StreamRun& run,
                                                          double stream_variability) const {
  std::vector<EvaluatedConfig> evaluated;
  last_tuning_gpu_millis_ = 0.0;

  // Sample window (prefix of the stream; StreamRun content is prefix-stable).
  const double sample_sec = std::min(options_.sample_sec, run.duration_sec());
  video::StreamRun sample(&run.catalog(), run.profile(), sample_sec, run.fps(), run.seed());

  // GT-CNN ground truth over the sample, charged as tuning GPU time.
  cnn::SegmentGroundTruth sample_truth(sample, *gt_cnn_);
  last_tuning_gpu_millis_ +=
      static_cast<double>(sample_truth.total_detections()) * gt_cnn_->inference_cost_millis();

  // Class-distribution estimate for specialization (§4.3).
  cnn::ClassDistributionEstimate distribution = cnn::EstimateClassDistribution(
      sample, *gt_cnn_, sample_sec, kDistributionFrameStride);
  last_tuning_gpu_millis_ += distribution.gpu_cost_millis;

  const std::vector<common::ClassId> dominant =
      sample_truth.DominantClasses(options_.dominant_coverage, options_.max_dominant_classes);
  if (dominant.empty()) {
    FOCUS_LOG(kWarning) << "tuner: sample of " << run.profile().name
                        << " has no dominant classes; cannot tune";
    return evaluated;
  }

  AccuracyEvaluator evaluator(&sample_truth, sample.fps());

  // Denominator for both normalized axes: GT-CNN over every sampled detection.
  int64_t sample_detections = 0;
  sample.ForEachFrame([&](common::FrameIndex, const std::vector<video::Detection>& dets) {
    sample_detections += static_cast<int64_t>(dets.size());
  });
  const double gt_all_millis =
      static_cast<double>(sample_detections) * gt_cnn_->inference_cost_millis();
  if (gt_all_millis <= 0.0) {
    FOCUS_LOG(kWarning) << "tuner: sample of " << run.profile().name << " has no detections";
    return evaluated;
  }

  const std::vector<cnn::ModelDesc> models =
      CandidateModels(distribution, stream_variability, run.seed());

  // One clusterer reused across the whole (model, T) grid: every re-run Resets
  // it, keeping the shards' centroid arenas and cluster allocations warm.
  // Likewise one worker pool above one shard — the grid re-runs
  // RunIngestClassified per configuration, and spawning/joining num_shards
  // threads on each would dominate small samples.
  cluster::ShardedClusterer cluster_scratch;
  std::unique_ptr<runtime::WorkerPool> shard_pool;
  if (options_.ingest.num_shards > 1) {
    shard_pool = std::make_unique<runtime::WorkerPool>(
        options_.ingest.num_shards,
        /*queue_capacity=*/static_cast<size_t>(options_.ingest.num_shards) * 2,
        /*pop_batch=*/1);
  }

  for (const cnn::ModelDesc& desc : models) {
    cnn::Cnn cheap(desc, catalog_);
    const int space = cheap.label_space_size();
    // Widest K we may use for this model.
    int k_max = 1;
    for (int k : options_.k_grid) {
      if (k <= space) {
        k_max = std::max(k_max, k);
      }
    }
    // The CNN outputs are threshold-independent: classify the sample once per model
    // and replay the stored outputs through clustering+indexing per T.
    const ClassifiedSample classified = ClassifySample(sample, cheap, k_max, options_.ingest);
    for (double threshold : options_.threshold_grid) {
      IngestParams params;
      params.model = desc;
      params.k = k_max;
      params.cluster_threshold = threshold;
      params.ls = desc.specialized() ? static_cast<int>(desc.classes.size()) : 0;

      IngestResult ingest =
          RunIngestClassified(classified, params, options_.ingest, &cluster_scratch,
                              shard_pool.get());
      const double ingest_norm = ingest.gpu_millis / gt_all_millis;

      // Evaluate every K <= k_max as a query-time Kx over the k_max-wide index (§5:
      // index width and query-time filter width are interchangeable at equal K).
      QueryEngine engine(&ingest.index, &cheap, gt_cnn_);
      for (int k : options_.k_grid) {
        if (k > space) {
          continue;
        }
        double sum_p = 0.0;
        double sum_r = 0.0;
        double query_millis = 0.0;
        for (common::ClassId cls : dominant) {
          QueryResult qr = engine.Query(cls, /*kx=*/k, {}, sample.fps());
          PrecisionRecall pr = evaluator.Evaluate(cls, qr);
          sum_p += pr.precision;
          sum_r += pr.recall;
          query_millis += qr.gpu_millis;
        }
        EvaluatedConfig cfg;
        cfg.params = params;
        cfg.params.k = k;
        cfg.precision = sum_p / static_cast<double>(dominant.size());
        cfg.recall = sum_r / static_cast<double>(dominant.size());
        cfg.ingest_cost_norm = ingest_norm;
        cfg.query_latency_norm =
            (query_millis / static_cast<double>(dominant.size())) / gt_all_millis;
        evaluated.push_back(std::move(cfg));
      }
    }
  }

  return evaluated;
}

}  // namespace focus::core
