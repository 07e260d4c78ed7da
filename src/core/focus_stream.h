// FocusStream: the end-to-end public API of the system for one video stream.
//
// Usage:
//   video::ClassCatalog catalog(seed);
//   video::StreamRun run(&catalog, profile, duration, fps, seed);
//   auto focus = core::FocusStream::Build(&run, &catalog, options);   // tune + ingest
//   core::QueryResult cars = focus->Query(catalog.IdForName("car"));  // query
//
// Build() performs the full ingest-time side: parameter tuning on a sample window
// (§4.4), specialization (§4.3), and indexing of the whole recording (§4.1, §4.2).
// Query() performs the query-time side (§3 QT1-QT4) with optional dynamic Kx (§5).
#ifndef FOCUS_SRC_CORE_FOCUS_STREAM_H_
#define FOCUS_SRC_CORE_FOCUS_STREAM_H_

#include <memory>

#include "src/cnn/cnn.h"
#include "src/cnn/ground_truth.h"
#include "src/common/result.h"
#include "src/core/accuracy_evaluator.h"
#include "src/core/config.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/parameter_tuner.h"
#include "src/core/query_engine.h"
#include "src/video/stream_generator.h"

namespace focus::core {

struct FocusOptions {
  AccuracyTarget target;
  Policy policy = Policy::kBalance;
  TunerOptions tuner;
  IngestOptions ingest;
};

class FocusStream {
 public:
  // Tunes parameters on a sample of |run| and ingests the whole recording. |run| and
  // |catalog| must outlive the returned object.
  static common::Result<std::unique_ptr<FocusStream>> Build(const video::StreamRun* run,
                                                            const video::ClassCatalog* catalog,
                                                            const FocusOptions& options);

  FocusStream(const FocusStream&) = delete;
  FocusStream& operator=(const FocusStream&) = delete;

  // Query for all frames containing objects of |cls| (§3). |kx| <= K optionally
  // narrows the index filter (§5); |range| restricts to a time window. One-call
  // form of the plan/execute pair below (byte-identical results).
  QueryResult Query(common::ClassId cls, int kx = -1, common::TimeRange range = {}) const;

  // Plan/execute form (§5; see query_engine.h): Plan() is the free index-lookup
  // half at this stream's recording fps; an executor classifies the plan's
  // centroid work items (batched, possibly shared across concurrent queries —
  // runtime::FleetQueryService) and Resolve() folds the verdicts into the result.
  QueryPlan Plan(common::ClassId cls, int kx = -1, common::TimeRange range = {}) const;
  QueryResult Resolve(const QueryPlan& plan,
                      std::span<const common::ClassId> verdicts) const;

  const TuningResult& tuning() const { return tuning_; }
  const IngestParams& chosen_params() const { return tuning_.chosen().params; }
  const IngestResult& ingest() const { return ingest_; }
  const cnn::Cnn& gt_cnn() const { return *gt_cnn_; }
  const cnn::Cnn& ingest_cnn() const { return *ingest_cnn_; }
  const video::StreamRun& run() const { return *run_; }

  // Total ingest-side GPU time: indexing plus the tuning/retraining sample labelling.
  common::GpuMillis total_ingest_gpu_millis() const {
    return ingest_.gpu_millis + tuning_gpu_millis_;
  }
  common::GpuMillis tuning_gpu_millis() const { return tuning_gpu_millis_; }

 private:
  FocusStream() = default;

  const video::StreamRun* run_ = nullptr;
  const video::ClassCatalog* catalog_ = nullptr;
  std::unique_ptr<cnn::Cnn> gt_cnn_;
  std::unique_ptr<cnn::Cnn> ingest_cnn_;
  TuningResult tuning_;
  IngestResult ingest_;
  common::GpuMillis tuning_gpu_millis_ = 0.0;
  std::unique_ptr<QueryEngine> engine_;
};

}  // namespace focus::core

#endif  // FOCUS_SRC_CORE_FOCUS_STREAM_H_
