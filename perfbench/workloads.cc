#include "perfbench/workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <sstream>

#include "src/cnn/ground_truth.h"
#include "src/common/hashing.h"
#include "src/common/rng.h"
#include "src/core/accuracy_evaluator.h"

namespace focus::perfbench {

uint64_t RecordingSeed(const std::string& name) {
  return common::DeriveSeed(kRecordingSeed, common::HashString(name));
}

video::StreamProfile ProfileOrDie(const std::string& name) {
  video::StreamProfile profile;
  if (!video::FindProfile(name, &profile)) {
    std::fprintf(stderr, "unknown stream profile %s\n", name.c_str());
    std::exit(2);
  }
  return profile;
}

core::TunerOptions BenchTunerOptions() {
  core::TunerOptions options;
  options.sample_sec = 90.0;
  options.k_grid = {4, 8};
  options.threshold_grid = {0.45, 0.6};
  options.ls_grid = {15};
  options.include_generic_models = false;
  return options;
}

bool TuneStream(const video::ClassCatalog& catalog, const cnn::Cnn& gt, const std::string& name,
                double duration_sec, TunedStream* out) {
  out->name = name;
  const video::StreamProfile profile = ProfileOrDie(name);
  out->run = std::make_unique<video::StreamRun>(&catalog, profile, duration_sec, kFps,
                                                RecordingSeed(name));
  const int64_t t0 = NowNs();
  const core::ParameterTuner tuner(&catalog, &gt, BenchTunerOptions());
  const core::TuningResult tuning = tuner.Tune(*out->run, profile.appearance_variability,
                                               core::AccuracyTarget{}, core::Policy::kBalance);
  out->tune_ms = MillisBetween(t0, NowNs());
  out->configs = static_cast<int64_t>(tuning.evaluated.size());
  if (!tuning.found) {
    return false;
  }
  out->params = tuning.chosen().params;
  return true;
}

StreamAccuracy ScoreIndex(const video::StreamRun& run, const index::TopKIndex& index,
                          const cnn::Cnn& ingest_cnn, const cnn::Cnn& gt, int64_t detections,
                          double ingest_gpu_ms) {
  StreamAccuracy score;
  const cnn::SegmentGroundTruth truth(run, gt);
  const core::AccuracyEvaluator evaluator(&truth, run.fps());
  const core::QueryEngine engine(&index, &ingest_cnn, &gt);
  const std::vector<common::ClassId> dominant = truth.DominantClasses(0.95, 12);
  double query_gpu_ms = 0.0;
  for (common::ClassId cls : dominant) {
    const core::QueryResult result = engine.Query(cls, -1, {}, run.fps());
    const core::PrecisionRecall pr = evaluator.Evaluate(cls, result);
    score.precision += pr.precision;
    score.recall += pr.recall;
    query_gpu_ms += result.gpu_millis;
  }
  score.classes = static_cast<int64_t>(dominant.size());
  const double gt_all_ms = static_cast<double>(detections) * gt.inference_cost_millis();
  if (!dominant.empty()) {
    const double n = static_cast<double>(dominant.size());
    score.precision /= n;
    score.recall /= n;
    score.query_faster_by = query_gpu_ms > 0.0 ? gt_all_ms / (query_gpu_ms / n) : 0.0;
  }
  score.ingest_cheaper_by = ingest_gpu_ms > 0.0 ? gt_all_ms / ingest_gpu_ms : 0.0;
  return score;
}

void ReportAccuracy(RunContext& ctx, const std::vector<StreamAccuracy>& scores) {
  double precision = 0.0;
  double recall = 0.0;
  double cheaper = 0.0;
  double faster = 0.0;
  int64_t scored = 0;
  for (const StreamAccuracy& s : scores) {
    if (s.classes == 0) {
      continue;
    }
    precision += s.precision;
    recall += s.recall;
    cheaper += s.ingest_cheaper_by;
    faster += s.query_faster_by;
    ++scored;
  }
  if (scored == 0) {
    ctx.checks_failed = true;
    ctx.Note("FAIL accuracy: no stream had dominant classes to score");
    return;
  }
  const double n = static_cast<double>(scored);
  ctx.Set("precision", precision / n);
  ctx.Set("recall", recall / n);
  ctx.Set("ingest_cheaper_by", cheaper / n);
  ctx.Set("query_faster_by", faster / n);
  for (const StreamAccuracy& s : scores) {
    if (s.classes > 0 && (s.precision < 0.95 || s.recall < 0.95)) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "note: one stream scored P=%.4f R=%.4f (floor applies to the mean)",
                    s.precision, s.recall);
      ctx.Note(line);
    }
  }
  if (precision / n < 0.95 || recall / n < 0.95) {
    ctx.checks_failed = true;
    ctx.Note("FAIL accuracy: mean precision or recall below the 0.95 floor");
  }
}

namespace {

std::vector<std::vector<double>> Windows(const std::vector<double>& samples) {
  const size_t windows =
      std::clamp<size_t>(samples.size() / kMinWindowSamples, 1, kLatencyWindows);
  std::vector<std::vector<double>> out(windows);
  for (size_t i = 0; i < samples.size(); ++i) {
    out[i * windows / samples.size()].push_back(samples[i]);
  }
  return out;
}

}  // namespace

LatencyFigures WindowedLatency(RunContext& ctx, const std::string& label,
                               const std::vector<double>& samples) {
  std::vector<double> medians;
  std::vector<double> p90s;
  std::vector<double> tails;
  int tail = 0;
  for (const std::vector<double>& window : Windows(samples)) {
    tail = TailPercentile(window.size());
    medians.push_back(Median(window));
    p90s.push_back(Percentile(window, std::min(90, tail)));
    tails.push_back(Percentile(window, tail));
  }
  std::ostringstream line;
  line << label << ": " << samples.size() << " samples in " << medians.size()
       << " windows, tail reported at p" << tail << "; window medians";
  for (double m : medians) {
    line << " " << m;
  }
  ctx.Note(line.str());
  return {Median(medians), Median(p90s), Median(tails)};
}

void SetLatency(RunContext& ctx, const std::string& prefix, const std::vector<double>& samples) {
  const LatencyFigures figures = WindowedLatency(ctx, prefix, samples);
  ctx.Set(prefix + "_p50", figures.p50);
  ctx.Set(prefix + "_p90", figures.p90);
  ctx.Set(prefix + "_p99", figures.tail);
}

double WindowedRate(const std::vector<double>& busy_ms) {
  std::vector<double> rates;
  for (const std::vector<double>& window : Windows(busy_ms)) {
    double total = 0.0;
    for (double v : window) {
      total += v;
    }
    if (total > 0.0) {
      rates.push_back(1e3 * static_cast<double>(window.size()) / total);
    }
  }
  return Median(rates);
}

void SetProcCounters(RunContext& ctx, const ProcCounters& delta) {
  ctx.Set("proc.minflt", static_cast<double>(delta.minflt));
  ctx.Set("proc.majflt", static_cast<double>(delta.majflt));
  ctx.Set("proc.nvcsw", static_cast<double>(delta.nvcsw));
  ctx.Set("proc.nivcsw", static_cast<double>(delta.nivcsw));
}

void SetFleetMetrics(RunContext& ctx, const runtime::FleetServiceStats& stats, int batch_size) {
  ctx.Set("fleet.cache_hit_rate", stats.CacheHitRate());
  ctx.Set("fleet.dedup_hits", static_cast<double>(stats.dedup_hits));
  ctx.Set("fleet.launches", static_cast<double>(stats.launches));
  // Centroids each launch classified, as a share of a full batch.
  ctx.Set("fleet.batch_fill",
          stats.launches > 0 ? static_cast<double>(stats.cache_misses - stats.dedup_hits) /
                                   (static_cast<double>(stats.launches) * batch_size)
                             : 0.0);
  ctx.Set("fleet.cache_retired", static_cast<double>(stats.cache_retired));
}

std::vector<size_t> BlockOrder(size_t block, size_t count, uint64_t seed) {
  common::Pcg32 rng(seed);
  std::vector<size_t> perm(block);
  std::vector<size_t> order;
  order.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i % block == 0) {
      std::iota(perm.begin(), perm.end(), 0);
      std::shuffle(perm.begin(), perm.end(), rng);
    }
    order.push_back(perm[i % block]);
  }
  return order;
}

SnapshotSink MakeSnapshotSink(RunContext& ctx, SinkLog& log, const PacedStreamRun* run,
                              shm::EpochPublisher* plane, EpochCallback published) {
  return [&ctx, &log, run, plane,
          published = std::move(published)](std::shared_ptr<const core::LiveSnapshot> snap) {
    const int64_t t0 = NowNs();
    bool ok = true;
    if (plane != nullptr) {
      auto result = plane->Publish(*snap);
      ok = result.ok();
      if (ok) {
        ctx.ops.Ok("publish");
      } else {
        ctx.ops.Fail("publish", result.error().message);
      }
    }
    const int64_t t1 = NowNs();
    if (ok && published) {
      published(snap);
    }
    std::lock_guard<std::mutex> lock(log.mu);
    if (plane != nullptr) {
      log.flatten_ms.push_back(MillisBetween(t0, t1));
    }
    log.publish_delay_ms.push_back(MillisBetween(run->StampNs(snap->watermark - 1), t1));
    log.cut_ms.push_back(snap->stats.cut_millis);
    log.stall_ms.push_back(snap->stats.stall_millis);
    log.build_ms.push_back(snap->stats.build_millis);
    log.reused += snap->stats.entries_reused;
    log.rebuilt += snap->stats.entries_rebuilt;
    ++log.epochs;
    log.publish_failed += ok ? 0 : 1;
  };
}

void SetSnapshotMetrics(RunContext& ctx, const SinkLog& log, int epoch_divisor) {
  SetLatency(ctx, "publish_delay_ms", log.publish_delay_ms);
  SetLatency(ctx, "shm.flatten_ms", log.flatten_ms);
  ctx.Set("snapshot.epochs", static_cast<double>(log.epochs) / epoch_divisor);
  ctx.Set("snapshot.cut_ms", Median(log.cut_ms));
  ctx.Set("snapshot.stall_ms", Median(log.stall_ms));
  ctx.Set("snapshot.build_ms", Median(log.build_ms));
  ctx.Set("snapshot.reused_frac",
          log.reused + log.rebuilt > 0
              ? static_cast<double>(log.reused) / static_cast<double>(log.reused + log.rebuilt)
              : 0.0);
  ctx.Set("shm.publish_failed", static_cast<double>(log.publish_failed));
}

bool StripLatency(const std::string& response, std::string* stripped, double* latency_ms) {
  static const std::string kField = " LATENCY_MS ";
  const size_t line_end = response.find('\n');
  const size_t at = response.find(kField);
  if (at == std::string::npos || (line_end != std::string::npos && at > line_end)) {
    return false;
  }
  const size_t value_at = at + kField.size();
  size_t value_end = response.find_first_of(" \n", value_at);
  if (value_end == std::string::npos) {
    value_end = response.size();
  }
  *latency_ms = std::strtod(response.substr(value_at, value_end - value_at).c_str(), nullptr);
  *stripped = response.substr(0, at) + response.substr(value_end);
  return true;
}

std::string ResultPayload(const core::QueryResult& result) {
  std::ostringstream out;
  out << "FRAMES " << result.frames_returned << " RUNS " << result.frame_runs.size()
      << " CENTROIDS " << result.centroids_classified << " GPU_MS " << result.gpu_millis;
  for (const auto& [first, last] : result.frame_runs) {
    out << "\nRUN " << first << " " << last;
  }
  return out.str();
}

uint64_t EpochOf(const std::string& response) {
  static const std::string kField = " EPOCH ";
  const size_t at = response.find(kField);
  if (at == std::string::npos) {
    return 0;
  }
  return std::strtoull(response.c_str() + at + kField.size(), nullptr, 10);
}

std::string SpecSuffix(const video::ClassCatalog& catalog, const QuerySpec& spec) {
  std::ostringstream out;
  out << " " << catalog.Name(spec.cls);
  if (spec.has_range) {
    out << " BEGIN " << spec.range.begin_sec << " END " << spec.range.end_sec;
  }
  if (spec.kx > 0) {
    out << " KX " << spec.kx;
  }
  return out.str();
}

}  // namespace focus::perfbench
