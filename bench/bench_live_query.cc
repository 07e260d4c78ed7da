// Live query-over-ingest: query latency against published epoch snapshots vs
// the status-quo "halt, finalize, then query", plus snapshot-publication
// overhead (src/core/live_snapshot.h, docs/live_query.md).
//
// The paper's headline scenario is querying video that is still being
// ingested. Without the windowed streaming finalize, the pipeline owns no
// canonical cluster table until the stream ends: answering "what is on this
// camera right now?" means materializing one — replaying the stream's
// clustering and finalizing — before the first index lookup can run, a cost
// that grows with the length of the stream. With it, the ingest loop
// publishes an epoch snapshot every finalize_every_frames, so a query pays
// plan + classify + resolve against a prebuilt immutable index — independent
// of how long the stream has been running.
//
// Per (num_shards in {1, 4}) x (stream length in {1/4, 1/2, 1/1} of the run):
//   live_query_ms       plan+classify+resolve on the newest snapshot (best of 7)
//   on_demand_ms        replay+one-shot-finalize at the same watermark + query
//   latency_ratio       on_demand_ms / live_query_ms
//   publish_total_ms    sum of all snapshot build times over the whole run
//   publish_overhead    publish_total_ms / ingest wall (the guardrail row)
//   entries_reused_frac fraction of index entries carried across epochs (delta)
//   identical           snapshot index == halt+finalize index, byte-compared
//
// Emits BENCH_live_query.json next to the binary. FOCUS_BENCH_LIVE_SEC
// overrides the simulated stream duration (default 240 s).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/cnn/ground_truth.h"
#include "src/cnn/model_zoo.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/live_snapshot.h"
#include "src/core/query_engine.h"
#include "src/video/stream_generator.h"

namespace {

using Clock = std::chrono::steady_clock;
using focus::core::ClassifiedSample;
using focus::core::IngestOptions;
using focus::core::IngestResult;
using focus::core::LiveSnapshot;

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

focus::core::IngestParams Params() {
  focus::core::IngestParams params;
  params.model = focus::cnn::GenericCheapCandidates(5)[1];
  params.k = 3;
  params.cluster_threshold = 0.6;
  return params;
}

ClassifiedSample Truncate(const ClassifiedSample& sample, focus::common::FrameIndex watermark,
                          const focus::cnn::Cnn& cheap) {
  ClassifiedSample out;
  out.k = sample.k;
  out.fps = sample.fps;
  for (const focus::core::ClassifiedDetection& d : sample.detections) {
    if (d.detection.frame >= watermark) {
      break;
    }
    if (d.reused) {
      ++out.suppressed;
    } else {
      ++out.cnn_invocations;
      out.gpu_millis += cheap.inference_cost_millis();
    }
    out.detections.push_back(d);
  }
  return out;
}

const std::string& Fingerprint(const focus::index::TopKIndex& index) { return index.image(); }

struct LiveQueryRow {
  int num_shards = 1;
  // Guardrail row (bench/check_bench_regression.py): only the full-length
  // stream rows gate publish_overhead — the short rows' publish sums are
  // sub-millisecond and swing with scheduler noise.
  bool gated = false;
  // Background publication mode: the builder thread assembles and publishes,
  // and publish_total_ms counts only the ingest thread's share (cut + queue
  // stall) — the cost the mode exists to hide. Sync rows keep the historical
  // whole-publication sum.
  bool background = false;
  int64_t stream_frames = 0;   // Frames fed before the query moment.
  int64_t watermark = 0;       // Newest snapshot's watermark at that moment.
  int64_t epochs = 0;
  double ingest_ms = 0.0;      // Wall of the cadenced ingest run.
  double publish_total_ms = 0.0;
  double cut_total_ms = 0.0;   // Ingest-thread cut share of publish_total_ms.
  double stall_total_ms = 0.0;  // Queue-backpressure share (background only).
  double publish_overhead = 0.0;
  double entries_reused_frac = 0.0;
  double live_query_ms = 0.0;
  double on_demand_ms = 0.0;
  double latency_ratio = 0.0;
  int64_t candidate_clusters = 0;
  bool identical = false;
};

LiveQueryRow RunConfig(const focus::video::StreamRun& run, const ClassifiedSample& sample,
                       const focus::cnn::Cnn& cheap, const focus::cnn::Cnn& gt, int num_shards,
                       double fraction, int64_t cadence_frames, bool background) {
  LiveQueryRow row;
  row.num_shards = num_shards;
  row.background = background;

  const focus::core::IngestParams params = Params();
  IngestOptions options;
  options.num_shards = num_shards;
  options.finalize_every_frames = cadence_frames;

  const int64_t total_frames = run.num_frames();
  row.stream_frames = std::max<int64_t>(cadence_frames + cadence_frames / 2,
                                        static_cast<int64_t>(fraction * total_frames));
  const ClassifiedSample fed = Truncate(sample, row.stream_frames, cheap);

  // The live deployment: cadenced ingest publishing snapshots as it goes.
  // Three reps, median overhead ratio: the guardrail gates the *share* of
  // ingest wall spent publishing, and a single rep's sub-millisecond sums
  // swing with scheduler noise.
  constexpr int kIngestReps = 3;
  std::shared_ptr<const LiveSnapshot> latest;
  std::vector<double> overheads;
  for (int rep = 0; rep < kIngestReps; ++rep) {
    latest = nullptr;
    row.epochs = 0;
    row.publish_total_ms = 0.0;
    row.cut_total_ms = 0.0;
    row.stall_total_ms = 0.0;
    int64_t reused = 0;
    int64_t rebuilt = 0;
    IngestOptions live = options;
    live.background_publish = background;
    // In background mode the sink runs on the builder thread, but the ingest
    // loop is blocked inside RunIngestClassified until the final flush joins,
    // so these captures are never touched concurrently.
    live.snapshot_sink = [&](std::shared_ptr<const LiveSnapshot> snap) {
      row.publish_total_ms += background
                                  ? snap->stats.cut_millis + snap->stats.stall_millis
                                  : snap->stats.build_millis;
      row.cut_total_ms += snap->stats.cut_millis;
      row.stall_total_ms += snap->stats.stall_millis;
      reused += snap->stats.entries_reused;
      rebuilt += snap->stats.entries_rebuilt;
      ++row.epochs;
      latest = std::move(snap);
    };
    const auto ingest_t0 = Clock::now();
    focus::core::RunIngestClassified(fed, params, live);
    row.ingest_ms = MillisSince(ingest_t0);
    if (latest == nullptr) {
      std::fprintf(stderr, "FAIL: no snapshot published (frames=%lld cadence=%lld)\n",
                   static_cast<long long>(row.stream_frames),
                   static_cast<long long>(cadence_frames));
      return row;
    }
    overheads.push_back(row.ingest_ms > 0.0 ? row.publish_total_ms / row.ingest_ms : 0.0);
    row.entries_reused_frac =
        reused + rebuilt > 0
            ? static_cast<double>(reused) / static_cast<double>(reused + rebuilt)
            : 0.0;
  }
  std::sort(overheads.begin(), overheads.end());
  row.publish_overhead = overheads[overheads.size() / 2];
  row.watermark = latest->watermark;

  // "What is on this camera right now?" — the heaviest query (most popular
  // class) against the newest snapshot. Best of 7: the snapshot is prebuilt,
  // so this is pure plan + classify + resolve.
  const focus::common::ClassId cls = run.classes_by_popularity().front();
  const focus::core::QueryEngine snapshot_engine(latest.get(), &cheap, &gt);
  focus::core::QueryResult live_result;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    live_result = snapshot_engine.Query(cls, -1, {}, run.fps());
    const double ms = MillisSince(t0);
    row.live_query_ms = rep == 0 ? ms : std::min(row.live_query_ms, ms);
  }
  row.candidate_clusters = live_result.centroids_classified;

  // The status quo at the same moment: no published table exists, so the
  // query must first materialize one — replay the stream's clustering to the
  // watermark and finalize one-shot — before it can plan.
  const ClassifiedSample halted_sample = Truncate(sample, row.watermark, cheap);
  const auto on_demand_t0 = Clock::now();
  const IngestResult halted = focus::core::RunIngestClassified(halted_sample, params, options);
  const focus::core::QueryEngine halted_engine(&halted.index, &cheap, &gt);
  const focus::core::QueryResult on_demand_result = halted_engine.Query(cls, -1, {}, run.fps());
  row.on_demand_ms = MillisSince(on_demand_t0);
  row.latency_ratio = row.live_query_ms > 0.0 ? row.on_demand_ms / row.live_query_ms : 0.0;

  // Byte-identity: the snapshot answers exactly what halting at its watermark
  // and finalizing answers.
  row.identical = Fingerprint(latest->index) == Fingerprint(halted.index) &&
                  live_result.frame_runs == on_demand_result.frame_runs;
  return row;
}

}  // namespace

int main() {
  double duration_sec = 240.0;
  if (const char* env = std::getenv("FOCUS_BENCH_LIVE_SEC")) {
    duration_sec = std::atof(env);
  }
  constexpr int64_t kCadenceFrames = 256;

  focus::video::ClassCatalog catalog(17);
  focus::video::StreamProfile profile;
  if (!focus::video::FindProfile("auburn_c", &profile)) {
    std::fprintf(stderr, "FAIL: profile auburn_c missing\n");
    return 1;
  }
  focus::video::StreamRun run(&catalog, profile, duration_sec, 30.0, 11);
  focus::cnn::Cnn cheap(Params().model, &catalog);
  focus::cnn::Cnn gt(focus::cnn::GtCnnDesc(catalog.world_seed()), &catalog);
  const ClassifiedSample sample = focus::core::ClassifySample(run, cheap, Params().k);

  std::printf(
      "live query-over-ingest (%.0f s stream, snapshot every %lld sampled frames)\n"
      "%6s %3s %8s %9s %7s %10s %9s %8s %10s %11s %7s %6s %9s\n",
      duration_sec, static_cast<long long>(kCadenceFrames), "shards", "bg", "frames",
      "watermark", "epochs", "publish ms", "overhead", "reused", "live q ms", "on-demand",
      "ratio", "cand", "identical");

  std::vector<LiveQueryRow> rows;
  bool ok = true;
  const auto print_row = [](const LiveQueryRow& row) {
    std::printf(
        "%6d %3s %8lld %9lld %7lld %10.1f %8.1f%% %7.0f%% %10.3f %11.1f %6.1fx %6lld %9s\n",
        row.num_shards, row.background ? "yes" : "no",
        static_cast<long long>(row.stream_frames), static_cast<long long>(row.watermark),
        static_cast<long long>(row.epochs), row.publish_total_ms, 100.0 * row.publish_overhead,
        100.0 * row.entries_reused_frac, row.live_query_ms, row.on_demand_ms, row.latency_ratio,
        static_cast<long long>(row.candidate_clusters), row.identical ? "yes" : "NO");
  };
  // Warmup: first config otherwise pays one-time allocator/paging costs.
  RunConfig(run, sample, cheap, gt, 1, 0.5, kCadenceFrames, /*background=*/false);
  for (int num_shards : {1, 4}) {
    for (double fraction : {0.25, 0.5, 1.0}) {
      LiveQueryRow row = RunConfig(run, sample, cheap, gt, num_shards, fraction, kCadenceFrames,
                                   /*background=*/false);
      row.gated = fraction == 1.0;
      ok = ok && row.identical;
      print_row(row);
      rows.push_back(row);
    }
    // Background publication row: full-length stream only — the mode exists
    // to hide publication cost on long runs, and the short rows' ingest walls
    // are too small for a meaningful overhead ratio.
    LiveQueryRow bg =
        RunConfig(run, sample, cheap, gt, num_shards, 1.0, kCadenceFrames, /*background=*/true);
    bg.gated = true;
    ok = ok && bg.identical;
    print_row(bg);
    rows.push_back(bg);
  }

  // Hard ceiling, not just a tracked guardrail: with the builder thread doing
  // the assembly, the ingest thread's publication share (cut + stall) on the
  // sharded full-length rows must stay under 5% of ingest wall. The 1-shard
  // background row is exempt from the ceiling (the regression guardrail still
  // tracks it): sequential ingest advances faster than one index assembly per
  // epoch, so the bounded build queue backpressures by design — its overhead
  // is stall, not cut, and shrinking it would mean unbounded queue memory.
  for (const LiveQueryRow& r : rows) {
    if (r.background && r.gated && r.num_shards > 1 && r.publish_overhead >= 0.05) {
      std::fprintf(stderr, "FAIL: background publish_overhead %.2f%% >= 5%% (shards=%d)\n",
                   100.0 * r.publish_overhead, r.num_shards);
      ok = false;
    }
  }

  FILE* f = std::fopen("BENCH_live_query.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"live_query\",\n  \"live_query\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const LiveQueryRow& r = rows[i];
      std::fprintf(
          f,
          "    {\"num_shards\": %d, \"background\": %s, \"gated\": %s, "
          "\"stream_frames\": %lld, \"watermark\": %lld, "
          "\"epochs\": %lld, \"ingest_ms\": %.3f, \"publish_total_ms\": %.3f, "
          "\"cut_total_ms\": %.3f, \"stall_total_ms\": %.3f, "
          "\"publish_overhead\": %.5f, \"entries_reused_frac\": %.4f, "
          "\"live_query_ms\": %.4f, \"on_demand_ms\": %.3f, \"latency_ratio\": %.2f, "
          "\"candidate_clusters\": %lld, \"identical\": %s}%s\n",
          r.num_shards, r.background ? "true" : "false", r.gated ? "true" : "false",
          static_cast<long long>(r.stream_frames), static_cast<long long>(r.watermark),
          static_cast<long long>(r.epochs), r.ingest_ms, r.publish_total_ms, r.cut_total_ms,
          r.stall_total_ms, r.publish_overhead,
          r.entries_reused_frac, r.live_query_ms, r.on_demand_ms, r.latency_ratio,
          static_cast<long long>(r.candidate_clusters), r.identical ? "true" : "false",
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_live_query.json\n");
  }

  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: live snapshot diverged from halt+finalize, or background "
                 "publication overhead exceeded its ceiling\n");
    return 1;
  }
  return 0;
}
