// ingest_backlog: recorded video indexed after the fact (the paper's backlog
// setting). Tuned streams ingest flat out through runtime::IngestService on
// the persistent path, publishing every cadenced epoch in the background into
// one shm plane per stream. No query runs while ingest does, so the cnn,
// cluster, storage, snapshot and shm-publish layers carry the wall.
//
// The news stream (cnn) runs past IngestOptions::max_active_clusters while the
// traffic and surveillance streams stay below it, so both sides of the
// clusterer's capacity cliff are in every run.
#include <unistd.h>

#include <filesystem>
#include <sstream>

#include "perfbench/workloads.h"
#include "src/cnn/ground_truth.h"
#include "src/core/ingest_pipeline.h"
#include "src/runtime/ingest_service.h"
#include "src/server/query_server.h"
#include "src/shm/epoch_plane.h"

namespace focus::perfbench {

namespace {

struct BacklogStream {
  const char* name;
  double duration_sec;
};
constexpr BacklogStream kStreams[] = {
    {"auburn_c", 600.0},  // Traffic.
    {"jacksonh", 600.0},  // Surveillance.
    {"cnn", 450.0},       // News: past the active-cluster cap.
};
constexpr int64_t kCadenceFrames = 256;
constexpr int64_t kCheckpointFrames = 1024;

int64_t FileBytesWithSuffix(const std::string& dir, const std::string& suffix) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    const std::string path = entry.path().string();
    if (entry.is_regular_file(ec) && path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

// A new shm plane named after this process and |tag|, unlinked when it is
// destroyed; null (and a failed "plane_create" op) when creation fails.
std::unique_ptr<shm::EpochPublisher> CreatePlane(RunContext& ctx, const std::string& tag) {
  shm::EpochPublisher::Options options;
  options.provenance = {kWorldSeed, kWorldSeed, 0, kWorldSeed};
  auto plane = shm::EpochPublisher::Create(
      "/focus_perfbench_" + std::to_string(getpid()) + "_" + tag, options);
  if (!plane.ok()) {
    ctx.ops.Fail("plane_create", plane.error().message);
    return nullptr;
  }
  (*plane)->UnlinkOnDestroy(true);
  return std::move(*plane);
}

runtime::IngestServiceOptions ServiceOptions(size_t streams, const std::string& persist_dir) {
  runtime::IngestServiceOptions options;
  options.num_worker_threads = static_cast<int>(streams);
  options.persist_dir = persist_dir;
  options.finalize_every_frames = kCadenceFrames;
  return options;
}

// |stream| ingested from |run| as the workload runs it: persistent,
// checkpointed, every epoch built in the background and handed to |sink|.
runtime::IngestJob BacklogJob(const TunedStream& stream, const PacedStreamRun* run,
                              SnapshotSink sink) {
  runtime::IngestJob job;
  job.name = stream.name;
  job.run = run;
  job.params = stream.params;
  job.options.background_publish = true;
  job.options.checkpoint_every_frames = kCheckpointFrames;
  job.options.snapshot_sink = std::move(sink);
  return job;
}

// Traced runs. The ledger's wall is each stream's ingest measured alone
// through IngestService::RunAll as the workload runs it, summed over streams
// (the streams run concurrently in the workload, so its RunAll wall is not a
// sum the per-stream layer calls can explain). The rows are the same ingest
// split into its public layer calls on identical input: ClassifySample,
// RunIngestClassified with the same cadence and sink, and persistent minus
// volatile RunIngest.
void ReplayThroughLayers(RunContext& ctx, const video::ClassCatalog& catalog,
                         const std::vector<TunedStream>& streams) {
  SinkLog log;  // Publications of the replay are checked, not measured.
  double storage_ms = 0.0;
  for (const TunedStream& s : streams) {
    const std::string dir = ctx.options.work_dir + "/replay-" + s.name;
    std::error_code ec;
    {
      const std::unique_ptr<shm::EpochPublisher> plane = CreatePlane(ctx, "solo_" + s.name);
      if (plane == nullptr) {
        return;
      }
      const PacedStreamRun run(*s.run, 0.0);
      runtime::IngestService solo(ServiceOptions(1, dir));
      solo.AddStream(BacklogJob(s, &run, MakeSnapshotSink(ctx, log, &run, plane.get())));
      ScopedSpan span(&ctx.spans, "ingest.solo");
      const int64_t t0 = NowNs();
      const runtime::FleetIngestSummary summary = solo.RunAll();
      ctx.ledger_wall_ms += MillisBetween(t0, NowNs());
      if (summary.reports.empty() || summary.reports.front().error.has_value()) {
        ctx.ops.Fail("ingest", s.name + ": ingest alone failed");
      }
      std::filesystem::remove_all(dir, ec);
    }
    const cnn::Cnn cheap(s.params.model, &catalog);
    {
      const std::unique_ptr<shm::EpochPublisher> plane = CreatePlane(ctx, "replay_" + s.name);
      if (plane == nullptr) {
        return;
      }
      const PacedStreamRun run(*s.run, 0.0);
      ScopedSpan replay(&ctx.spans, kReplaySpan);
      core::ClassifiedSample sample;
      {
        ScopedSpan span(&ctx.spans, "cnn.classify");
        const int64_t t0 = NowNs();
        sample = core::ClassifySample(run, cheap, s.params.k);
        ctx.spans.AddChild("video.gen", t0, t0 + static_cast<int64_t>(run.GenMillis() * 1e6));
      }
      core::IngestOptions options;
      options.finalize_every_frames = kCadenceFrames;
      options.background_publish = true;
      options.snapshot_sink = MakeSnapshotSink(ctx, log, &run, plane.get());
      ScopedSpan span(&ctx.spans, "cluster.assign");
      core::RunIngestClassified(sample, s.params, options);
    }
    core::IngestOptions volatile_options;
    volatile_options.checkpoint_every_frames = kCheckpointFrames;
    int64_t t0 = NowNs();
    {
      ScopedSpan span(&ctx.spans, "storage.volatile");
      core::RunIngest(*s.run, cheap, s.params, volatile_options);
    }
    const double volatile_ms = MillisBetween(t0, NowNs());
    core::IngestOptions persistent = volatile_options;
    persistent.persist_dir = dir;
    t0 = NowNs();
    {
      ScopedSpan span(&ctx.spans, "storage.persistent");
      core::RunIngest(*s.run, cheap, s.params, persistent);
    }
    storage_ms += MillisBetween(t0, NowNs()) - volatile_ms;
    std::filesystem::remove_all(dir, ec);
  }
  ctx.Set("storage.checkpoint_ms", storage_ms);
  ctx.derived_rows.push_back({"storage.checkpoint", storage_ms, 0.0,
                              static_cast<int64_t>(streams.size())});
}

}  // namespace

void RunIngestBacklog(RunContext& ctx) {
  const video::ClassCatalog catalog(kWorldSeed);
  const cnn::Cnn gt(cnn::GtCnnDesc(kWorldSeed), &catalog);

  // --- Set-up: generate and tune every stream (repeated; median reported) ---
  std::vector<TunedStream> streams;
  std::vector<double> setup_s;
  std::vector<double> tune_ms;
  int64_t configs = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ScopedSpan span(&ctx.spans, "setup");
    const int64_t t0 = NowNs();
    streams.clear();
    int64_t skips = 0;
    for (const BacklogStream& s : kStreams) {
      TunedStream tuned;
      if (!TuneStream(catalog, gt, s.name, s.duration_sec, &tuned)) {
        ++skips;
        continue;
      }
      tune_ms.push_back(tuned.tune_ms);
      configs = tuned.configs;
      streams.push_back(std::move(tuned));
    }
    ctx.setup_skips = skips;
    setup_s.push_back(MillisBetween(t0, NowNs()) / 1e3);
  }
  ctx.Set("setup_s", Median(setup_s));
  ctx.Set("tune.ms", Median(tune_ms));
  ctx.Set("tune.configs", static_cast<double>(configs));
  if (streams.empty()) {
    ctx.checks_failed = true;
    ctx.Note("FAIL setup: the tuner rejected every stream");
    return;
  }

  // --- Measured phase: whole-backlog ingests until the run's time is up ---
  std::vector<double> iteration_vsps;
  std::vector<double> ms_per_video_min;
  std::vector<double> gen_ms;
  SinkLog log;
  std::vector<core::IngestResult> first_results;
  std::vector<core::IngestResult> last_results;
  std::vector<std::shared_ptr<const core::LiveSnapshot>> last_epochs(streams.size());
  std::vector<double> gpu_busy_ms, gpu_imbalance;
  double arena_mb = 0.0;
  double undo_mb = 0.0;
  double plane_used_mb = 0.0;
  uint64_t pin_violations = 0;
  uint64_t regions_compacted = 0;
  int64_t restarts = 0;
  int64_t streams_down = 0;
  // The last iteration's service stays alive for the verification queries.
  std::unique_ptr<runtime::IngestService> service;
  std::vector<std::unique_ptr<PacedStreamRun>> delivered;

  double video_sec = 0.0;
  for (const TunedStream& s : streams) {
    video_sec += s.run->duration_sec();
  }
  const ProcCounters proc_before = ReadProcCounters();
  const int64_t deadline = NowNs() + static_cast<int64_t>(ctx.options.seconds * 1e9);
  int iteration = 0;
  do {
    const std::string dir = ctx.options.work_dir + "/backlog-" + std::to_string(iteration);
    std::vector<std::unique_ptr<shm::EpochPublisher>> planes;
    for (const TunedStream& s : streams) {
      planes.push_back(CreatePlane(ctx, s.name + "_" + std::to_string(iteration)));
      if (planes.back() == nullptr) {
        return;
      }
    }
    delivered.clear();
    service = std::make_unique<runtime::IngestService>(ServiceOptions(streams.size(), dir));
    for (size_t i = 0; i < streams.size(); ++i) {
      delivered.push_back(std::make_unique<PacedStreamRun>(*streams[i].run, 0.0));
      std::shared_ptr<const core::LiveSnapshot>* last = &last_epochs[i];
      service->AddStream(BacklogJob(
          streams[i], delivered.back().get(),
          MakeSnapshotSink(ctx, log, delivered.back().get(), planes[i].get(),
                           [last](const std::shared_ptr<const core::LiveSnapshot>& snap) {
                             *last = snap;
                           })));
    }

    const int64_t t0 = NowNs();
    runtime::FleetIngestSummary summary;
    {
      ScopedSpan span(&ctx.spans, "ingest.run_all");
      summary = service->RunAll();
    }
    const double wall_s = MillisBetween(t0, NowNs()) / 1e3;
    iteration_vsps.push_back(video_sec / wall_s);
    ms_per_video_min.push_back(1e3 * wall_s / (video_sec / 60.0));
    gpu_busy_ms.push_back(summary.cluster.total_busy_millis);
    gpu_imbalance.push_back(summary.cluster.imbalance);

    last_results.clear();
    for (size_t i = 0; i < summary.reports.size(); ++i) {
      const runtime::IngestReport& report = summary.reports[i];
      restarts += report.health.restarts;
      streams_down += report.health.state == runtime::StreamState::kDown ? 1 : 0;
      gen_ms.push_back(delivered[i]->GenMillis());
      if (report.error.has_value() || report.health.restarts > 0) {
        ctx.ops.Fail("ingest", report.name + ": " +
                                   (report.error ? report.error->message : "worker restarted"));
        continue;
      }
      const core::IngestResult& r = report.result;
      if (!first_results.empty()) {
        const core::IngestResult& f = first_results[i];
        if (f.detections != r.detections || f.num_clusters != r.num_clusters ||
            f.gpu_millis != r.gpu_millis || f.cnn_invocations != r.cnn_invocations) {
          ctx.ops.Fail("ingest", report.name + ": result differs from the first iteration");
          continue;
        }
      }
      ctx.ops.Ok("ingest");
      last_results.push_back(r);
    }
    if (first_results.empty()) {
      first_results = last_results;
    }
    arena_mb = static_cast<double>(FileBytesWithSuffix(dir, ".arena")) / (1 << 20);
    undo_mb = static_cast<double>(FileBytesWithSuffix(dir, ".undo")) / (1 << 20);
    plane_used_mb = 0.0;
    for (const auto& plane : planes) {
      const shm::ShmPlaneStats stats = plane->stats();
      plane_used_mb += static_cast<double>(stats.arena_used_bytes) / (1 << 20);
      pin_violations += stats.pin_violations;
      regions_compacted += stats.regions_compacted;
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    ++iteration;
  } while (NowNs() < deadline);
  const ProcCounters proc = Delta(proc_before, ReadProcCounters());

  // --- Metrics of the measured phase ---
  ctx.Set("peak_rss_mb", proc.maxrss_mb);
  ctx.Set("service_rate", Median(iteration_vsps));
  ctx.Set("ingest_vsps", Median(iteration_vsps));
  // The operation is ingesting one video-minute of backlog: one sample per
  // whole-backlog iteration.
  SetLatency(ctx, "op_ms", ms_per_video_min);
  SetSnapshotMetrics(ctx, log, iteration);
  SetProcCounters(ctx, proc);
  ctx.Set("video.gen_ms", Median(gen_ms));
  ctx.Set("storage.arena_mb", arena_mb);
  ctx.Set("storage.undo_mb", undo_mb);
  ctx.Set("shm.arena_used_mb", plane_used_mb);
  ctx.Set("shm.pin_violations", static_cast<double>(pin_violations));
  ctx.Set("shm.regions_compacted", static_cast<double>(regions_compacted));
  ctx.Set("gpu.ingest_busy_ms", Median(gpu_busy_ms));
  ctx.Set("gpu.ingest_imbalance", Median(gpu_imbalance));
  ctx.Set("ingest.restarts", static_cast<double>(restarts));
  ctx.Set("ingest.streams_down", static_cast<double>(streams_down));
  {
    int64_t detections = 0, invocations = 0, suppressed = 0, clusters = 0;
    double fast_hit = 0.0;
    for (const core::IngestResult& r : last_results) {
      detections += r.detections;
      invocations += r.cnn_invocations;
      suppressed += r.suppressed;
      clusters += r.num_clusters;
      fast_hit += r.clusterer_fast_hit_rate;
    }
    ctx.Set("cnn.invocations", static_cast<double>(invocations));
    ctx.Set("cnn.suppressed_frac",
            detections > 0 ? static_cast<double>(suppressed) / detections : 0.0);
    ctx.Set("cluster.fast_hit_rate",
            last_results.empty() ? 0.0 : fast_hit / static_cast<double>(last_results.size()));
    ctx.Set("cluster.clusters_per_kdet",
            detections > 0 ? 1000.0 * static_cast<double>(clusters) / detections : 0.0);
    std::ostringstream line;
    line << "ingest_backlog: " << iteration << " iterations of " << video_sec
         << " video-s; clusters per stream:";
    for (size_t i = 0; i < last_results.size(); ++i) {
      line << " " << streams[i].name << "=" << last_results[i].num_clusters;
    }
    ctx.Note(line.str());
  }
  if (last_results.size() != streams.size()) {
    ctx.checks_failed = true;
    ctx.Note("FAIL ingest: not every stream finished its last iteration");
    return;
  }

  // --- Correctness: the final epochs answer like the in-process engine, and
  // the finished indexes meet the accuracy floor ---
  {
    ScopedSpan verify_span(&ctx.spans, "verify");
    runtime::MetricsRegistry metrics;
    const core::FocusFleet no_fleet;
    server::QueryServer server(&no_fleet, &catalog, &metrics, {}, service.get());
    std::vector<double> gpu_latency_ms;
    int64_t answered = 0;
    std::vector<StreamAccuracy> scores;
    for (size_t i = 0; i < streams.size(); ++i) {
      const TunedStream& s = streams[i];
      const runtime::LiveStreamContext* live = service->LiveContext(s.name);
      const std::shared_ptr<const core::LiveSnapshot> epoch = live->slot.Latest();
      if (epoch == nullptr || epoch != last_epochs[i]) {
        ctx.ops.Fail("verify_query", s.name + ": sink and slot disagree on the last epoch");
        continue;
      }
      const core::QueryEngine engine(epoch.get(), live->ingest_cnn.get(), live->gt_cnn.get());
      const auto& popular = s.run->classes_by_popularity();
      for (size_t c = 0; c < popular.size() && c < 8; ++c) {
        for (int variant = 0; variant < 3; ++variant) {
          QuerySpec spec;
          spec.cls = popular[c];
          spec.kx = variant == 1 ? 1 : -1;
          if (variant == 2) {
            spec.has_range = true;
            spec.range = {60.0, s.run->duration_sec() / 2.0};
          }
          const std::string response =
              server.HandleLine("QUERY " + s.name + SpecSuffix(catalog, spec));
          std::string stripped;
          double latency = 0.0;
          const core::QueryResult expected =
              engine.Query(spec.cls, spec.kx, spec.range, epoch->fps);
          std::ostringstream want;
          want << "OK LIVE EPOCH " << epoch->epoch << " WATERMARK " << epoch->watermark << " "
               << ResultPayload(expected);
          if (!StripLatency(response, &stripped, &latency) || stripped != want.str()) {
            ctx.ops.Fail("verify_query", s.name + ": " + response.substr(0, 120));
            continue;
          }
          ctx.ops.Ok("verify_query");
          gpu_latency_ms.push_back(latency);
          ++answered;
        }
      }
      const core::IngestResult& r = last_results[i];
      const cnn::Cnn cheap(s.params.model, &catalog);
      scores.push_back(ScoreIndex(*s.run, r.index, cheap, gt, r.detections, r.gpu_millis));
    }
    const runtime::FleetServiceStats stats = server.service().stats();
    ctx.Set("gpu_ms_per_query", answered > 0 ? stats.gpu_millis / answered : 0.0);
    ctx.Set("query_gpu_ms_p99", Percentile(gpu_latency_ms, TailPercentile(gpu_latency_ms.size())));
    ReportAccuracy(ctx, scores);
  }

  if (ctx.spans.enabled()) {
    ReplayThroughLayers(ctx, catalog, streams);
  }
}

}  // namespace focus::perfbench
