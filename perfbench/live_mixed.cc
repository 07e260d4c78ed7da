// live_mixed: reads beside writes. Two streams ingest through
// runtime::IngestService at a fixed multiple of real time (the paced
// decorator releases each frame at its due time), publishing every epoch to
// their slots and the first stream's epochs into one shm plane served by
// supervised worker processes. Meanwhile one open-loop client issues live
// QUERY and SHM QUERY at a fixed rate.
//
// An shm plane names its ingest model by index into cnn::GenericCheapCandidates
// (workers rebuild it from that provenance), so the plane's stream runs a fixed
// generic configuration; the other stream is tuned. Generic models miss the
// 0.95 recall floor in this simulation, so accuracy is scored on the tuned
// stream only; both streams' answers are still checked for identity.
//
// Every new epoch retires the verdict cache and makes the workers re-validate
// and re-index the plane, so this is the cache-bypass counterpart of
// query_fleet; ingest also competes with queries for cores, so a gain on one
// side that costs the other shows here. Pacing keeps the offered load fixed.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>

#include "perfbench/workloads.h"
#include "src/cnn/ground_truth.h"
#include "src/cnn/model_zoo.h"
#include "src/core/fleet.h"
#include "src/runtime/fleet_query_service.h"
#include "src/runtime/ingest_service.h"
#include "src/server/protocol.h"
#include "src/server/query_server.h"
#include "src/shm/epoch_plane.h"

namespace focus::perfbench {

namespace {

constexpr const char* kStreams[] = {"auburn_c", "jacksonh"};  // kStreams[0] feeds the plane.
constexpr size_t kPlaneModel = 1;  // CheapCNN2 of cnn::GenericCheapCandidates.
constexpr double kPace = 30.0;          // Video seconds per wall second, per stream.
constexpr size_t kBlock = 64;           // Requests per block of the mix.
constexpr double kRequestsPerSec = 500.0;
constexpr int64_t kCadenceFrames = 256;
constexpr size_t kVerifyEvery = 16;     // Every 16th answer is checked as it arrives.
constexpr int kServeWorkers = 2;

struct LiveRequest {
  int64_t due_ns = 0;
  bool shm = false;
  size_t stream = 0;  // Index into kStreams (live requests).
  QuerySpec spec;
  std::string line;
};

std::vector<LiveRequest> MakeSchedule(const std::vector<TunedStream>& streams,
                                      const video::ClassCatalog& catalog,
                                      const std::string& segment, uint64_t seed,
                                      double seconds) {
  // A fixed request multiset in a --seed-drawn order (see query_fleet.cc).
  common::Pcg32 rng(0x11fe);
  const auto count = static_cast<size_t>(kRequestsPerSec * seconds);
  std::vector<LiveRequest> schedule;
  schedule.reserve(kBlock);
  for (size_t i = 0; i < kBlock; ++i) {
    LiveRequest r;
    r.shm = rng.NextDouble() < 0.5;
    r.stream = r.shm ? 0 : rng.NextBounded(static_cast<uint32_t>(streams.size()));
    const auto& popular = streams[r.stream].run->classes_by_popularity();
    r.spec.cls = popular[rng.NextBounded(static_cast<uint32_t>(std::min<size_t>(popular.size(), 6)))];
    if (rng.NextDouble() < 0.25) {
      r.spec.kx = 1;
    }
    if (rng.NextDouble() < 0.3) {
      const double a = 30.0 * rng.NextBounded(10);
      r.spec.has_range = true;
      r.spec.range = {a, a + 120.0};
    }
    r.line = (r.shm ? "SHM QUERY " + segment : "QUERY " + streams[r.stream].name) +
             SpecSuffix(catalog, r.spec);
    schedule.push_back(std::move(r));
  }
  std::vector<LiveRequest> ordered;
  ordered.reserve(count);
  for (size_t index : BlockOrder(kBlock, count, common::DeriveSeed(seed, 0x11fe))) {
    ordered.push_back(schedule[index]);
    ordered.back().due_ns =
        static_cast<int64_t>(static_cast<double>(ordered.size() - 1) * 1e9 / kRequestsPerSec);
  }
  return ordered;
}

}  // namespace

void RunLiveMixed(RunContext& ctx) {
  const video::ClassCatalog catalog(kWorldSeed);
  const cnn::Cnn gt(cnn::GtCnnDesc(kWorldSeed), &catalog);
  const double duration_sec = kPace * ctx.options.seconds;
  const std::string segment = "/focus_perfbench_" + std::to_string(getpid()) + "_live";

  // --- Set-up (repeated; median reported): generate both recordings, tune
  // the second, create the plane, attach the server and spawn its workers ---
  std::vector<TunedStream> streams;
  std::vector<double> setup_s;
  std::vector<double> tune_ms;
  int64_t configs = 0;
  std::unique_ptr<shm::EpochPublisher> plane;
  std::unique_ptr<server::QueryServer> server;
  runtime::MetricsRegistry metrics;
  const core::FocusFleet no_fleet;
  std::unique_ptr<runtime::IngestService> service;
  std::vector<std::unique_ptr<PacedStreamRun>> paced;
  SinkLog log;
  std::atomic<int64_t> plane_epochs{0};
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ScopedSpan span(&ctx.spans, "setup");
    const int64_t t0 = NowNs();
    server.reset();
    service.reset();
    plane.reset();
    streams.clear();
    paced.clear();
    TunedStream plane_stream;
    plane_stream.name = kStreams[0];
    plane_stream.run = std::make_unique<video::StreamRun>(
        &catalog, ProfileOrDie(kStreams[0]), duration_sec, kFps,
        RecordingSeed(kStreams[0]));
    plane_stream.params.model = cnn::GenericCheapCandidates(kWorldSeed)[kPlaneModel];
    plane_stream.params.k = 4;
    plane_stream.params.cluster_threshold = 0.6;
    streams.push_back(std::move(plane_stream));
    TunedStream tuned;
    if (!TuneStream(catalog, gt, kStreams[1], duration_sec, &tuned)) {
      ctx.setup_skips = 1;
      ctx.checks_failed = true;
      ctx.Note("FAIL setup: the tuner rejected the live stream " + std::string(kStreams[1]));
      return;
    }
    tune_ms.push_back(tuned.tune_ms);
    configs = tuned.configs;
    streams.push_back(std::move(tuned));
    shm::EpochPublisher::Options popts;
    popts.provenance = {kWorldSeed, kWorldSeed, static_cast<uint32_t>(kPlaneModel), kWorldSeed};
    auto created = shm::EpochPublisher::Create(segment, popts);
    if (!created.ok()) {
      ctx.ops.Fail("plane_create", created.error().message);
      return;
    }
    plane = std::move(*created);
    plane->UnlinkOnDestroy(true);

    runtime::IngestServiceOptions sopts;
    sopts.num_worker_threads = static_cast<int>(streams.size());
    sopts.finalize_every_frames = kCadenceFrames;
    service = std::make_unique<runtime::IngestService>(sopts);
    for (size_t i = 0; i < streams.size(); ++i) {
      paced.push_back(std::make_unique<PacedStreamRun>(*streams[i].run, kPace));
      runtime::IngestJob job;
      job.name = streams[i].name;
      job.run = paced.back().get();
      job.params = streams[i].params;
      job.options.background_publish = true;
      job.options.snapshot_sink = MakeSnapshotSink(
          ctx, log, paced.back().get(), i == 0 ? plane.get() : nullptr,
          [&plane_epochs, i](const std::shared_ptr<const core::LiveSnapshot>&) {
            if (i == 0) {
              plane_epochs.fetch_add(1, std::memory_order_release);
            }
          });
      service->AddStream(std::move(job));
    }
    server = std::make_unique<server::QueryServer>(&no_fleet, &catalog, &metrics,
                                                   runtime::QueryServiceOptions{}, service.get());
    runtime::SupervisedPoolOptions pool_options;
    pool_options.num_workers = kServeWorkers;
    server->set_shm_serve_options(pool_options);
    const std::string attached = server->HandleLine("SHM ATTACH " + segment);
    const std::string serving = server->HandleLine("SHM SERVE " + segment);
    if (attached.rfind("OK", 0) != 0 || serving.rfind("OK", 0) != 0) {
      ctx.ops.Fail("shm_serve", attached + " / " + serving);
      return;
    }
    setup_s.push_back(MillisBetween(t0, NowNs()) / 1e3);
  }
  ctx.Set("setup_s", Median(setup_s));
  ctx.Set("tune.ms", Median(tune_ms));
  ctx.Set("tune.configs", static_cast<double>(configs));

  const std::vector<LiveRequest> schedule =
      MakeSchedule(streams, catalog, segment, ctx.options.seed, ctx.options.seconds);
  const cnn::Cnn plane_cheap(streams[0].params.model, &catalog);
  auto reader = shm::ShmSnapshotReader::Attach(segment);
  if (!reader.ok()) {
    ctx.ops.Fail("shm_attach", reader.error().message);
    return;
  }

  // --- Measured phase: paced ingest on its own thread, the client here ---
  const ProcCounters proc_before = ReadProcCounters();
  std::atomic<bool> ingest_done{false};
  runtime::FleetIngestSummary summary;
  double ingest_wall_s = 0.0;
  std::thread ingest([&] {
    const int64_t t0 = NowNs();
    summary = service->RunAll();
    ingest_wall_s = MillisBetween(t0, NowNs()) / 1e3;
    ingest_done.store(true, std::memory_order_release);
  });
  // Queries start once both streams and the plane have a first epoch.
  while (!ingest_done.load(std::memory_order_acquire) &&
         (service->LatestSnapshot(kStreams[0]) == nullptr ||
          service->LatestSnapshot(kStreams[1]) == nullptr ||
          plane_epochs.load(std::memory_order_acquire) == 0)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  runtime::FleetQueryService replay_service;  // Traced runs only.
  std::vector<double> live_ms, shm_ms, late_ms, live_gpu_ms;
  std::vector<double> live_service_ms, shm_service_ms, shm_inproc_ms, acquire_ms;
  int64_t unverified = 0;
  int64_t verified = 0;
  const int64_t origin = NowNs();
  size_t sent_count = 0;
  for (size_t i = 0; i < schedule.size() && !ingest_done.load(std::memory_order_acquire); ++i) {
    const LiveRequest& r = schedule[i];
    const int64_t due = origin + r.due_ns;
    SleepUntilNs(due);
    const std::string& name = streams[r.stream].name;
    const bool check = i % kVerifyEvery == 0;
    std::shared_ptr<const core::LiveSnapshot> pinned =
        check && !r.shm ? service->LatestSnapshot(name) : nullptr;
    const int64_t sent = NowNs();
    std::string response;
    {
      ScopedSpan span(&ctx.spans, "server.handle_line", static_cast<int64_t>(i));
      response = server->HandleLine(r.line);
    }
    const int64_t done = NowNs();
    ++sent_count;
    late_ms.push_back(MillisBetween(due, sent));
    const char* kind = r.shm ? "shm_query" : "live_query";
    const std::string head = r.shm ? "OK SHM " + segment + " EPOCH" : "OK LIVE EPOCH";
    std::string stripped = response;
    double gpu_latency = 0.0;
    if (response.rfind(head, 0) != 0 ||
        (!r.shm && !StripLatency(response, &stripped, &gpu_latency))) {
      ctx.ops.Fail(kind, r.line + " -> " + response.substr(0, 120));
      continue;
    }
    (r.shm ? shm_ms : live_ms).push_back(MillisBetween(due, done));
    (r.shm ? shm_service_ms : live_service_ms).push_back(MillisBetween(sent, done));
    if (!r.shm) {
      live_gpu_ms.push_back(gpu_latency);
    }
    const uint64_t epoch = EpochOf(response);
    if (check) {
      std::string expected;
      if (r.shm) {
        auto view = (*reader)->Acquire();
        if (view.ok() && view->epoch() == epoch) {
          std::ostringstream want;
          want << "OK SHM " << segment << " EPOCH " << view->epoch() << " WATERMARK "
               << view->watermark() << " "
               << ResultPayload(view->Query(r.spec.cls, r.spec.kx, r.spec.range, plane_cheap, gt));
          expected = want.str();
        }
      } else {
        if (pinned == nullptr || pinned->epoch != epoch) {
          pinned = service->LatestSnapshot(name);
        }
        if (pinned != nullptr && pinned->epoch == epoch) {
          const runtime::LiveStreamContext* live = service->LiveContext(name);
          const core::QueryEngine engine(pinned.get(), live->ingest_cnn.get(),
                                         live->gt_cnn.get());
          std::ostringstream want;
          want << "OK LIVE EPOCH " << pinned->epoch << " WATERMARK " << pinned->watermark << " "
               << ResultPayload(engine.Query(r.spec.cls, r.spec.kx, r.spec.range, pinned->fps));
          expected = want.str();
        }
      }
      if (expected.empty()) {
        ++unverified;  // The epoch moved on before the check could pin it.
      } else if (expected != stripped) {
        ctx.ops.Fail(kind, "answer differs from the in-process query of epoch " +
                               std::to_string(epoch) + ": " + r.line);
        continue;
      } else {
        ++verified;
      }
    }
    ctx.ops.Ok(kind);

    if (!ctx.spans.enabled()) {
      continue;
    }
    // Traced runs: the same request again through the layer calls, under a
    // replay span; the ledger explains the measured HandleLine time.
    ctx.ledger_wall_ms += MillisBetween(sent, done);
    ScopedSpan replay(&ctx.spans, kReplaySpan, static_cast<int64_t>(i));
    if (r.shm) {
      const int64_t t0 = NowNs();
      auto view = [&] {
        ScopedSpan span(&ctx.spans, "shm.acquire");
        auto acquired = (*reader)->Acquire();
        if (acquired.ok()) {
          (void)acquired->Plan(r.spec.cls, r.spec.kx, r.spec.range, plane_cheap);
        }
        return acquired;
      }();
      acquire_ms.push_back(MillisBetween(t0, NowNs()));
      if (view.ok()) {
        const int64_t q0 = NowNs();
        ScopedSpan span(&ctx.spans, "shm.query");
        (void)view->Query(r.spec.cls, r.spec.kx, r.spec.range, plane_cheap, gt);
        shm_inproc_ms.push_back(MillisBetween(q0, NowNs()));
      }
    } else {
      {
        ScopedSpan span(&ctx.spans, "server.parse");
        (void)server::ParseRequest(r.line);
      }
      // Execute plans inside the call, as HandleLine's does.
      const runtime::LiveStreamContext* live = service->LiveContext(name);
      ScopedSpan span(&ctx.spans, "fleet.execute");
      runtime::FleetQueryRequest request;
      request.camera = name;
      request.query.cls = r.spec.cls;
      request.query.kx = r.spec.kx;
      request.query.range = r.spec.range;
      request.query.snapshot = live->slot.Latest();
      request.query.ingest_cnn = live->ingest_cnn.get();
      request.query.gt_cnn = live->gt_cnn.get();
      request.query.fps = live->fps;
      (void)replay_service.Execute(request);
    }
  }
  const int64_t client_end = NowNs();
  ingest.join();
  const ProcCounters proc = Delta(proc_before, ReadProcCounters());
  const double client_s = MillisBetween(origin, client_end) / 1e3;

  // --- Metrics ---
  double video_sec = 0.0;
  for (const TunedStream& s : streams) {
    video_sec += s.run->duration_sec();
  }
  std::vector<double> lags;
  double gen_ms = 0.0;
  for (const auto& run : paced) {
    const std::vector<double> l = run->LagMillis();
    lags.insert(lags.end(), l.begin(), l.end());
    gen_ms += run->GenMillis();
  }
  const runtime::FleetServiceStats stats = server->service().stats();
  ctx.Set("peak_rss_mb", proc.maxrss_mb);
  SetLatency(ctx, "query_ms", live_ms);
  SetLatency(ctx, "shm_query_ms", shm_ms);
  // The operation latency is HandleLine's service time (the time from each
  // request's due time also holds the generator's own lateness; see README).
  // The two request kinds' latencies differ severalfold, so a pooled
  // percentile would only see one of them: the operation figures are the
  // geometric means of the per-kind figures, which a change to either path
  // moves by the square root of its own change.
  const LatencyFigures live = WindowedLatency(ctx, "live service_ms", live_service_ms);
  const LatencyFigures shm = WindowedLatency(ctx, "shm service_ms", shm_service_ms);
  ctx.Set("op_ms_p50", std::sqrt(live.p50 * shm.p50));
  ctx.Set("op_ms_p90", std::sqrt(live.p90 * shm.p90));
  ctx.Set("op_ms_p99", std::sqrt(live.tail * shm.tail));
  ctx.Set("service_rate",
          std::sqrt(WindowedRate(live_service_ms) * WindowedRate(shm_service_ms)));
  SetSnapshotMetrics(ctx, log);
  ctx.Set("ingest_vsps", ingest_wall_s > 0.0 ? video_sec / ingest_wall_s : 0.0);
  ctx.Set("gpu_ms_per_query",
          live_gpu_ms.empty() ? 0.0 : stats.gpu_millis / static_cast<double>(live_gpu_ms.size()));
  ctx.Set("query_gpu_ms_p99", Percentile(live_gpu_ms, TailPercentile(live_gpu_ms.size())));
  ctx.Set("gen.late_ms_p99", Percentile(late_ms, TailPercentile(late_ms.size())));
  ctx.Set("ingest.lag_ms_p99", Percentile(lags, TailPercentile(lags.size())));
  ctx.Set("video.gen_ms", gen_ms);
  SetFleetMetrics(ctx, stats, server->service().options().batch_size);
  const shm::ShmPlaneStats plane_stats = plane->stats();
  ctx.Set("shm.arena_used_mb", static_cast<double>(plane_stats.arena_used_bytes) / (1 << 20));
  ctx.Set("shm.pin_violations", static_cast<double>(plane_stats.pin_violations));
  ctx.Set("shm.regions_compacted", static_cast<double>(plane_stats.regions_compacted));
  ctx.Set("rpc.timeouts", static_cast<double>(metrics.counter("proc.pool.timeouts")));
  ctx.Set("rpc.restarts", static_cast<double>(metrics.counter("proc.pool.restarts")));
  ctx.Set("rpc.degraded", static_cast<double>(metrics.counter("server.degraded_queries")));
  if (!shm_inproc_ms.empty()) {
    ctx.Set("rpc.call_ms", Median(shm_service_ms) - Median(shm_inproc_ms));
    ctx.Set("shm.acquire_ms", Median(acquire_ms));
  }
  SetProcCounters(ctx, proc);
  {
    std::ostringstream line;
    line << "live_mixed: " << sent_count << " requests over " << client_s << " s ("
         << verified << " verified as they arrived, " << unverified
         << " skipped: epoch moved on); ingest " << video_sec << " video-s in " << ingest_wall_s
         << " s";
    ctx.Note(line.str());
  }
  if (sent_count < schedule.size() / 2) {
    ctx.Note("note: ingest finished before half the schedule was sent");
  }
  // Answers checked against an epoch that moved on are skipped, not passed;
  // a run that could check too few of them has not shown its answers right.
  if (verified == 0 || unverified > verified) {
    ctx.checks_failed = true;
    ctx.Note("FAIL live answers: too few could be checked against their epoch");
  }

  // --- Ingest outcome and accuracy of the finished indexes ---
  ScopedSpan verify_span(&ctx.spans, "verify");
  std::vector<StreamAccuracy> scores;
  int64_t detections = 0;
  int64_t clusters = 0;
  int64_t invocations = 0;
  int64_t suppressed = 0;
  int64_t restarts = 0;
  int64_t down = 0;
  for (size_t i = 0; i < summary.reports.size(); ++i) {
    const runtime::IngestReport& report = summary.reports[i];
    restarts += report.health.restarts;
    down += report.health.state == runtime::StreamState::kDown ? 1 : 0;
    if (report.error.has_value() || report.health.restarts > 0) {
      ctx.ops.Fail("ingest", report.name + ": " +
                                 (report.error ? report.error->message : "worker restarted"));
      continue;
    }
    ctx.ops.Ok("ingest");
    const core::IngestResult& r = report.result;
    detections += r.detections;
    clusters += r.num_clusters;
    invocations += r.cnn_invocations;
    suppressed += r.suppressed;
    if (i > 0) {  // The plane's generic stream is not scored (see file comment).
      const cnn::Cnn cheap(streams[i].params.model, &catalog);
      scores.push_back(
          ScoreIndex(*streams[i].run, r.index, cheap, gt, r.detections, r.gpu_millis));
    }
  }
  ctx.Set("ingest.restarts", static_cast<double>(restarts));
  ctx.Set("ingest.streams_down", static_cast<double>(down));
  ctx.Set("cnn.invocations", static_cast<double>(invocations));
  ctx.Set("cnn.suppressed_frac",
          detections > 0 ? static_cast<double>(suppressed) / detections : 0.0);
  ctx.Set("cluster.clusters_per_kdet",
          detections > 0 ? 1000.0 * static_cast<double>(clusters) / detections : 0.0);
  ReportAccuracy(ctx, scores);
}

}  // namespace focus::perfbench
