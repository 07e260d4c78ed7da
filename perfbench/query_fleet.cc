// query_fleet: investigation traffic over finalized camera indexes. One client
// calls server::QueryServer::HandleLine on an open-loop schedule at a fixed
// rate; requests are seeded Zipf draws over (camera, class) with single-camera,
// camera-list and REGION fan-outs, Kx, time ranges and two tenants. The
// protocol, fleet service (cache, dedup, packing, fair admission), query engine
// and virtual GPU cluster do the work; no ingest runs while requests do.
//
// The verdict cache starts cold (it lives as long as the server) and repeated
// (camera, class) pairs let cache and packing gains show. The fleet mixes
// cameras below and above the active-cluster cap, so candidate sets differ by
// orders of magnitude between requests.
#include <algorithm>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "perfbench/workloads.h"
#include "src/cnn/ground_truth.h"
#include "src/common/zipf.h"
#include "src/core/fleet.h"
#include "src/core/focus_stream.h"
#include "src/server/protocol.h"
#include "src/server/query_server.h"

namespace focus::perfbench {

namespace {

struct FleetCamera {
  const char* name;
  const char* region;
  double duration_sec;
};
constexpr FleetCamera kCameras[] = {
    {"auburn_c", "east", 600.0},
    {"city_a_r", "east", 600.0},
    {"jacksonh", "west", 600.0},
    {"cnn", "west", 450.0},
};
constexpr size_t kBlock = 200;  // Requests per block of the mix.
constexpr double kRequestsPerSec = 400.0;
constexpr size_t kClassesPerCamera = 6;

struct Request {
  int64_t due_ns = 0;  // Offset from the schedule origin.
  std::string line;
  bool federated = false;
  std::vector<std::string> cameras;  // The one camera, or an explicit list.
  std::string region;                // REGION fan-outs.
  std::string tenant;
  QuerySpec spec;
};

std::vector<Request> MakeSchedule(const core::FocusFleet& fleet,
                                  const video::ClassCatalog& catalog,
                                  const std::vector<std::string>& cameras, uint64_t seed,
                                  double seconds) {
  std::vector<std::pair<std::string, common::ClassId>> pairs;
  for (const std::string& camera : cameras) {
    const auto& popular = fleet.Find(camera)->run().classes_by_popularity();
    for (size_t c = 0; c < popular.size() && c < kClassesPerCamera; ++c) {
      pairs.emplace_back(camera, popular[c]);
    }
  }
  // Zipf ranks follow popularity, interleaved across cameras (each camera's
  // most popular class first), so every seed offers the same heavy/light mix.
  std::stable_sort(pairs.begin(), pairs.end(), [&](const auto& a, const auto& b) {
    const auto rank = [&](const std::pair<std::string, common::ClassId>& p) {
      const auto& popular = fleet.Find(p.first)->run().classes_by_popularity();
      return std::find(popular.begin(), popular.end(), p.second) - popular.begin();
    };
    return rank(a) < rank(b);
  });
  // The request mix is a fixed multiset and --seed draws its order: every
  // seed then offers the same work, so run-to-run spread measures the system
  // rather than which heavy requests a seed happened to draw.
  common::Pcg32 rng(0x71f1ee7);
  const common::ZipfDistribution zipf(pairs.size(), 1.0);
  const auto count = static_cast<size_t>(kRequestsPerSec * seconds);
  std::vector<Request> schedule;
  schedule.reserve(kBlock);
  for (size_t i = 0; i < kBlock; ++i) {
    Request r;
    const auto& [camera, cls] = pairs[zipf.Sample(rng)];
    r.spec.cls = cls;
    if (rng.NextDouble() < 0.25) {
      r.spec.kx = 1 + static_cast<int>(rng.NextBounded(2));
    }
    if (rng.NextDouble() < 0.3) {
      // Ranges on a 60 s grid so repeats recur.
      const auto slots =
          static_cast<uint32_t>(fleet.Find(camera)->run().duration_sec() / 60.0);
      const uint32_t a = rng.NextBounded(slots);
      const uint32_t b = a + 1 + rng.NextBounded(slots - a);
      r.spec.has_range = true;
      r.spec.range = {60.0 * a, 60.0 * b};
    }
    r.tenant = rng.NextDouble() < 0.5 ? "analyst" : "dashboard";
    const double form = rng.NextDouble();
    std::string target;
    if (form < 0.7) {
      r.cameras = {camera};
      target = camera;
    } else if (form < 0.85) {
      r.federated = true;
      r.region = fleet.MetaOf(camera)->region;
      target = "REGION " + r.region;
    } else {
      r.federated = true;
      const size_t at = std::find(cameras.begin(), cameras.end(), camera) - cameras.begin();
      const std::string& other = cameras[(at + 1) % cameras.size()];
      r.cameras = {camera, other};
      target = camera + "," + other;
    }
    r.line = "QUERY " + target + SpecSuffix(catalog, r.spec) + " TENANT " + r.tenant;
    schedule.push_back(std::move(r));
  }
  std::vector<Request> ordered;
  ordered.reserve(count);
  for (size_t index : BlockOrder(kBlock, count, common::DeriveSeed(seed, 0x71f1ee7))) {
    ordered.push_back(schedule[index]);
    ordered.back().due_ns =
        static_cast<int64_t>(static_cast<double>(ordered.size() - 1) * 1e9 / kRequestsPerSec);
  }
  return ordered;
}

core::FederatedSelector SelectorOf(const Request& r) {
  core::FederatedSelector selector;
  if (!r.region.empty()) {
    selector.region = r.region;
  } else {
    selector.cameras = r.cameras;
  }
  return selector;
}

// The oracle: per-camera sequential execution, framed like the server's
// payload minus LATENCY_MS.
std::string Expected(const core::FocusFleet& fleet, const Request& r) {
  if (!r.federated) {
    const core::FocusStream* stream = fleet.Find(r.cameras.front());
    return "OK " + ResultPayload(stream->Query(r.spec.cls, r.spec.kx, r.spec.range));
  }
  auto plan = fleet.PlanFederated(r.spec.cls, SelectorOf(r), r.spec.range, r.spec.kx);
  if (!plan.ok()) {
    return "ERR " + plan.error().message;
  }
  const core::FleetQueryResult result = fleet.ExecuteFederatedSequential(*plan);
  std::ostringstream out;
  out << "OK FEDERATED " << result.hits.size() << " FRAMES " << result.total_frames
      << " CENTROIDS " << result.total_centroids_classified << " GPU_MS "
      << result.total_gpu_millis;
  for (const core::CameraHits& hits : result.hits) {
    out << "\nCAM " << hits.camera << " FRAMES " << hits.result.frames_returned << " RUNS "
        << hits.result.frame_runs.size();
    for (const auto& [first, last] : hits.result.frame_runs) {
      out << "\nRUN " << first << " " << last;
    }
  }
  return out.str();
}

// Traced runs: replays every request, in order, through the layer calls
// HandleLine makes — ParseRequest, the federated plan (the server plans
// federated requests itself; single-camera requests are planned inside
// Execute), and execution on an identically configured second fleet service —
// under replay spans, so the ledger explains the measured HandleLine time
// |handle_line_ms|. The query engine's own steps (plan, GT-CNN classify,
// resolve) are then timed on every plan outside the ledger: Execute runs them
// behind its verdict cache, here they run uncached.
void ReplayThroughLayers(RunContext& ctx, const core::FocusFleet& fleet,
                         const std::vector<Request>& schedule, double handle_line_ms) {
  runtime::FleetQueryService service;
  std::unordered_map<std::string, std::unique_ptr<core::QueryEngine>> engines;
  double plan_ms = 0.0, classify_ms = 0.0, resolve_ms = 0.0;
  int64_t camera_plans = 0;
  int64_t work_items = 0;
  const auto engine_steps = [&](const std::string& camera, const core::QueryPlan& plan) {
    auto& engine = engines[camera];
    if (engine == nullptr) {
      const core::FocusStream* stream = fleet.Find(camera);
      engine = std::make_unique<core::QueryEngine>(&stream->ingest().index,
                                                   &stream->ingest_cnn(), &stream->gt_cnn());
    }
    const int64_t t0 = NowNs();
    const std::vector<common::ClassId> verdicts = engine->ClassifyPlan(plan);
    const int64_t t1 = NowNs();
    (void)engine->Resolve(plan, verdicts);
    classify_ms += MillisBetween(t0, t1);
    resolve_ms += MillisBetween(t1, NowNs());
    ++camera_plans;
    work_items += static_cast<int64_t>(plan.work.size());
  };
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Request& r = schedule[i];
    common::Result<core::FederatedPlan> federated = core::FederatedPlan{};
    {
      ScopedSpan replay(&ctx.spans, kReplaySpan, static_cast<int64_t>(i));
      {
        ScopedSpan span(&ctx.spans, "server.parse");
        (void)server::ParseRequest(r.line);
      }
      if (!r.federated) {
        ScopedSpan span(&ctx.spans, "fleet.execute");
        runtime::FleetQueryRequest request;
        request.camera = r.cameras.front();
        request.tenant = r.tenant;
        request.query.stream = fleet.Find(r.cameras.front());
        request.query.cls = r.spec.cls;
        request.query.kx = r.spec.kx;
        request.query.range = r.spec.range;
        (void)service.Execute(request);
      } else {
        {
          ScopedSpan span(&ctx.spans, "query.plan");
          federated = fleet.PlanFederated(r.spec.cls, SelectorOf(r), r.spec.range, r.spec.kx);
        }
        if (federated.ok()) {
          ScopedSpan span(&ctx.spans, "fleet.execute");
          (void)service.ExecuteFederated(*federated, r.tenant);
        }
      }
    }
    // The engine's steps on the same plans, outside the ledger.
    if (!r.federated) {
      const int64_t t0 = NowNs();
      const core::QueryPlan plan =
          fleet.Find(r.cameras.front())->Plan(r.spec.cls, r.spec.kx, r.spec.range);
      plan_ms += MillisBetween(t0, NowNs());
      engine_steps(r.cameras.front(), plan);
    } else if (federated.ok()) {
      for (const core::FederatedCameraPlan& camera : federated->cameras) {
        engine_steps(camera.camera, camera.plan);
      }
    }
  }
  ctx.ledger_wall_ms = handle_line_ms;

  const Ledger ledger = BuildLedger(ctx.spans.spans(), handle_line_ms);
  const auto mean_us = [&](const std::string& name) {
    const int64_t n = ledger.SpansOf(name);
    return n > 0 ? 1e3 * ledger.SelfOf(name) / static_cast<double>(n) : 0.0;
  };
  const double n = static_cast<double>(schedule.size());
  const double plans = static_cast<double>(camera_plans);
  ctx.Set("server.parse_us", mean_us("server.parse"));
  ctx.Set("fleet.execute_us", mean_us("fleet.execute"));
  // Per request: a single-camera plan, or the whole federated plan.
  ctx.Set("query.plan_us", 1e3 * (plan_ms + ledger.SelfOf("query.plan")) / n);
  ctx.Set("query.classify_us", plans > 0 ? 1e3 * classify_ms / plans : 0.0);
  ctx.Set("query.resolve_us", plans > 0 ? 1e3 * resolve_ms / plans : 0.0);
  ctx.Set("query.work_items", static_cast<double>(work_items) / n);
  // HandleLine minus the parse, plan and execution it wraps.
  ctx.Set("server.residual_us", 1e3 * ledger.residual_ms / n);
}

}  // namespace

void RunQueryFleet(RunContext& ctx) {
  const video::ClassCatalog catalog(kWorldSeed);
  const cnn::Cnn gt(cnn::GtCnnDesc(kWorldSeed), &catalog);

  // --- Set-up: build the fleet (tune + ingest per camera), repeated ---
  std::unique_ptr<core::FocusFleet> fleet;
  std::vector<std::string> cameras;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ScopedSpan span(&ctx.spans, "setup");
    const int64_t t0 = NowNs();
    fleet = std::make_unique<core::FocusFleet>();
    cameras.clear();
    int64_t skips = 0;
    for (const FleetCamera& c : kCameras) {
      core::FocusOptions options;
      options.tuner = BenchTunerOptions();
      auto added = fleet->AddCamera(c.name, &catalog, ProfileOrDie(c.name), c.duration_sec, kFps,
                                    RecordingSeed(c.name), options,
                                    core::CameraMeta{c.region, {}});
      if (!added.ok()) {
        ++skips;
        continue;
      }
      cameras.push_back(c.name);
    }
    ctx.setup_skips = skips;
    setup_s.push_back(MillisBetween(t0, NowNs()) / 1e3);
  }
  ctx.Set("setup_s", Median(setup_s));
  if (cameras.empty()) {
    ctx.checks_failed = true;
    ctx.Note("FAIL setup: the tuner rejected every camera");
    return;
  }
  const std::vector<Request> schedule =
      MakeSchedule(*fleet, catalog, cameras, ctx.options.seed, ctx.options.seconds);

  // --- Measured phase: the open-loop client ---
  runtime::MetricsRegistry metrics;
  server::QueryServer server(fleet.get(), &catalog, &metrics);
  std::vector<std::string> responses(schedule.size());
  std::vector<double> from_due_ms(schedule.size());
  std::vector<double> service_ms(schedule.size());
  std::vector<double> late_ms(schedule.size());
  const ProcCounters proc_before = ReadProcCounters();
  const int64_t origin = NowNs();
  for (size_t i = 0; i < schedule.size(); ++i) {
    const int64_t due = origin + schedule[i].due_ns;
    SleepUntilNs(due);
    const int64_t sent = NowNs();
    {
      ScopedSpan span(&ctx.spans, "server.handle_line", static_cast<int64_t>(i));
      responses[i] = server.HandleLine(schedule[i].line);
    }
    const int64_t done = NowNs();
    late_ms[i] = MillisBetween(due, sent);
    from_due_ms[i] = MillisBetween(due, done);
    service_ms[i] = MillisBetween(sent, done);
  }
  const double busy_ms = std::accumulate(service_ms.begin(), service_ms.end(), 0.0);
  const ProcCounters proc = Delta(proc_before, ReadProcCounters());
  const runtime::FleetServiceStats stats = server.service().stats();
  ctx.Set("peak_rss_mb", proc.maxrss_mb);
  // The operation latency is HandleLine's service time; the time from each
  // request's due time also holds the generator's own lateness (see README).
  SetLatency(ctx, "op_ms", service_ms);
  SetLatency(ctx, "query_ms", from_due_ms);
  ctx.Set("service_rate", WindowedRate(service_ms));
  ctx.Set("gen.late_ms_p99", Percentile(late_ms, TailPercentile(late_ms.size())));
  SetFleetMetrics(ctx, stats, server.service().options().batch_size);
  SetProcCounters(ctx, proc);

  // --- Correctness against the sequential oracle (memoized per line) ---
  {
    ScopedSpan verify_span(&ctx.spans, "verify");
    std::unordered_map<std::string, std::string> oracle;
    std::vector<double> gpu_latency_ms;
    int64_t answered = 0;
    for (size_t i = 0; i < schedule.size(); ++i) {
      const Request& r = schedule[i];
      auto [it, inserted] = oracle.try_emplace(r.line);
      if (inserted) {
        it->second = Expected(*fleet, r);
      }
      std::string stripped;
      double latency = 0.0;
      const char* kind = r.federated ? "federated_query" : "query";
      if (!StripLatency(responses[i], &stripped, &latency) || stripped != it->second) {
        ctx.ops.Fail(kind, r.line + " -> " + responses[i].substr(0, 120));
        continue;
      }
      ctx.ops.Ok(kind);
      gpu_latency_ms.push_back(latency);
      ++answered;
    }
    ctx.Set("gpu_ms_per_query", answered > 0 ? stats.gpu_millis / answered : 0.0);
    ctx.Set("query_gpu_ms_p99",
            Percentile(gpu_latency_ms, TailPercentile(gpu_latency_ms.size())));

    std::vector<StreamAccuracy> scores;
    int64_t detections = 0;
    int64_t clusters = 0;
    for (const std::string& camera : cameras) {
      const core::FocusStream* stream = fleet->Find(camera);
      const core::IngestResult& ingest = stream->ingest();
      detections += ingest.detections;
      clusters += ingest.num_clusters;
      scores.push_back(ScoreIndex(stream->run(), ingest.index, stream->ingest_cnn(), gt,
                                  ingest.detections, ingest.gpu_millis));
    }
    ctx.Set("cluster.clusters_per_kdet",
            detections > 0 ? 1000.0 * static_cast<double>(clusters) / detections : 0.0);
    ReportAccuracy(ctx, scores);
  }
  if (ctx.spans.enabled()) {
    ReplayThroughLayers(ctx, *fleet, schedule, busy_ms);
    // The tuner's share of set-up, measured on its own (FocusFleet::AddCamera
    // tunes inside the call).
    std::vector<double> tune_ms;
    int64_t configs = 0;
    for (const std::string& camera : cameras) {
      ScopedSpan span(&ctx.spans, "tune");
      const core::FocusStream* stream = fleet->Find(camera);
      const core::ParameterTuner tuner(&catalog, &gt, BenchTunerOptions());
      const int64_t t0 = NowNs();
      const core::TuningResult tuning =
          tuner.Tune(stream->run(), stream->run().profile().appearance_variability,
                     core::AccuracyTarget{}, core::Policy::kBalance);
      tune_ms.push_back(MillisBetween(t0, NowNs()));
      configs = static_cast<int64_t>(tuning.evaluated.size());
    }
    ctx.Set("tune.ms", Median(tune_ms));
    ctx.Set("tune.configs", static_cast<double>(configs));
  }
}

}  // namespace focus::perfbench
