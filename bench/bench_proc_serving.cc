// Supervised multi-process serving (src/runtime/supervised_worker_pool.h,
// docs/shm_serving.md, docs/robustness.md): no-fault overhead of the
// supervision layer — deadline plumbing, health bookkeeping, restart budgets,
// sibling-retry routing — over the raw WorkerProcessPool RPC on the same
// shm-query worker handler.
//
// The supervisor's claim is that its machinery is bookkeeping around the
// blocking RPC, not work on the request path: with no fault plan armed, a
// query through SupervisedWorkerPool::Call costs the same socket round-trip +
// mapped scan as WorkerProcessPool::Call, plus a mutex and a few counters.
// This bench holds the claim as numbers, per pool size (2 / 4 workers):
//
//   direct_sweep_ms        full query sweep round-robined over the raw pool,
//                          best of 7 samples of 20 sweep iterations each
//                          (serialized RPC round-trips; min is the
//                          noise-robust statistic on a shared host)
//   supervised_sweep_ms    the same sweep through SupervisedWorkerPool::Call,
//                          same handler, same deadline, same sampling
//   supervised_over_direct the guardrail row (acceptance: <= 1.05x — the
//                          bench hard-fails past it, and
//                          check_bench_regression.py gates drift)
//   identical              every reply on both paths byte-identical to the
//                          parent's own mapped-scan answer
//
// Emits BENCH_proc_serving.json next to the binary; gated by
// bench/check_bench_regression.py via run_benches.sh --check.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cnn/ground_truth.h"
#include "src/cnn/model_zoo.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/live_snapshot.h"
#include "src/runtime/supervised_worker_pool.h"
#include "src/runtime/worker_process_pool.h"
#include "src/shm/epoch_plane.h"
#include "src/video/stream_generator.h"

namespace {

using Clock = std::chrono::steady_clock;
using focus::core::LiveSnapshot;
using focus::shm::EpochPublisher;
using focus::shm::ShmSnapshotReader;

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

struct QuerySpec {
  focus::common::ClassId cls = focus::common::kInvalidClass;
  int kx = -1;
  focus::common::TimeRange range;
};

// Exact textual encoding of a QueryResult (hexfloat GPU accounting), so
// byte-identity over the worker RPC is plain string equality.
std::string EncodeResult(const focus::core::QueryResult& r) {
  std::ostringstream out;
  out << r.queried << ' ' << r.centroids_classified << ' ' << r.clusters_matched << ' '
      << r.frames_returned << ' ' << std::hexfloat << r.gpu_millis;
  for (const auto& [first, last] : r.frame_runs) {
    out << ' ' << first << ':' << last;
  }
  return out.str();
}

std::string QueryLine(const QuerySpec& spec) {
  std::ostringstream out;
  out << "Q " << spec.cls << ' ' << spec.kx << ' ' << std::hexfloat << spec.range.begin_sec
      << ' ' << spec.range.end_sec;
  return out.str();
}

std::vector<std::string> Split(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

// The worker-side handler both pools fork: lazy attach, models rebuilt from
// the header's seed provenance, one mapped-scan query per request. Range
// bounds arrive in hexfloat and are parsed with strtod — istream extraction
// rejects hexfloat.
struct ProcWorker {
  std::string segment;
  std::unique_ptr<ShmSnapshotReader> reader;
  std::unique_ptr<focus::video::ClassCatalog> catalog;
  std::unique_ptr<focus::cnn::Cnn> cheap;
  std::unique_ptr<focus::cnn::Cnn> gt;

  std::string EnsureAttached() {
    if (reader != nullptr) {
      return "";
    }
    auto attached = ShmSnapshotReader::Attach(segment);
    if (!attached.ok()) {
      return "ERR attach: " + attached.error().message;
    }
    reader = std::move(*attached);
    auto provenance = reader->Provenance();
    if (!provenance.ok()) {
      return "ERR provenance: " + provenance.error().message;
    }
    catalog = std::make_unique<focus::video::ClassCatalog>(provenance->world_seed);
    cheap = std::make_unique<focus::cnn::Cnn>(
        focus::cnn::GenericCheapCandidates(
            provenance->cheap_weights_seed)[provenance->cheap_candidate_index],
        catalog.get());
    gt = std::make_unique<focus::cnn::Cnn>(focus::cnn::GtCnnDesc(provenance->gt_weights_seed),
                                           catalog.get());
    return "";
  }

  std::string Handle(const std::string& request) {
    if (std::string err = EnsureAttached(); !err.empty()) {
      return err;
    }
    const std::vector<std::string> tokens = Split(request);
    if (tokens.size() != 5 || tokens[0] != "Q") {
      return "ERR bad request " + request;
    }
    const auto cls =
        static_cast<focus::common::ClassId>(std::strtol(tokens[1].c_str(), nullptr, 10));
    const int kx = static_cast<int>(std::strtol(tokens[2].c_str(), nullptr, 10));
    focus::common::TimeRange range;
    range.begin_sec = std::strtod(tokens[3].c_str(), nullptr);
    range.end_sec = std::strtod(tokens[4].c_str(), nullptr);
    auto view = reader->Acquire();
    if (!view.ok()) {
      return "ERR acquire: " + view.error().message;
    }
    auto result = view->QueryChecked(cls, kx, range, *cheap, *gt);
    if (!result.ok()) {
      return "ERR evicted: " + result.error().message;
    }
    return EncodeResult(*result);
  }
};

struct ProcRow {
  int workers = 0;
  int64_t epochs = 0;
  int64_t queries = 0;
  double direct_sweep_ms = 0.0;
  double supervised_sweep_ms = 0.0;
  double supervised_over_direct = 0.0;
  bool gated = true;
  bool identical = true;
};

}  // namespace

int main() {
  constexpr uint64_t kWorldSeed = 23;
  constexpr double kDurationSec = 20.0;
  constexpr int kDeadlineMillis = 5000;
  constexpr double kGuardrail = 1.05;

  const focus::video::ClassCatalog catalog(kWorldSeed);
  focus::video::StreamProfile profile;
  if (!focus::video::FindProfile("auburn_c", &profile)) {
    std::fprintf(stderr, "FAIL: profile auburn_c missing\n");
    return 1;
  }
  const focus::core::IngestParams params = Params();
  focus::cnn::Cnn cheap(params.model, &catalog);
  focus::cnn::Cnn gt(focus::cnn::GtCnnDesc(kWorldSeed), &catalog);

  // One plane for every row: a cadenced run published epoch by epoch.
  const std::string segment = "/focus_bench_proc_" + std::to_string(::getpid());
  EpochPublisher::Options popts;
  popts.provenance = {kWorldSeed, 5, 1, kWorldSeed};
  auto publisher = EpochPublisher::Create(segment, popts);
  if (!publisher.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", publisher.error().message.c_str());
    return 1;
  }
  (*publisher)->UnlinkOnDestroy(true);

  focus::video::StreamRun run(&catalog, profile, kDurationSec, /*fps=*/30.0,
                              /*stream_seed=*/11);
  const focus::core::ClassifiedSample sample = focus::core::ClassifySample(run, cheap, params.k);
  int64_t epochs = 0;
  std::shared_ptr<const LiveSnapshot> latest;
  focus::core::IngestOptions ingest;
  ingest.finalize_every_frames = 60;
  ingest.snapshot_sink = [&](std::shared_ptr<const LiveSnapshot> snap) {
    auto gen = (*publisher)->Publish(*snap);
    if (!gen.ok()) {
      std::fprintf(stderr, "FAIL: publish: %s\n", gen.error().message.c_str());
      std::exit(1);
    }
    ++epochs;
    latest = std::move(snap);
  };
  focus::core::RunIngestClassified(sample, params, ingest);
  if (latest == nullptr) {
    std::fprintf(stderr, "FAIL: no epoch published\n");
    return 1;
  }

  // The sweep both pools serve: the plane's populated classes x Kx x range,
  // plus a near-certain miss.
  std::set<focus::common::ClassId> classes;
  const focus::index::IndexView view = latest->index.view();
  for (uint64_t id = 0; id < view.num_clusters(); ++id) {
    for (const focus::index::RankedClass& c : view.classes(id)) {
      classes.insert(c.cls);
    }
    if (classes.size() >= 4) {
      break;
    }
  }
  classes.insert(focus::video::kNumClasses - 1);
  std::vector<QuerySpec> specs;
  for (focus::common::ClassId c : classes) {
    specs.push_back({c, -1, {}});
    specs.push_back({c, 1, {}});
    specs.push_back({c, -1, {2.0, kDurationSec / 2.0}});
  }

  // Parent-side reference answers from its own mapping.
  auto ref_reader = ShmSnapshotReader::Attach(segment);
  if (!ref_reader.ok()) {
    std::fprintf(stderr, "FAIL: attach: %s\n", ref_reader.error().message.c_str());
    return 1;
  }
  auto ref_view = (*ref_reader)->Acquire();
  if (!ref_view.ok()) {
    std::fprintf(stderr, "FAIL: acquire: %s\n", ref_view.error().message.c_str());
    return 1;
  }
  std::vector<std::string> lines, expected;
  for (const QuerySpec& spec : specs) {
    lines.push_back(QueryLine(spec));
    expected.push_back(EncodeResult(ref_view->Query(spec.cls, spec.kx, spec.range, cheap, gt)));
  }

  std::printf("supervised worker RPC: no-fault overhead over the raw pool\n");
  std::printf("%8s %7s %8s %11s %14s %12s %10s\n", "workers", "epochs", "queries", "direct_ms",
              "supervised_ms", "sup/direct", "identical");

  std::vector<ProcRow> rows;
  bool all_identical = true;
  bool guardrail_ok = true;
  for (int workers : {2, 4}) {
    ProcRow row;
    row.workers = workers;
    row.epochs = epochs;
    row.queries = static_cast<int64_t>(specs.size());

    // Raw pool: the bare RPC under the same deadline, round-robined by hand.
    focus::runtime::WorkerProcessPool direct;
    auto direct_state = std::make_shared<ProcWorker>();
    direct_state->segment = segment;
    auto started = direct.Start(
        workers, [direct_state](const std::string& line) { return direct_state->Handle(line); });
    if (!started.ok()) {
      std::fprintf(stderr, "FAIL: direct start: %s\n", started.error().message.c_str());
      return 1;
    }

    focus::runtime::SupervisedPoolOptions sopts;
    sopts.num_workers = workers;
    sopts.call_deadline_millis = kDeadlineMillis;
    focus::runtime::MetricsRegistry metrics;
    focus::runtime::SupervisedWorkerPool supervised(sopts, &metrics);
    auto sup_state = std::make_shared<ProcWorker>();
    sup_state->segment = segment;
    auto sup_started = supervised.Start(
        [sup_state](const std::string& line) { return sup_state->Handle(line); });
    if (!sup_started.ok()) {
      std::fprintf(stderr, "FAIL: supervised start: %s\n", sup_started.error().message.c_str());
      return 1;
    }

    // Identity pass first (also warms every worker's lazy attach + postings,
    // so the timed samples measure steady state on both sides).
    for (int warm = 0; warm < 2; ++warm) {
      for (size_t i = 0; i < lines.size(); ++i) {
        const int slot = static_cast<int>(i) % workers;
        auto d = direct.Call(slot, lines[i], kDeadlineMillis);
        auto s = supervised.Call(lines[i]);
        if (!d.ok() || *d != expected[i] || !s.ok() || *s != expected[i]) {
          row.identical = false;
        }
      }
    }

    // Timing: 9 samples of 60 sweep iterations each, best (min) per side —
    // single sweeps are serialized sub-100us round-trips and swing with
    // scheduler noise on shared hosts; min over multi-millisecond samples is
    // the stable statistic, and a tight 1.05x guardrail needs ~1% noise.
    constexpr int kSamples = 9;
    constexpr int kItersPerSample = 60;
    std::vector<double> direct_walls, supervised_walls;
    for (int s = 0; s < kSamples; ++s) {
      auto t0 = Clock::now();
      for (int it = 0; it < kItersPerSample; ++it) {
        for (size_t i = 0; i < lines.size(); ++i) {
          direct.Call(static_cast<int>(i) % workers, lines[i], kDeadlineMillis);
        }
      }
      direct_walls.push_back(MillisSince(t0) / kItersPerSample);
      t0 = Clock::now();
      for (int it = 0; it < kItersPerSample; ++it) {
        for (const std::string& line : lines) {
          supervised.Call(line);
        }
      }
      supervised_walls.push_back(MillisSince(t0) / kItersPerSample);
    }
    row.direct_sweep_ms = *std::min_element(direct_walls.begin(), direct_walls.end());
    row.supervised_sweep_ms =
        *std::min_element(supervised_walls.begin(), supervised_walls.end());
    row.supervised_over_direct =
        row.direct_sweep_ms > 0.0 ? row.supervised_sweep_ms / row.direct_sweep_ms : 0.0;

    // No-fault means no supervision events: any restart or sibling retry in
    // this bench is itself a correctness failure, not noise.
    const auto stats = supervised.stats();
    if (stats.restarts != 0 || stats.sibling_retries != 0 || stats.timeouts != 0) {
      row.identical = false;
    }
    all_identical = all_identical && row.identical;
    if (row.gated && row.supervised_over_direct > kGuardrail) {
      guardrail_ok = false;
    }

    std::printf("%8d %7lld %8lld %11.3f %14.3f %12.3f %10s\n", row.workers,
                static_cast<long long>(row.epochs), static_cast<long long>(row.queries),
                row.direct_sweep_ms, row.supervised_sweep_ms, row.supervised_over_direct,
                row.identical ? "yes" : "NO");
    rows.push_back(row);

    supervised.Shutdown();
    direct.Shutdown();
  }

  FILE* f = std::fopen("BENCH_proc_serving.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"proc_serving\",\n  \"proc_serving\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const ProcRow& r = rows[i];
      std::fprintf(f,
                   "    {\"workers\": %d, \"gated\": %s, \"epochs\": %lld, \"queries\": %lld, "
                   "\"direct_sweep_ms\": %.4f, \"supervised_sweep_ms\": %.4f, "
                   "\"supervised_over_direct\": %.4f, \"identical\": %s}%s\n",
                   r.workers, r.gated ? "true" : "false", static_cast<long long>(r.epochs),
                   static_cast<long long>(r.queries), r.direct_sweep_ms, r.supervised_sweep_ms,
                   r.supervised_over_direct, r.identical ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_proc_serving.json\n");
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: supervised/direct reply diverged from the parent's mapped answer "
                 "(or supervision fired with no faults armed)\n");
    return 1;
  }
  if (!guardrail_ok) {
    std::fprintf(stderr, "FAIL: supervised call wall > %.2fx the raw pool\n", kGuardrail);
    return 1;
  }
  return 0;
}
