// No-fault overhead of the robustness machinery (docs/robustness.md).
//
// The fault-injection sites, the typed-error (Result) plumbing, and the
// IngestService supervision loop are all compiled into the production ingest
// path and run on every frame of every stream — so their cost with *no plan
// armed and no faults occurring* is the price of robustness, and it must stay
// negligible. Two comparisons, interleaved best-of-N on the same stream:
//
//   - checked:    core::RunIngestChecked vs core::RunIngest (volatile). Same
//                 pipeline; the checked wrapper adds the typed-error path the
//                 supervisor consumes.
//   - supervised: a 1-stream IngestService::RunAll (supervision loop, health
//                 registry, cluster accounting) vs core::RunIngest direct.
//
// Both must produce byte-identical results to the direct run (`identical`),
// and the tracked guardrail is the wrapped/direct wall ratio
// (`wrapped_over_direct`, target < 1.05). Emits BENCH_chaos.json.
// FOCUS_BENCH_CHAOS_SEC overrides the stream duration (default 60 s).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/cnn/model_zoo.h"
#include "src/core/ingest_pipeline.h"
#include "src/runtime/ingest_service.h"
#include "src/video/stream_generator.h"

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

namespace core = focus::core;

core::IngestParams Params() {
  core::IngestParams params;
  params.model = focus::cnn::GenericCheapCandidates(5)[1];
  params.k = 4;
  params.cluster_threshold = 0.6;
  return params;
}

const std::string& IndexBytes(const core::IngestResult& result) { return result.index.image(); }

bool SameResult(const core::IngestResult& a, const core::IngestResult& b) {
  return a.detections == b.detections && a.cnn_invocations == b.cnn_invocations &&
         a.suppressed == b.suppressed && a.gpu_millis == b.gpu_millis &&
         IndexBytes(a) == IndexBytes(b);
}

struct OverheadResult {
  std::string path;
  double direct_ms = 0.0;
  double wrapped_ms = 0.0;
  double wrapped_over_direct = 0.0;  // Guardrail: < 1.05 target, gated at 15%.
  bool identical = false;
};

}  // namespace

int main() {
  double duration_sec = 60.0;
  if (const char* env = std::getenv("FOCUS_BENCH_CHAOS_SEC")) {
    duration_sec = std::atof(env);
  }

  focus::video::ClassCatalog catalog(17);
  focus::video::StreamProfile profile;
  if (!focus::video::FindProfile("auburn_c", &profile)) {
    std::fprintf(stderr, "FAIL: profile auburn_c missing\n");
    return 1;
  }
  focus::video::StreamRun run(&catalog, profile, duration_sec, 30.0, 11);
  focus::cnn::Cnn cheap(Params().model, &catalog);

  // Interleaved best-of-N: timing noise on shared hosts is strictly additive,
  // so min(direct) vs min(wrapped) estimates the true ratio. The generator
  // sweep is the same fixed simulator overhead on every side; it stays *in*
  // both numbers (both strategies pay it identically), which biases the ratio
  // toward 1 — i.e. under-reports the machinery's relative cost by the same
  // factor a real frame-read would.
  constexpr int kReps = 5;

  const core::IngestResult reference = core::RunIngest(run, cheap, Params());

  OverheadResult checked;
  checked.path = "checked";
  core::IngestResult checked_result;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = Clock::now();
    const core::IngestResult direct = core::RunIngest(run, cheap, Params());
    const double direct_ms = MillisSince(t0);
    t0 = Clock::now();
    auto outcome = core::RunIngestChecked(run, cheap, Params());
    const double wrapped_ms = MillisSince(t0);
    if (!outcome.ok()) {
      std::fprintf(stderr, "FAIL: checked ingest errored with no fault armed: %s\n",
                   outcome.error().message.c_str());
      return 1;
    }
    checked_result = *std::move(outcome);
    (void)direct;
    checked.direct_ms = rep == 0 ? direct_ms : std::min(checked.direct_ms, direct_ms);
    checked.wrapped_ms = rep == 0 ? wrapped_ms : std::min(checked.wrapped_ms, wrapped_ms);
  }
  checked.wrapped_over_direct =
      checked.direct_ms > 0.0 ? checked.wrapped_ms / checked.direct_ms : 0.0;
  checked.identical = SameResult(checked_result, reference);

  OverheadResult supervised;
  supervised.path = "supervised";
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = Clock::now();
    const core::IngestResult direct = core::RunIngest(run, cheap, Params());
    const double direct_ms = MillisSince(t0);
    (void)direct;

    focus::runtime::IngestServiceOptions options;
    options.num_worker_threads = 1;
    focus::runtime::IngestService service(options);
    focus::runtime::IngestJob job;
    job.name = "bench";
    job.run = &run;
    job.params = Params();
    service.AddStream(job);
    t0 = Clock::now();
    const focus::runtime::FleetIngestSummary summary = service.RunAll();
    const double wrapped_ms = MillisSince(t0);
    supervised.identical = summary.reports.size() == 1 &&
                           summary.reports[0].health.state ==
                               focus::runtime::StreamState::kHealthy &&
                           SameResult(summary.reports[0].result, reference);
    supervised.direct_ms = rep == 0 ? direct_ms : std::min(supervised.direct_ms, direct_ms);
    supervised.wrapped_ms = rep == 0 ? wrapped_ms : std::min(supervised.wrapped_ms, wrapped_ms);
  }
  supervised.wrapped_over_direct =
      supervised.direct_ms > 0.0 ? supervised.wrapped_ms / supervised.direct_ms : 0.0;

  const std::vector<OverheadResult> results = {checked, supervised};
  std::printf("no-fault robustness overhead (%.0f s stream, best of %d interleaved reps)\n",
              duration_sec, kReps);
  std::printf("%12s %11s %11s %14s %10s\n", "path", "direct ms", "wrapped ms", "wrapped/direct",
              "identical");
  bool ok = true;
  for (const OverheadResult& r : results) {
    std::printf("%12s %11.1f %11.1f %13.3fx %10s\n", r.path.c_str(), r.direct_ms, r.wrapped_ms,
                r.wrapped_over_direct, r.identical ? "yes" : "NO");
    ok = ok && r.identical;
    if (r.wrapped_over_direct > 1.05) {
      std::printf("  note: %s overhead %.1f%% exceeds the 5%% target (15%% guardrail gates it)\n",
                  r.path.c_str(), 100.0 * (r.wrapped_over_direct - 1.0));
    }
  }

  FILE* f = std::fopen("BENCH_chaos.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"chaos\",\n  \"overhead\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const OverheadResult& r = results[i];
      std::fprintf(f,
                   "    {\"path\": \"%s\", \"direct_ms\": %.2f, \"wrapped_ms\": %.2f, "
                   "\"wrapped_over_direct\": %.4f, \"identical\": %s}%s\n",
                   r.path.c_str(), r.direct_ms, r.wrapped_ms, r.wrapped_over_direct,
                   r.identical ? "true" : "false", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_chaos.json\n");
  }

  if (!ok) {
    std::fprintf(stderr, "FAIL: wrapped ingest diverged from the direct run with no fault armed\n");
    return 1;
  }
  return 0;
}
