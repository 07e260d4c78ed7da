// Query-side batched GT-CNN execution: GPU-millis and virtual latency vs
// batch_size, for one query and for several concurrent queries.
//
// The seed query path classified matching-cluster centroids one Top1() launch at
// a time, so neither one query nor several concurrent analysts could fill a GPU
// batch (ROADMAP "Query-side batch GT-CNN"). The plan/execute redesign makes
// batching the native mode: QueryEngine::Plan emits centroid work items,
// runtime::FleetQueryService pools them across concurrent requests, dedups
// shared (stream, centroid) classifications, and packs launches of up to
// batch_size images whose per-launch overhead is paid once (cnn cost model,
// kLaunchOverheadShare). Each scenario runs on a fresh service, so its verdict
// cache starts empty and every unique centroid is paid. This bench tracks, per
// (concurrency, batch_size):
//
//   - total GPU-millis actually charged to the 10-GPU virtual cluster,
//   - mean/max request latency on the virtual clock,
//   - launch and dedup accounting,
//
// and verifies the batched results stay identical to the per-centroid engine
// output (batch_size = 1 is exactly the legacy schedule). A separate scenario
// submits duplicate concurrent queries to expose the cross-query dedup.
//
// Emits BENCH_query_batch.json next to the binary. FOCUS_BENCH_HOURS overrides
// the simulated recording length (default 0.15 h).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cnn/ground_truth.h"
#include "src/runtime/fleet_query_service.h"

namespace {

using focus::bench::BenchConfig;
using focus::bench::ConfigFromEnv;
using focus::bench::MakeRun;
using focus::core::FocusOptions;
using focus::core::FocusStream;
using focus::core::QueryResult;
using focus::runtime::FleetQueryRequest;
using focus::runtime::FleetQueryService;
using focus::runtime::FleetServiceStats;
using focus::runtime::QueryExecution;
using focus::runtime::QueryServiceOptions;

constexpr int kNumGpus = 10;

struct Scenario {
  int concurrency = 1;
  int batch_size = 1;
  bool duplicates = false;  // All requests the same class (dedup showcase).
  FleetServiceStats stats;
  double mean_latency_millis = 0.0;
  double max_latency_millis = 0.0;
  bool identical = true;  // Results match the direct engine query.
};

}  // namespace

int main() {
  const BenchConfig config = ConfigFromEnv();
  const focus::video::ClassCatalog catalog(config.world_seed);
  const focus::video::StreamRun run = MakeRun(catalog, "auburn_c", config);

  auto focus_or = FocusStream::Build(&run, &catalog, FocusOptions{});
  if (!focus_or.ok()) {
    std::fprintf(stderr, "FocusStream::Build failed: %s\n",
                 focus_or.error().message.c_str());
    return 1;
  }
  const FocusStream& focus = **focus_or;

  focus::cnn::SegmentGroundTruth truth(run, focus.gt_cnn());
  const std::vector<focus::common::ClassId> dominant = truth.DominantClasses(0.95, 4);
  if (dominant.empty()) {
    std::fprintf(stderr, "no dominant classes in the simulated stream\n");
    return 1;
  }

  // Ground truth for identity checks: the engine's one-call query per class.
  std::vector<QueryResult> direct;
  direct.reserve(dominant.size());
  for (focus::common::ClassId cls : dominant) {
    direct.push_back(focus.Query(cls));
  }

  const int batch_sizes[] = {1, 8, 32};
  const int concurrencies[] = {1, 4};

  std::printf("query-side batched GT-CNN on a %d-GPU virtual cluster (%s, %.2f h)\n",
              kNumGpus, "auburn_c", config.hours);
  std::printf("%5s %6s %4s %8s %7s %8s %12s %12s %12s %10s\n", "conc", "batch", "dup",
              "work", "unique", "launches", "gpu_ms", "mean_lat_ms", "max_lat_ms",
              "identical");

  std::vector<Scenario> scenarios;
  bool all_identical = true;
  bool batching_wins = true;
  for (int concurrency : concurrencies) {
    for (bool duplicates : {false, true}) {
      if (duplicates && concurrency == 1) {
        continue;  // Duplicate scenario needs >1 request.
      }
      for (int batch_size : batch_sizes) {
        Scenario s;
        s.concurrency = concurrency;
        s.batch_size = batch_size;
        s.duplicates = duplicates;

        std::vector<FleetQueryRequest> requests;
        for (int i = 0; i < concurrency; ++i) {
          const size_t cls_index =
              duplicates ? 0 : static_cast<size_t>(i) % dominant.size();
          requests.push_back(
              FleetQueryRequest{"auburn_c", "default", {&focus, dominant[cls_index], -1, {}}});
        }

        FleetQueryService service(QueryServiceOptions{kNumGpus, batch_size});
        const std::vector<QueryExecution> executions =
            service.ExecuteConcurrently(requests);

        s.stats = service.stats();
        for (size_t i = 0; i < executions.size(); ++i) {
          const double latency = executions[i].latency_millis();
          s.mean_latency_millis += latency / static_cast<double>(executions.size());
          s.max_latency_millis = std::max(s.max_latency_millis, latency);
          const size_t cls_index =
              s.duplicates ? 0 : i % dominant.size();
          const QueryResult& expect = direct[cls_index];
          s.identical = s.identical &&
                        executions[i].result.frame_runs == expect.frame_runs &&
                        executions[i].result.frames_returned == expect.frames_returned &&
                        executions[i].result.clusters_matched == expect.clusters_matched &&
                        executions[i].result.centroids_classified ==
                            expect.centroids_classified;
        }
        all_identical = all_identical && s.identical;

        std::printf("%5d %6d %4s %8lld %7lld %8lld %12.1f %12.1f %12.1f %10s\n",
                    s.concurrency, s.batch_size, s.duplicates ? "yes" : "no",
                    static_cast<long long>(s.stats.work_items),
                    static_cast<long long>(s.stats.cache_misses),
                    static_cast<long long>(s.stats.launches), s.stats.gpu_millis,
                    s.mean_latency_millis, s.max_latency_millis,
                    s.identical ? "yes" : "NO");
        scenarios.push_back(s);
      }
      // Acceptance: with more unique work than GPUs, batch_size > 1 must beat
      // batch_size = 1 on both total GPU time and latency (the launch overhead
      // is amortized without giving up the fleet-wide fan-out).
      const Scenario& base = scenarios[scenarios.size() - 3];  // batch_size = 1.
      for (size_t i = scenarios.size() - 2; i < scenarios.size(); ++i) {
        const Scenario& batched = scenarios[i];
        if (base.stats.cache_misses > kNumGpus &&
            (batched.stats.gpu_millis >= base.stats.gpu_millis ||
             batched.max_latency_millis >= base.max_latency_millis)) {
          batching_wins = false;
        }
      }
    }
  }

  FILE* f = std::fopen("BENCH_query_batch.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"query_batch\",\n  \"num_gpus\": %d,\n", kNumGpus);
    std::fprintf(f, "  \"hours\": %.3f,\n  \"scenarios\": [\n", config.hours);
    for (size_t i = 0; i < scenarios.size(); ++i) {
      const Scenario& s = scenarios[i];
      std::fprintf(
          f,
          "    {\"concurrency\": %d, \"batch_size\": %d, \"duplicates\": %s, "
          "\"work_items\": %lld, \"unique_items\": %lld, \"dedup_hits\": %lld, "
          "\"launches\": %lld, \"gpu_millis\": %.1f, \"mean_latency_millis\": %.1f, "
          "\"max_latency_millis\": %.1f, \"identical\": %s}%s\n",
          s.concurrency, s.batch_size, s.duplicates ? "true" : "false",
          static_cast<long long>(s.stats.work_items),
          static_cast<long long>(s.stats.cache_misses),
          static_cast<long long>(s.stats.dedup_hits),
          static_cast<long long>(s.stats.launches), s.stats.gpu_millis,
          s.mean_latency_millis, s.max_latency_millis, s.identical ? "true" : "false",
          i + 1 < scenarios.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_query_batch.json\n");
  }

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: batched results diverge from the per-centroid path\n");
    return 1;
  }
  if (!batching_wins) {
    std::fprintf(stderr,
                 "FAIL: batch_size > 1 did not reduce GPU-millis and latency vs 1\n");
    return 1;
  }
  return 0;
}
