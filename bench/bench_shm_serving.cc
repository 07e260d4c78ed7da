// Zero-copy multi-process serving (src/shm/epoch_plane.h, docs/shm_serving.md):
// cold-attach latency, shm-vs-in-process query wall parity, and per-epoch
// publish overhead of the shared-memory epoch plane.
//
// The plane's claim is that a query answered from the mapped image in another
// process costs the same as the in-process snapshot query — attach is O(map +
// slot claim), the scan runs straight off the mapping, and nothing is
// serialized per query. This bench holds the claim as numbers, per stream
// length (60 s / 180 s):
//
//   attach_millis     cold ShmSnapshotReader::Attach (map + header adopt +
//                     slot claim), median of 5 fresh attaches
//   shm_query_ms      full query sweep (popular classes x Kx x range), each
//                     query one ShmSnapshotReader::Acquire + ShmEpochView::Query
//                     — the path the server's SHM QUERY runs — best of 7
//                     samples of 20 sweep iterations each (deterministic
//                     CPU-bound work; min is the noise-robust statistic on a
//                     shared host)
//   inproc_query_ms   the same sweep in process, each query one
//                     SnapshotSlot::Latest + core::QueryEngine over that
//                     snapshot (the server's live QUERY path), same sampling
//   shm_over_inproc   shm_query_ms / inproc_query_ms — the guardrail row
//                     (acceptance: <= 1.1x on the gated 180 s row)
//   publish_mean_ms   mean EpochPublisher::Publish wall per epoch
//   publish_overhead  total publish wall / cadenced ingest wall
//   identical         every shm result byte-identical (frame runs, counts,
//                     virtual GPU millis) to the in-process result
//
// Emits BENCH_shm_serving.json next to the binary; gated by
// bench/check_bench_regression.py via run_benches.sh --check.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/bench_util.h"
#include "src/cnn/ground_truth.h"
#include "src/cnn/model_zoo.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/live_snapshot.h"
#include "src/core/query_engine.h"
#include "src/shm/epoch_plane.h"
#include "src/video/stream_generator.h"

namespace {

using Clock = std::chrono::steady_clock;
using focus::bench::BenchConfig;
using focus::bench::ConfigFromEnv;
using focus::core::ClassifiedSample;
using focus::core::IngestOptions;
using focus::core::LiveSnapshot;
using focus::core::QueryResult;
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

bool SameResult(const QueryResult& a, const QueryResult& b) {
  return a.queried == b.queried && a.frame_runs == b.frame_runs &&
         a.frames_returned == b.frames_returned && a.clusters_matched == b.clusters_matched &&
         a.centroids_classified == b.centroids_classified && a.gpu_millis == b.gpu_millis;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct ShmRow {
  double duration_sec = 0.0;
  int64_t epochs = 0;
  int64_t clusters = 0;
  int64_t queries = 0;
  double attach_millis = 0.0;
  double publish_mean_ms = 0.0;
  double publish_overhead = 0.0;
  double inproc_query_ms = 0.0;
  double shm_query_ms = 0.0;
  double shm_over_inproc = 0.0;
  bool gated = false;
  bool identical = true;
};

}  // namespace

int main() {
  const BenchConfig config = ConfigFromEnv();
  const focus::video::ClassCatalog catalog(config.world_seed);
  focus::video::StreamProfile profile;
  if (!focus::video::FindProfile("auburn_c", &profile)) {
    std::fprintf(stderr, "FAIL: profile auburn_c missing\n");
    return 1;
  }
  const focus::core::IngestParams params = Params();
  focus::cnn::Cnn cheap(params.model, &catalog);
  focus::cnn::Cnn gt(focus::cnn::GtCnnDesc(catalog.world_seed()), &catalog);

  constexpr double kGuardrailDuration = 180.0;  // The acceptance row.
  constexpr int kReps = 5;

  std::printf("shared-memory epoch plane: cold attach + mapped scan vs in-process\n");
  std::printf("%7s %7s %9s %8s %11s %11s %10s %12s %10s %10s\n", "dur_s", "epochs", "clusters",
              "queries", "attach_ms", "publish_ms", "overhead", "inproc_ms", "shm_ms",
              "identical");

  std::vector<ShmRow> rows;
  bool all_identical = true;
  bool guardrail_ok = true;
  int row_index = 0;
  for (double duration_sec : {60.0, kGuardrailDuration}) {
    ShmRow row;
    row.duration_sec = duration_sec;
    row.gated = duration_sec == kGuardrailDuration;

    focus::video::StreamRun run(&catalog, profile, duration_sec, config.fps,
                                config.stream_seed_base + static_cast<uint64_t>(row_index));
    const ClassifiedSample sample = focus::core::ClassifySample(run, cheap, params.k);

    const std::string segment = "/focus_bench_shm_" + std::to_string(getpid()) + "_" +
                                std::to_string(row_index);
    ++row_index;
    EpochPublisher::Options popts;
    popts.provenance = {catalog.world_seed(), 5, 1, catalog.world_seed()};
    auto publisher = EpochPublisher::Create(segment, popts);
    if (!publisher.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", publisher.error().message.c_str());
      return 1;
    }
    (*publisher)->UnlinkOnDestroy(true);

    // Cadenced ingest, every epoch copied into the plane as it publishes.
    double publish_total_ms = 0.0;
    std::shared_ptr<const LiveSnapshot> latest;
    focus::core::SnapshotSlot slot;
    IngestOptions options;
    options.finalize_every_frames = 256;
    options.snapshot_slot = &slot;
    options.snapshot_sink = [&](std::shared_ptr<const LiveSnapshot> snap) {
      const auto t0 = Clock::now();
      auto gen = (*publisher)->Publish(*snap);
      publish_total_ms += MillisSince(t0);
      if (!gen.ok()) {
        std::fprintf(stderr, "FAIL: publish: %s\n", gen.error().message.c_str());
        std::exit(1);
      }
      ++row.epochs;
      latest = std::move(snap);
    };
    const auto ingest_t0 = Clock::now();
    focus::core::RunIngestClassified(sample, params, options);
    const double ingest_ms = MillisSince(ingest_t0);
    if (latest == nullptr || row.epochs == 0) {
      std::fprintf(stderr, "FAIL: no epoch published\n");
      return 1;
    }
    row.clusters = static_cast<int64_t>(latest->index.num_clusters());
    row.publish_mean_ms = publish_total_ms / static_cast<double>(row.epochs);
    row.publish_overhead = ingest_ms > 0.0 ? publish_total_ms / ingest_ms : 0.0;

    // Cold attach: map + header adopt + slot claim, nothing else. Each attach
    // uses a fresh reader (fresh slot claim), median of 5.
    std::vector<double> attach_walls;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = Clock::now();
      auto reader = ShmSnapshotReader::Attach(segment);
      attach_walls.push_back(MillisSince(t0));
      if (!reader.ok()) {
        std::fprintf(stderr, "FAIL: attach: %s\n", reader.error().message.c_str());
        return 1;
      }
    }
    row.attach_millis = Median(attach_walls);

    // The sweep both sides run: the most popular classes x Kx x range. Wide
    // enough that the GT-CNN batches dominate and the wall is stable.
    std::vector<QuerySpec> specs;
    const auto& popular = run.classes_by_popularity();
    for (size_t i = 0; i < popular.size() && i < 8; ++i) {
      specs.push_back({popular[i], -1, {}});
      specs.push_back({popular[i], 1, {}});
      specs.push_back({popular[i], -1, {2.0, duration_sec / 2.0}});
    }
    row.queries = static_cast<int64_t>(specs.size());

    auto reader = ShmSnapshotReader::Attach(segment);
    if (!reader.ok()) {
      std::fprintf(stderr, "FAIL: attach: %s\n", reader.error().message.c_str());
      return 1;
    }
    // Identity pass first (also warms both paths; the reader validates the
    // epoch's image on its first Acquire, so the timed samples measure steady
    // state).
    {
      auto view = (*reader)->Acquire();
      if (!view.ok()) {
        std::fprintf(stderr, "FAIL: acquire: %s\n", view.error().message.c_str());
        return 1;
      }
      const focus::core::QueryEngine engine(latest.get(), &cheap, &gt);
      for (const QuerySpec& spec : specs) {
        if (!SameResult(engine.Query(spec.cls, spec.kx, spec.range, run.fps()),
                        view->Query(spec.cls, spec.kx, spec.range, cheap, gt))) {
          row.identical = false;
        }
      }
      row.identical = row.identical && view->StillValid() && slot.Latest() == latest &&
                      view->generation() == (*publisher)->stats().published_generation;
    }

    // Timing: 7 samples of 20 sweep iterations each, best (min) per side —
    // single sweeps are sub-100us and swing with scheduler noise on shared
    // hosts; min over multi-millisecond samples of deterministic CPU-bound
    // work is the stable statistic.
    constexpr int kSamples = 7;
    constexpr int kItersPerSample = 20;
    std::vector<double> inproc_walls, shm_walls;
    for (int s = 0; s < kSamples; ++s) {
      auto t0 = Clock::now();
      for (int it = 0; it < kItersPerSample; ++it) {
        for (const QuerySpec& spec : specs) {
          const std::shared_ptr<const LiveSnapshot> snapshot = slot.Latest();
          const focus::core::QueryEngine engine(snapshot.get(), &cheap, &gt);
          engine.Query(spec.cls, spec.kx, spec.range, snapshot->fps);
        }
      }
      inproc_walls.push_back(MillisSince(t0) / kItersPerSample);
      t0 = Clock::now();
      for (int it = 0; it < kItersPerSample; ++it) {
        for (const QuerySpec& spec : specs) {
          auto view = (*reader)->Acquire();
          if (!view.ok()) {
            std::fprintf(stderr, "FAIL: acquire: %s\n", view.error().message.c_str());
            return 1;
          }
          view->Query(spec.cls, spec.kx, spec.range, cheap, gt);
        }
      }
      shm_walls.push_back(MillisSince(t0) / kItersPerSample);
    }
    row.inproc_query_ms = *std::min_element(inproc_walls.begin(), inproc_walls.end());
    row.shm_query_ms = *std::min_element(shm_walls.begin(), shm_walls.end());
    row.shm_over_inproc =
        row.inproc_query_ms > 0.0 ? row.shm_query_ms / row.inproc_query_ms : 0.0;
    all_identical = all_identical && row.identical;
    if (row.gated && row.shm_over_inproc > 1.1) {
      guardrail_ok = false;
    }

    std::printf("%7.0f %7lld %9lld %8lld %11.3f %11.3f %9.1f%% %12.3f %10.3f %10s\n",
                row.duration_sec, static_cast<long long>(row.epochs),
                static_cast<long long>(row.clusters), static_cast<long long>(row.queries),
                row.attach_millis, row.publish_mean_ms, 100.0 * row.publish_overhead,
                row.inproc_query_ms, row.shm_query_ms, row.identical ? "yes" : "NO");
    rows.push_back(row);
  }

  FILE* f = std::fopen("BENCH_shm_serving.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"shm_serving\",\n  \"shm_serving\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const ShmRow& r = rows[i];
      std::fprintf(
          f,
          "    {\"duration_sec\": %.0f, \"gated\": %s, \"epochs\": %lld, \"clusters\": %lld, "
          "\"queries\": %lld, \"attach_millis\": %.4f, \"publish_mean_ms\": %.4f, "
          "\"publish_overhead\": %.5f, \"inproc_query_ms\": %.4f, \"shm_query_ms\": %.4f, "
          "\"shm_over_inproc\": %.4f, \"identical\": %s}%s\n",
          r.duration_sec, r.gated ? "true" : "false", static_cast<long long>(r.epochs),
          static_cast<long long>(r.clusters), static_cast<long long>(r.queries),
          r.attach_millis, r.publish_mean_ms, r.publish_overhead, r.inproc_query_ms,
          r.shm_query_ms, r.shm_over_inproc, r.identical ? "true" : "false",
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_shm_serving.json\n");
  }

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: mapped query diverged from the in-process snapshot query\n");
    return 1;
  }
  if (!guardrail_ok) {
    std::fprintf(stderr, "FAIL: shm query wall > 1.1x in-process on the %.0f s row\n",
                 kGuardrailDuration);
    return 1;
  }
  return 0;
}
