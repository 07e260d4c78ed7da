// Single-stream sharded ingest throughput: sequential IncrementalClusterer vs
// ShardedClusterer over a WorkerPool at 1/2/4 shards.
//
// The clusterer is the per-stream serial bottleneck of ingest (ROADMAP item 1:
// one hot camera caps out at one core). Sharding detections by object id onto
// per-shard clusterer+CentroidStore instances attacks it twice:
//   - each shard's full scan covers only its own active set (~active/S
//     centroids), so total scan work drops with the shard count even on a
//     single core;
//   - shards run concurrently on the worker pool, so on multi-core hosts the
//     remaining work also parallelizes.
// This bench tracks detections/sec of both paths in the scan-bound regime
// (kExact full scan per assignment — the worst-case load that motivates
// sharding) and in the production kFast regime, verifies that 1-shard sharded
// assignment ids are identical to the sequential clusterer's, and that merged
// cluster sizes conserve the detection count at 4 shards.
//
// Workload: |active| tracked objects, each a noisy observation of its own
// near-orthogonal unit archetype (the steady-state ingest geometry; one
// cluster per object). Emits BENCH_sharded_ingest.json next to the binary.
// FOCUS_BENCH_SHARD_ASSIGNS overrides measured detections per configuration.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/cluster/incremental_clusterer.h"
#include "src/cluster/sharded_clusterer.h"
#include "src/common/rng.h"
#include "src/runtime/worker_pool.h"

namespace {

using focus::cluster::ClustererOptions;
using focus::cluster::IncrementalClusterer;
using focus::cluster::ShardedClusterer;
using focus::cluster::ShardedClustererOptions;
using focus::common::FeatureVec;

struct Workload {
  std::vector<focus::video::Detection> detections;
  std::vector<FeatureVec> features;
};

Workload MakeWorkload(size_t dim, size_t active, int64_t assigns) {
  constexpr double kNoise = 0.2;
  focus::common::Pcg32 rng(focus::common::DeriveSeed(97, dim * 100003 + active));
  std::vector<FeatureVec> archetypes;
  archetypes.reserve(active);
  for (size_t i = 0; i < active; ++i) {
    archetypes.push_back(focus::common::RandomUnitVector(dim, rng));
  }
  Workload w;
  const size_t total = active + static_cast<size_t>(assigns);
  w.detections.reserve(total);
  w.features.reserve(total);
  // Warmup: one detection per object populates every shard's active set, then
  // the measured stream observes random objects.
  for (size_t i = 0; i < total; ++i) {
    const size_t object = i < active ? i : rng.Next() % active;
    focus::video::Detection d;
    d.object_id = static_cast<int64_t>(object);
    d.frame = static_cast<int64_t>(i);
    w.detections.push_back(d);
    w.features.push_back(focus::common::PerturbedUnitVector(archetypes[object], kNoise, rng));
  }
  return w;
}

struct ShardResult {
  size_t num_shards = 0;
  double ns_per_assign = 0.0;
  double detections_per_sec = 0.0;
  double speedup = 0.0;       // vs the sequential IncrementalClusterer.
  int64_t canonical_clusters = 0;
  bool sizes_conserved = false;
  bool identical = true;      // Only checked at num_shards == 1.
};

struct ConfigResult {
  std::string mode;
  size_t dim = 0;
  size_t active = 0;
  int64_t assigns = 0;
  double seq_ns_per_assign = 0.0;
  std::vector<ShardResult> shards;
};

ConfigResult RunConfig(ClustererOptions::Mode mode, const char* mode_name, size_t dim,
                       size_t active, int64_t assigns) {
  constexpr double kThreshold = 0.5;
  const Workload w = MakeWorkload(dim, active, assigns);
  const size_t warmup = active;
  const size_t total = w.detections.size();

  ConfigResult out;
  out.mode = mode_name;
  out.dim = dim;
  out.active = active;
  out.assigns = assigns;

  std::vector<int64_t> seq_ids(total);
  {
    ClustererOptions opts;
    opts.threshold = kThreshold;
    opts.max_active = active;
    opts.mode = mode;
    IncrementalClusterer clusterer(opts);
    for (size_t i = 0; i < warmup; ++i) {
      seq_ids[i] = clusterer.Add(w.detections[i], w.features[i]);
    }
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = warmup; i < total; ++i) {
      seq_ids[i] = clusterer.Add(w.detections[i], w.features[i]);
    }
    auto t1 = std::chrono::steady_clock::now();
    out.seq_ns_per_assign =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / static_cast<double>(assigns);
  }

  std::vector<ShardedClusterer::WorkItem> items(total);
  for (size_t i = 0; i < total; ++i) {
    items[i] = {&w.detections[i], &w.features[i], false};
  }

  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{4}}) {
    ShardedClustererOptions sopts;
    sopts.base.threshold = kThreshold;
    sopts.base.max_active = active;
    sopts.base.mode = mode;
    sopts.num_shards = num_shards;
    ShardedClusterer sharded(sopts);
    focus::runtime::WorkerPool pool(static_cast<int>(num_shards), num_shards * 2,
                                    /*pop_batch=*/1);
    std::vector<int64_t> ids(total);

    constexpr size_t kBatch = 1024;
    for (size_t offset = 0; offset < warmup; offset += kBatch) {
      const size_t count = std::min(kBatch, warmup - offset);
      sharded.AssignBatch(items.data() + offset, count, &pool, ids.data() + offset);
    }
    auto t0 = std::chrono::steady_clock::now();
    for (size_t offset = warmup; offset < total; offset += kBatch) {
      const size_t count = std::min(kBatch, total - offset);
      sharded.AssignBatch(items.data() + offset, count, &pool, ids.data() + offset);
    }
    auto t1 = std::chrono::steady_clock::now();
    pool.Shutdown();

    ShardResult r;
    r.num_shards = num_shards;
    r.ns_per_assign =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / static_cast<double>(assigns);
    r.detections_per_sec = r.ns_per_assign > 0.0 ? 1e9 / r.ns_per_assign : 0.0;
    r.speedup = r.ns_per_assign > 0.0 ? out.seq_ns_per_assign / r.ns_per_assign : 0.0;
    if (num_shards == 1) {
      r.identical = ids == seq_ids;
    }
    const std::vector<focus::cluster::Cluster> canonical = sharded.FinalizeClusters();
    r.canonical_clusters = static_cast<int64_t>(canonical.size());
    int64_t folded_size = 0;
    for (const focus::cluster::Cluster& c : canonical) {
      folded_size += c.size;
    }
    r.sizes_conserved = folded_size == static_cast<int64_t>(total);
    out.shards.push_back(r);
  }
  return out;
}

}  // namespace

int main() {
  int64_t assigns = 20000;
  if (const char* env = std::getenv("FOCUS_BENCH_SHARD_ASSIGNS")) {
    assigns = std::atoll(env);
  }

  std::printf("single-stream ingest: sequential clusterer vs sharded clusterer + worker pool\n");
  std::printf("%6s %5s %7s %7s %14s %14s %12s %8s %6s %5s\n", "mode", "dim", "active", "shards",
              "seq ns/det", "shard ns/det", "dets/sec", "speedup", "consrv", "ident");

  std::vector<ConfigResult> results;
  // kExact at high dim/active is the scan-bound regime sharding targets; kFast
  // tracks that the production fast path at least breaks even under sharding.
  results.push_back(
      RunConfig(ClustererOptions::Mode::kExact, "exact", 512, 4096, assigns));
  results.push_back(
      RunConfig(ClustererOptions::Mode::kFast, "fast", 512, 4096, assigns));

  bool ok = true;
  double exact_speedup_at_4 = 0.0;
  for (const ConfigResult& cfg : results) {
    for (const ShardResult& r : cfg.shards) {
      std::printf("%6s %5zu %7zu %7zu %14.0f %14.0f %12.0f %7.2fx %6s %5s\n", cfg.mode.c_str(),
                  cfg.dim, cfg.active, r.num_shards, cfg.seq_ns_per_assign, r.ns_per_assign,
                  r.detections_per_sec, r.speedup, r.sizes_conserved ? "yes" : "NO",
                  r.identical ? "yes" : "NO");
      ok = ok && r.sizes_conserved && r.identical;
      if (cfg.mode == "exact" && r.num_shards == 4) {
        exact_speedup_at_4 = r.speedup;
      }
    }
  }

  FILE* f = std::fopen("BENCH_sharded_ingest.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"sharded_ingest\",\n  \"configs\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const ConfigResult& cfg = results[i];
      std::fprintf(f,
                   "    {\"mode\": \"%s\", \"dim\": %zu, \"active\": %zu, \"assigns\": %lld, "
                   "\"seq_ns_per_assign\": %.1f, \"shards\": [\n",
                   cfg.mode.c_str(), cfg.dim, cfg.active, static_cast<long long>(cfg.assigns),
                   cfg.seq_ns_per_assign);
      for (size_t s = 0; s < cfg.shards.size(); ++s) {
        const ShardResult& r = cfg.shards[s];
        std::fprintf(f,
                     "      {\"num_shards\": %zu, \"ns_per_assign\": %.1f, "
                     "\"detections_per_sec\": %.0f, \"speedup\": %.3f, "
                     "\"canonical_clusters\": %lld, \"sizes_conserved\": %s, "
                     "\"identical\": %s}%s\n",
                     r.num_shards, r.ns_per_assign, r.detections_per_sec, r.speedup,
                     static_cast<long long>(r.canonical_clusters),
                     r.sizes_conserved ? "true" : "false", r.identical ? "true" : "false",
                     s + 1 < cfg.shards.size() ? "," : "");
      }
      std::fprintf(f, "    ]}%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_sharded_ingest.json\n");
  }

  if (!ok) {
    std::fprintf(stderr, "FAIL: sharded results diverged from the sequential clusterer\n");
    return 1;
  }
  if (exact_speedup_at_4 < 2.0) {
    std::fprintf(stderr, "WARN: exact-mode speedup at 4 shards is %.2fx (target >= 2x)\n",
                 exact_speedup_at_4);
  }
  return 0;
}
