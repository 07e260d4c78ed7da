// Crash-resume vs stream replay, and mapped-arena scan parity.
//
// (a) Resume-vs-replay: a volatile deployment that loses an ingest worker must
//     re-cluster the stream from frame 0 to get back to where it crashed; a
//     persistent worker (IngestOptions::persist_dir) pages its mmap'd arenas
//     back in, rolls the undo window back, and re-processes only the frames
//     since the last checkpoint. This bench crashes a persistent ingest at
//     25/50/75% of a stream and measures the wall time of both recovery
//     strategies *to the crash point* — the state-recovery cost — plus the
//     end-to-end completion time, and verifies the resumed run's final index
//     is byte-identical to an uninterrupted persistent run's.
//
// (b) Mapped-vs-heap scan: the staged CentroidStore scan must run at parity on
//     mmap'd sections (the point of the pluggable backing: zero change to the
//     hot path). Same workload as bench_cluster_assign's store path on a
//     one-shard ShardedClusterer, heap backing vs a fresh persistent state
//     directory (OpenOrRecover), identical assignments required.
//
// Emits BENCH_arena_resume.json next to the binary. FOCUS_BENCH_RESUME_SEC
// overrides the simulated stream duration (default 240 s).
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/sharded_clusterer.h"
#include "src/cnn/model_zoo.h"
#include "src/common/feature_vector.h"
#include "src/common/rng.h"
#include "src/core/ingest_pipeline.h"
#include "src/video/stream_generator.h"

namespace {

namespace fs = std::filesystem;

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct ResumeResult {
  double crash_fraction = 0.0;
  int num_shards = 1;
  int64_t crash_frame = 0;
  int64_t resume_frame = 0;       // Checkpoint the resumed run started from.
  // Wall time of the system's own recovery work — classify + cluster (and for
  // resume, state recovery) — with the synthetic frame *generation* sweep
  // subtracted: both strategies pay the same full generator sweep here, but a
  // real deployment reads frames from the camera/vault, so generation is
  // simulator overhead, not system cost.
  double replay_ms = 0.0;         // Re-ingest of [0, crash) from scratch.
  double resume_ms = 0.0;         // Recovery + re-ingest of [checkpoint, crash).
  double speedup = 0.0;           // replay_ms / resume_ms.
  // Re-paid cheap-CNN cost of each strategy (the paper-level cost of losing
  // ingest state: the backlog goes back through the GPU).
  double replay_gpu_millis = 0.0;
  double resume_gpu_millis = 0.0;
  double gpu_ratio = 0.0;
  double complete_resume_ms = 0.0;  // Recovery + ingest of the rest of the stream.
  bool identical = false;         // Resumed final index == uninterrupted index.
};

struct MappedScanResult {
  size_t dim = 0;
  size_t active = 0;
  int64_t assigns = 0;
  double heap_ns_per_assign = 0.0;
  double mapped_ns_per_assign = 0.0;
  double mapped_over_heap = 0.0;  // < 1.10 = parity within 10%.
  bool identical = false;
};

using focus::core::IngestOptions;
using focus::core::IngestResult;
namespace core = focus::core;

core::IngestParams Params() {
  core::IngestParams params;
  params.model = focus::cnn::GenericCheapCandidates(5)[1];
  params.k = 4;
  params.cluster_threshold = 0.6;
  return params;
}

const std::string& IndexBytes(const IngestResult& result) { return result.index.image(); }

ResumeResult RunResumeConfig(const focus::video::StreamRun& run, const focus::cnn::Cnn& cheap,
                             const fs::path& state_root, double crash_fraction, int num_shards,
                             double generator_baseline_ms) {
  ResumeResult out;
  out.crash_fraction = crash_fraction;
  out.num_shards = num_shards;
  // Offset the crash off the checkpoint grid so the resumed run re-processes a
  // representative half-window, not a lucky near-zero one.
  out.crash_frame =
      static_cast<int64_t>(static_cast<double>(run.num_frames()) * crash_fraction) + 32;

  IngestOptions base;
  base.num_shards = num_shards;
  // A tight checkpoint cadence (~2 s of video) keeps the re-processed window
  // small — the cadence cost during normal operation is what
  // complete_resume_ms pays, and it stays within noise of the volatile run.
  base.checkpoint_every_frames = 64;
  // Exact-mode assignment: the scan-bound regime where ingest state is
  // expensive to rebuild (the fast path would hide most of the re-clustering
  // cost behind its per-object cache).
  base.cluster_mode = focus::cluster::ClustererOptions::Mode::kExact;

  // Reference: uninterrupted persistent run (also the identical-index oracle).
  const fs::path uninterrupted_dir = state_root / "uninterrupted";
  fs::remove_all(uninterrupted_dir);
  IngestOptions opts = base;
  opts.persist_dir = uninterrupted_dir.string();
  const IngestResult uninterrupted = core::RunIngest(run, cheap, Params(), opts);

  // Crash a persistent run at the crash point.
  const fs::path crashed_dir = state_root / "crashed";
  fs::remove_all(crashed_dir);
  opts = base;
  opts.persist_dir = crashed_dir.string();
  opts.crash_after_frames = out.crash_frame;
  core::RunIngest(run, cheap, Params(), opts);

  // Both strategies are idempotent (replay is stateless; a crashed resume
  // re-recovers the same checkpoint), so the two are measured in interleaved
  // repetitions and each side reports its fastest rep. Timing noise on this
  // class of VM is strictly additive (scheduler preemption, virtio writeback
  // stalls), so best-of-N is the standard estimator of the true cost and the
  // headline speedup is min(replay) / min(resume).
  constexpr int kReps = 5;

  IngestOptions replay = base;
  replay.limit_sec = static_cast<double>(out.crash_frame) / run.fps();

  // A zero-frame probe run discovers the recovered position and the
  // at-checkpoint counters (recovery is idempotent — it re-seals the same
  // checkpoint).
  opts = base;
  opts.persist_dir = crashed_dir.string();
  opts.crash_after_frames = 0;
  const IngestResult probe = core::RunIngest(run, cheap, Params(), opts);
  out.resume_frame = probe.resumed_from_frame;
  opts.crash_after_frames = out.crash_frame - out.resume_frame;

  // The setup runs above msync'd ~a hundred checkpoints; drain that writeback
  // debt before timing (it otherwise lands on whichever reps the kernel
  // picks), then warm both paths once untimed.
  ::sync();
  core::RunIngest(run, cheap, Params(), replay);
  core::RunIngest(run, cheap, Params(), opts);

  (void)generator_baseline_ms;  // Reported in the banner; reps re-measure it.
  for (int rep = 0; rep < kReps; ++rep) {
    // Each rep re-measures the no-op generator sweep and subtracts *that*:
    // the sweep's cost drifts with process heap state, so a startup-time
    // baseline under-subtracts later in the run and the leftover constant
    // compresses the ratio. Net times are floored at 0.5 ms — the measured
    // cost of a clean OpenOrRecover alone, and the resolution limit of the
    // subtraction; recovery cannot be cheaper than its own state read.
    constexpr double kFloorMs = 0.5;
    auto t0 = Clock::now();
    run.ForEachFrame(
        [](focus::common::FrameIndex, const std::vector<focus::video::Detection>&) {});
    const double sweep_ms = MillisSince(t0);
    // Replay: a volatile deployment re-classifies and re-clusters [0, crash)
    // from scratch.
    t0 = Clock::now();
    const IngestResult replay_result = core::RunIngest(run, cheap, Params(), replay);
    const double replay_ms = std::max(kFloorMs, MillisSince(t0) - sweep_ms);
    out.replay_gpu_millis = replay_result.gpu_millis;
    // Resume: recovery + the re-processed checkpoint window.
    t0 = Clock::now();
    const IngestResult to_crash = core::RunIngest(run, cheap, Params(), opts);
    const double resume_ms = std::max(kFloorMs, MillisSince(t0) - sweep_ms);
    // Counters are cumulative (checkpoint + window): the window's GPU bill is
    // what resume actually re-pays.
    out.resume_gpu_millis = to_crash.gpu_millis - probe.gpu_millis;

    out.replay_ms = rep == 0 ? replay_ms : std::min(out.replay_ms, replay_ms);
    out.resume_ms = rep == 0 ? resume_ms : std::min(out.resume_ms, resume_ms);
  }
  out.speedup = out.resume_ms > 0.0 ? out.replay_ms / out.resume_ms : 0.0;
  out.gpu_ratio =
      out.resume_gpu_millis > 0.0 ? out.replay_gpu_millis / out.resume_gpu_millis : 0.0;

  // And run the resumed stream to completion: the final index must be
  // byte-identical to the uninterrupted run's.
  opts.crash_after_frames = -1;
  const auto t0 = Clock::now();
  const IngestResult resumed = core::RunIngest(run, cheap, Params(), opts);
  out.complete_resume_ms = MillisSince(t0);
  out.identical = IndexBytes(resumed) == IndexBytes(uninterrupted) &&
                  resumed.gpu_millis == uninterrupted.gpu_millis &&
                  resumed.detections == uninterrupted.detections;

  fs::remove_all(uninterrupted_dir);
  fs::remove_all(crashed_dir);
  return out;
}

MappedScanResult RunMappedScanConfig(const fs::path& state_root, size_t dim, size_t active,
                                     int64_t assigns) {
  using focus::cluster::ClustererOptions;
  using focus::cluster::ShardedClusterer;
  using focus::cluster::ShardedClustererOptions;
  using focus::common::FeatureVec;

  MappedScanResult out;
  out.dim = dim;
  out.active = active;
  out.assigns = assigns;

  // bench_cluster_assign's steady-state geometry: noisy observations of
  // well-separated unit archetypes, full scan per assignment (kExact).
  focus::common::Pcg32 rng(focus::common::DeriveSeed(7, dim * 131 + active));
  std::vector<FeatureVec> archetypes;
  archetypes.reserve(active);
  for (size_t i = 0; i < active; ++i) {
    archetypes.push_back(focus::common::RandomUnitVector(dim, rng));
  }
  std::vector<FeatureVec> stream;
  stream.reserve(active + static_cast<size_t>(assigns));
  for (size_t i = 0; i < active; ++i) {
    stream.push_back(focus::common::PerturbedUnitVector(archetypes[i], 0.2, rng));
  }
  for (int64_t i = 0; i < assigns; ++i) {
    stream.push_back(
        focus::common::PerturbedUnitVector(archetypes[rng.Next() % active], 0.2, rng));
  }

  // Both sides run one shard, the persistent form of a lone clusterer, so
  // the ratio isolates the backing.
  ShardedClustererOptions copts;
  copts.base.threshold = 0.5;
  copts.base.max_active = active;
  copts.base.mode = ClustererOptions::Mode::kExact;
  copts.num_shards = 1;

  auto drive = [&](ShardedClusterer& clusterer, std::vector<int64_t>* assignments) {
    focus::video::Detection d;
    assignments->resize(stream.size());
    for (size_t i = 0; i < active; ++i) {
      d.object_id = static_cast<int64_t>(i);
      d.frame = static_cast<int64_t>(i);
      (*assignments)[i] = clusterer.Add(d, stream[i]);
    }
    const auto t0 = Clock::now();
    for (size_t i = active; i < stream.size(); ++i) {
      d.object_id = static_cast<int64_t>(i);
      d.frame = static_cast<int64_t>(i);
      (*assignments)[i] = clusterer.Add(d, stream[i]);
    }
    return MillisSince(t0) * 1e6 / static_cast<double>(assigns);
  };

  // Fresh instances per repetition (the clusterer is stateful), best-of-3:
  // single-pass numbers at these scales carry VM scheduler + first-touch
  // page-fault noise on both backings.
  constexpr int kReps = 3;
  std::vector<int64_t> heap_assignments;
  std::vector<int64_t> mapped_assignments;
  for (int rep = 0; rep < kReps; ++rep) {
    ShardedClusterer heap(copts);
    const double ns = drive(heap, &heap_assignments);
    out.heap_ns_per_assign = rep == 0 ? ns : std::min(out.heap_ns_per_assign, ns);
  }
  for (int rep = 0; rep < kReps; ++rep) {
    const fs::path dir = state_root / ("mapped-" + std::to_string(dim));
    fs::remove_all(dir);
    ShardedClusterer mapped(copts);
    auto attached = mapped.OpenOrRecover(dir.string());
    if (!attached.ok()) {
      std::fprintf(stderr, "mapped attach failed: %s\n", attached.error().message.c_str());
      return out;
    }
    const double ns = drive(mapped, &mapped_assignments);
    out.mapped_ns_per_assign = rep == 0 ? ns : std::min(out.mapped_ns_per_assign, ns);
    fs::remove_all(dir);
  }
  out.mapped_over_heap =
      out.heap_ns_per_assign > 0.0 ? out.mapped_ns_per_assign / out.heap_ns_per_assign : 0.0;
  out.identical = heap_assignments == mapped_assignments;
  return out;
}

}  // namespace

int main() {
  double duration_sec = 240.0;
  if (const char* env = std::getenv("FOCUS_BENCH_RESUME_SEC")) {
    duration_sec = std::atof(env);
  }

  const fs::path state_root = fs::current_path() / "bench_arena_resume_state";
  fs::remove_all(state_root);
  fs::create_directories(state_root);

  focus::video::ClassCatalog catalog(17);
  focus::video::StreamProfile profile;
  if (!focus::video::FindProfile("auburn_c", &profile)) {
    std::fprintf(stderr, "FAIL: profile auburn_c missing\n");
    return 1;
  }
  focus::video::StreamRun run(&catalog, profile, duration_sec, 30.0, 11);
  focus::cnn::Cnn cheap(Params().model, &catalog);

  // The synthetic generator sweeps every frame regardless of what the
  // callback consumes; measure that fixed simulator overhead (best of 3) and
  // subtract it from both strategies — a real worker reads frames, it does
  // not re-synthesize the world.
  double generator_baseline_ms = 0.0;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    run.ForEachFrame([](focus::common::FrameIndex, const std::vector<focus::video::Detection>&) {});
    const double ms = MillisSince(t0);
    generator_baseline_ms = i == 0 ? ms : std::min(generator_baseline_ms, ms);
  }

  std::printf(
      "crash-resume vs stream replay (%.0f s stream, checkpoint every 64 frames, "
      "generator sweep %.1f ms subtracted, speedup = best of %d interleaved reps)\n",
      duration_sec, generator_baseline_ms, 5);
  std::printf("%6s %7s %12s %13s %11s %11s %8s %11s %8s %13s %10s\n", "crash", "shards",
              "crash_frame", "resume_frame", "replay ms", "resume ms", "speedup", "gpu ms",
              "gpu-x", "complete ms", "identical");

  std::vector<ResumeResult> resume_results;
  bool ok = true;
  // Warmup pass: the first config otherwise pays one-time costs (binary
  // paging, allocator growth, stream-object materialization) that would skew
  // whichever crash fraction happens to run first.
  RunResumeConfig(run, cheap, state_root, 0.5, 1, generator_baseline_ms);
  for (const auto& [fraction, shards] :
       std::vector<std::pair<double, int>>{{0.25, 1}, {0.5, 1}, {0.75, 1}, {0.5, 4}}) {
    ResumeResult r =
        RunResumeConfig(run, cheap, state_root, fraction, shards, generator_baseline_ms);
    ok = ok && r.identical;
    std::printf("%5.0f%% %7d %12lld %13lld %11.1f %11.1f %7.1fx %11.0f %7.1fx %13.1f %10s\n",
                100.0 * r.crash_fraction, r.num_shards,
                static_cast<long long>(r.crash_frame), static_cast<long long>(r.resume_frame),
                r.replay_ms, r.resume_ms, r.speedup, r.replay_gpu_millis, r.gpu_ratio,
                r.complete_resume_ms, r.identical ? "yes" : "NO");
    resume_results.push_back(r);
  }

  std::printf("\nmapped-arena vs heap FindNearest (exact full scan)\n");
  std::printf("%6s %7s %9s %13s %14s %12s %10s\n", "dim", "active", "assigns", "heap ns/add",
              "mapped ns/add", "mapped/heap", "identical");
  std::vector<MappedScanResult> scan_results;
  for (const auto& [dim, active] :
       std::vector<std::pair<size_t, size_t>>{{128, 4096}, {512, 4096}, {1024, 4096}}) {
    MappedScanResult r = RunMappedScanConfig(state_root, dim, active, 2000);
    ok = ok && r.identical;
    std::printf("%6zu %7zu %9lld %13.0f %14.0f %11.3fx %10s\n", r.dim, r.active,
                static_cast<long long>(r.assigns), r.heap_ns_per_assign,
                r.mapped_ns_per_assign, r.mapped_over_heap, r.identical ? "yes" : "NO");
    scan_results.push_back(r);
  }
  fs::remove_all(state_root);

  FILE* f = std::fopen("BENCH_arena_resume.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"arena_resume\",\n  \"resume\": [\n");
    for (size_t i = 0; i < resume_results.size(); ++i) {
      const ResumeResult& r = resume_results[i];
      std::fprintf(f,
                   "    {\"crash_fraction\": %.2f, \"num_shards\": %d, \"crash_frame\": %lld, "
                   "\"resume_frame\": %lld, \"replay_ms\": %.2f, \"resume_ms\": %.2f, "
                   "\"speedup\": %.3f, \"replay_gpu_millis\": %.1f, "
                   "\"resume_gpu_millis\": %.1f, \"gpu_ratio\": %.3f, "
                   "\"complete_resume_ms\": %.2f, \"identical\": %s}%s\n",
                   r.crash_fraction, r.num_shards, static_cast<long long>(r.crash_frame),
                   static_cast<long long>(r.resume_frame), r.replay_ms, r.resume_ms, r.speedup,
                   r.replay_gpu_millis, r.resume_gpu_millis, r.gpu_ratio,
                   r.complete_resume_ms, r.identical ? "true" : "false",
                   i + 1 < resume_results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"mapped_scan\": [\n");
    for (size_t i = 0; i < scan_results.size(); ++i) {
      const MappedScanResult& r = scan_results[i];
      std::fprintf(f,
                   "    {\"dim\": %zu, \"active\": %zu, \"assigns\": %lld, "
                   "\"heap_ns_per_assign\": %.1f, \"mapped_ns_per_assign\": %.1f, "
                   "\"mapped_over_heap\": %.4f, \"identical\": %s}%s\n",
                   r.dim, r.active, static_cast<long long>(r.assigns), r.heap_ns_per_assign,
                   r.mapped_ns_per_assign, r.mapped_over_heap, r.identical ? "true" : "false",
                   i + 1 < scan_results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_arena_resume.json\n");
  }

  if (!ok) {
    std::fprintf(stderr, "FAIL: resumed state diverged from the uninterrupted reference\n");
    return 1;
  }
  return 0;
}
