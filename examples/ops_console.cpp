// Operations console: the deployment-side machinery around the core pipeline.
//
// Shows the production story end to end: a worker fleet ingests several streams in
// parallel (§5 "Worker Processes"), the virtual GPU cluster answers the provisioning
// question (how many GPUs keep ingest real-time, what each stream costs per month),
// the top-K index is snapshotted to disk and reloaded (the MongoDB role, §5), a
// record log survives a simulated crash, the video vault enforces a retention
// budget, and the query service reports wall-clock latency on a 10-GPU fleet.
#include <cstdio>
#include <filesystem>

#include "src/common/logging.h"
#include "src/core/focus_stream.h"
#include "src/runtime/fleet_query_service.h"
#include "src/runtime/ingest_service.h"
#include "src/runtime/metrics.h"
#include "src/storage/index_file.h"
#include "src/storage/record_log.h"
#include "src/storage/snapshot_store.h"
#include "src/storage/video_vault.h"
#include "src/video/stream_generator.h"

int main() {
  using namespace focus;
  common::SetLogLevel(common::LogLevel::kWarning);

  video::ClassCatalog catalog(42);
  const std::filesystem::path workdir = std::filesystem::temp_directory_path() / "focus_ops";
  std::filesystem::create_directories(workdir);

  // --- 1. Tune one stream, then ingest three streams through the worker fleet. ---
  std::printf("== Ingest fleet ==\n");
  video::StreamProfile profile;
  if (!video::FindProfile("auburn_c", &profile)) {
    return 1;
  }
  video::StreamRun run(&catalog, profile, /*duration_sec=*/480.0, /*fps=*/30.0, /*seed=*/11);
  core::FocusOptions options;
  auto focus_or = core::FocusStream::Build(&run, &catalog, options);
  if (!focus_or.ok()) {
    std::printf("build failed: %s\n", focus_or.error().message.c_str());
    return 1;
  }
  core::FocusStream& focus = **focus_or;
  const core::IngestParams params = focus.chosen_params();

  video::StreamProfile p2;
  video::FindProfile("city_a_r", &p2);
  video::StreamProfile p3;
  video::FindProfile("lausanne", &p3);
  video::StreamRun run2(&catalog, p2, 480.0, 30.0, 12);
  video::StreamRun run3(&catalog, p3, 480.0, 30.0, 13);

  runtime::MetricsRegistry metrics;
  runtime::IngestServiceOptions service_options;
  service_options.num_worker_threads = 3;
  service_options.num_gpus = 1;
  runtime::IngestService service(service_options, &metrics);
  service.AddStream({.name = "auburn_c", .run = &run, .params = params});
  service.AddStream({.name = "city_a_r", .run = &run2, .params = params});
  service.AddStream({.name = "lausanne", .run = &run3, .params = params});
  runtime::FleetIngestSummary summary = service.RunAll();
  for (const runtime::IngestReport& report : summary.reports) {
    std::printf("  %-10s detections=%-7lld gpu_occupancy=%.4f  cost=$%.2f/month\n",
                report.name.c_str(), static_cast<long long>(report.result.detections),
                report.gpu_occupancy, service.CostPerStreamMonthly(report.gpu_occupancy));
  }
  std::printf("  fleet: %d GPU(s) keep all %zu streams real-time (total occupancy %.3f)\n",
              summary.min_gpus_for_realtime, summary.reports.size(),
              summary.total_gpu_occupancy);

  // --- 2. Snapshot the index to disk and reload it (restart survival). ---
  std::printf("\n== Index snapshot ==\n");
  storage::IndexFileMeta meta;
  meta.stream_name = "auburn_c";
  meta.k = params.k;
  meta.cluster_threshold = params.cluster_threshold;
  meta.world_seed = 42;
  meta.fps = run.fps();
  meta.model = params.model;
  const std::string snap_path = (workdir / "auburn_c.idx").string();
  if (!storage::WriteIndexFile(snap_path, meta, focus.ingest().index).ok()) {
    return 1;
  }
  auto loaded = storage::ReadIndexFile(snap_path);
  if (!loaded.ok()) {
    std::printf("  snapshot reload failed: %s\n", loaded.error().message.c_str());
    return 1;
  }
  std::printf("  %s: %zu clusters, %.1f KiB image, reloaded OK (model=%s, K=%d)\n",
              snap_path.c_str(), loaded->index.num_clusters(),
              static_cast<double>(loaded->index.image().size()) / 1024.0,
              loaded->meta.model.name.c_str(), loaded->meta.k);

  // --- 3. Record log: append per-segment progress, survive a torn tail. ---
  std::printf("\n== Record log ==\n");
  const std::string log_path = (workdir / "ingest.log").string();
  std::filesystem::remove(log_path);
  {
    auto writer = storage::RecordLogWriter::Open(log_path);
    for (int segment = 0; segment < 8; ++segment) {
      writer->Append("segment " + std::to_string(segment) + " indexed");
    }
  }
  // Simulate a crash mid-append by chopping the file.
  auto raw = storage::ReadFile(log_path);
  storage::WriteFileAtomic(log_path, raw->substr(0, raw->size() - 5));
  auto recovered = storage::ReadRecordLog(log_path);
  std::printf("  replayed %zu/8 records after simulated crash (torn tail dropped: %s)\n",
              recovered->records.size(), recovered->truncated_tail ? "yes" : "no");

  // --- 4. Vault: retention under a byte budget. ---
  std::printf("\n== Video vault ==\n");
  storage::VideoVault vault;
  for (int hour = 0; hour < 24; ++hour) {
    storage::RecordingChunk chunk;
    chunk.begin_sec = hour * 3600.0;
    chunk.end_sec = (hour + 1) * 3600.0;
    chunk.size_bytes = 600LL * 1024 * 1024;  // ~600 MiB per recorded hour.
    chunk.uri = "vault://auburn_c/h" + std::to_string(hour);
    vault.AppendChunk("auburn_c", chunk);
  }
  vault.SetIndexSnapshot("auburn_c", snap_path);
  const int64_t budget = 8LL * 1024 * 1024 * 1024;  // Keep 8 GiB.
  int64_t dropped = vault.TrimToBudget(budget);
  std::printf("  24h recorded, budget 8 GiB -> dropped %lld oldest chunks, %0.1f h retained\n",
              static_cast<long long>(dropped),
              vault.Find("auburn_c")->RetainedSeconds() / 3600.0);

  // --- 5. Query service: wall-clock latency on a 10-GPU fleet. ---
  std::printf("\n== Query service (10 GPUs) ==\n");
  cnn::SegmentGroundTruth truth(run, focus.gt_cnn());
  auto dominant = truth.DominantClasses(0.95, 3);
  runtime::FleetQueryService queries(runtime::QueryServiceOptions{.num_gpus = 10}, &metrics);
  for (common::ClassId cls : dominant) {
    runtime::QueryExecution e =
        queries.Execute({.camera = "auburn_c", .query = {.stream = &focus, .cls = cls}});
    std::printf("  '%s': %lld frames in %.0f ms wall (%lld centroids verified)\n",
                catalog.Name(cls).c_str(), static_cast<long long>(e.result.frames_returned),
                e.latency_millis(), static_cast<long long>(e.result.centroids_classified));
  }

  std::printf("\n== Metrics ==\n%s", metrics.Render().c_str());
  return 0;
}
