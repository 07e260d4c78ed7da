// Surveillance sweep: query several cameras at once, the "following a theft, the
// police would query a few days of video from a handful of surveillance cameras"
// scenario of §1. Builds Focus on all four Table-1 surveillance streams with the
// Opt-Ingest policy (cameras that rarely get queried should minimize wasted ingest
// work, §4.4), then sweeps one class across all of them and aggregates.
#include <cstdio>
#include <memory>
#include <vector>

#include "src/common/logging.h"
#include "src/core/focus_stream.h"
#include "src/storage/index_file.h"
#include "src/video/stream_generator.h"

int main() {
  using namespace focus;
  common::SetLogLevel(common::LogLevel::kWarning);

  video::ClassCatalog catalog(42);
  const std::vector<std::string> cameras = {"church_st", "lausanne", "oxford", "sittard"};

  core::FocusOptions options;
  options.policy = core::Policy::kOptIngest;  // Rarely-queried cameras: cheapest ingest.

  std::vector<std::unique_ptr<video::StreamRun>> runs;
  std::vector<std::unique_ptr<core::FocusStream>> deployments;
  std::printf("Deploying Focus (Opt-Ingest) on %zu surveillance cameras...\n", cameras.size());
  for (size_t i = 0; i < cameras.size(); ++i) {
    video::StreamProfile profile;
    if (!video::FindProfile(cameras[i], &profile)) {
      return 1;
    }
    runs.push_back(
        std::make_unique<video::StreamRun>(&catalog, profile, 20 * 60.0, 30.0, 500 + i));
    auto focus_or = core::FocusStream::Build(runs.back().get(), &catalog, options);
    if (!focus_or.ok()) {
      std::printf("  %s failed: %s\n", cameras[i].c_str(), focus_or.error().message.c_str());
      return 1;
    }
    deployments.push_back(std::move(*focus_or));
    const auto& d = *deployments.back();
    std::printf("  %-10s model=%-14s K=%d  ingest %.2f s GPU for %lld detections\n",
                cameras[i].c_str(), d.chosen_params().model.name.c_str(), d.chosen_params().k,
                d.ingest().gpu_millis / 1000.0,
                static_cast<long long>(d.ingest().detections));
  }

  // The investigator sweeps all cameras for backpacks.
  common::ClassId backpack = catalog.IdForName("backpack");
  std::printf("\nSweeping all cameras for '%s':\n", catalog.Name(backpack).c_str());
  int64_t total_frames = 0;
  double total_gpu = 0.0;
  for (size_t i = 0; i < deployments.size(); ++i) {
    core::QueryResult qr = deployments[i]->Query(backpack);
    std::printf("  %-10s %6lld frames in %4zu runs (%.2f s GPU)\n", cameras[i].c_str(),
                static_cast<long long>(qr.frames_returned), qr.frame_runs.size(),
                qr.gpu_millis / 1000.0);
    total_frames += qr.frames_returned;
    total_gpu += qr.gpu_millis;
  }
  std::printf("Sweep total: %lld candidate frames, %.2f s of GPU time across %zu cameras\n",
              static_cast<long long>(total_frames), total_gpu / 1000.0, cameras.size());

  // Persist one camera's index the way the worker processes do (§5: MongoDB in the
  // paper; an index file here), then read it back.
  const core::FocusStream& first = *deployments[0];
  storage::IndexFileMeta meta;
  meta.stream_name = cameras[0];
  meta.k = first.chosen_params().k;
  meta.cluster_threshold = first.chosen_params().cluster_threshold;
  meta.world_seed = catalog.world_seed();
  meta.fps = runs[0]->fps();
  meta.model = first.chosen_params().model;
  const std::string path = "/tmp/focus_surveillance_index.idx";
  auto saved = storage::WriteIndexFile(path, meta, first.ingest().index);
  auto reloaded = saved.ok() ? storage::ReadIndexFile(path) : saved.error();
  std::printf("\nIndex of %s persisted to %s (%s, %zu clusters, %.1f KiB)\n",
              cameras[0].c_str(), path.c_str(),
              reloaded.ok() ? "reloaded OK" : reloaded.error().message.c_str(),
              first.ingest().index.num_clusters(),
              static_cast<double>(first.ingest().index.image().size()) / 1024.0);
  return reloaded.ok() ? 0 : 1;
}
