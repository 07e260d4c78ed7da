// focus_shm_query: cold-process serving off the shared-memory epoch plane
// (src/shm/epoch_plane.h, docs/shm_serving.md).
//
// The demonstration the plane exists for: one process ingests a stream and
// publishes every live epoch into a named shm segment; any other process —
// started later, configured with nothing but the segment name — attaches,
// rebuilds the catalog and CNNs from the header's seed provenance, and
// answers queries straight off the mapping. The query path is O(map +
// validate): the image is checked once per epoch and then read in place — no
// snapshot file, no deserialization, no copies except the candidate centroids
// handed to the GT-CNN. `query` prints the attach/plan/classify timing split
// to make that visible.
//
//   focus_shm_query publish --segment /focus_demo --stream auburn_c
//                   [--minutes M] [--seed N] [--fps F] [--every FRAMES]
//                   [--cheap IDX] [--k K] [--threshold T]
//       Ingest the simulated stream, publishing each finalize epoch into the
//       plane. The segment outlives the process; readers attach any time.
//   focus_shm_query query --segment /focus_demo --class car
//                   [--kx N] [--begin SEC] [--end SEC]
//       Cold attach + answer from the newest published epoch.
//   focus_shm_query status --segment /focus_demo
//       Plane stats: generation, pins, reclaims, arena usage.
//   focus_shm_query unlink --segment /focus_demo
//       Remove the segment name (existing mappings survive).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cnn/ground_truth.h"
#include "src/cnn/model_zoo.h"
#include "src/common/logging.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/query_engine.h"
#include "src/shm/epoch_plane.h"
#include "src/shm/shm_segment.h"
#include "src/video/stream_generator.h"

namespace {

using namespace focus;

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// Minimal --flag value parser (same shape as focusctl's).
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        ok_ = false;
        return;
      }
      values_[key.substr(2)] = argv[++i];
    }
  }

  bool ok() const { return ok_; }

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    std::string v = Get(key);
    return v.empty() ? fallback : std::atof(v.c_str());
  }
  uint64_t GetU64(const std::string& key, uint64_t fallback) const {
    std::string v = Get(key);
    return v.empty() ? fallback : std::strtoull(v.c_str(), nullptr, 10);
  }
  int GetInt(const std::string& key, int fallback) const {
    std::string v = Get(key);
    return v.empty() ? fallback : std::atoi(v.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  focus_shm_query publish --segment /NAME --stream NAME [--minutes M]\n"
      "                  [--seed N] [--fps F] [--every FRAMES] [--cheap IDX]\n"
      "                  [--k K] [--threshold T]\n"
      "  focus_shm_query query   --segment /NAME --class NAME [--kx N]\n"
      "                  [--begin SEC] [--end SEC]\n"
      "  focus_shm_query status  --segment /NAME\n"
      "  focus_shm_query unlink  --segment /NAME\n");
  return 2;
}

void PrintStats(const shm::ShmPlaneStats& stats) {
  std::printf("  generation:      %llu (%llu epochs published)\n",
              static_cast<unsigned long long>(stats.published_generation),
              static_cast<unsigned long long>(stats.epochs_published));
  std::printf("  readers:         %llu live (%llu attaches ever)\n",
              static_cast<unsigned long long>(stats.live_readers),
              static_cast<unsigned long long>(stats.reader_attaches));
  std::printf("  stale pins:      %llu reclaimed, %llu forced evictions\n",
              static_cast<unsigned long long>(stats.stale_pins_reclaimed),
              static_cast<unsigned long long>(stats.pin_violations));
  std::printf("  arena:           %.1f KiB used of %.1f MiB\n",
              static_cast<double>(stats.arena_used_bytes) / 1024.0,
              static_cast<double>(stats.segment_bytes) / (1024.0 * 1024.0));
}

int CmdPublish(const Args& args) {
  const std::string segment = args.Get("segment");
  const std::string stream = args.Get("stream");
  if (segment.empty() || stream.empty()) {
    return Usage();
  }
  const double minutes = args.GetDouble("minutes", 2.0);
  const uint64_t seed = args.GetU64("seed", 23);
  const double fps = args.GetDouble("fps", 30.0);
  const int64_t every = args.GetInt("every", 300);
  const int cheap_index = args.GetInt("cheap", 1);
  video::StreamProfile profile;
  if (!video::FindProfile(stream, &profile)) {
    std::fprintf(stderr, "unknown stream '%s'\n", stream.c_str());
    return 1;
  }
  const auto candidates = cnn::GenericCheapCandidates(seed);
  if (cheap_index < 0 || cheap_index >= static_cast<int>(candidates.size())) {
    std::fprintf(stderr, "--cheap must be in [0, %zu)\n", candidates.size());
    return 1;
  }

  core::IngestParams params;
  params.model = candidates[cheap_index];
  params.k = args.GetInt("k", 3);
  params.cluster_threshold = args.GetDouble("threshold", 0.6);

  shm::EpochPublisher::Options options;
  options.provenance.world_seed = seed;
  options.provenance.cheap_weights_seed = seed;
  options.provenance.cheap_candidate_index = static_cast<uint32_t>(cheap_index);
  options.provenance.gt_weights_seed = seed;
  auto publisher = shm::EpochPublisher::Create(segment, options);
  if (!publisher.ok()) {
    std::fprintf(stderr, "create %s: %s\n", segment.c_str(),
                 publisher.error().message.c_str());
    return 1;
  }

  video::ClassCatalog catalog(seed);
  video::StreamRun run(&catalog, profile, minutes * 60.0, fps, seed + 1);
  cnn::Cnn cheap(params.model, &catalog);
  std::printf("ingesting %.1f min of %s with %s, publishing into %s every %lld frames...\n",
              minutes, stream.c_str(), params.model.name.c_str(), segment.c_str(),
              static_cast<long long>(every));
  const core::ClassifiedSample sample = core::ClassifySample(run, cheap, params.k);

  core::IngestOptions ingest;
  ingest.finalize_every_frames = every;
  double publish_millis = 0.0;
  int failed = 0;
  ingest.snapshot_sink = [&](std::shared_ptr<const core::LiveSnapshot> snap) {
    const auto start = std::chrono::steady_clock::now();
    auto published = (*publisher)->Publish(*snap);
    publish_millis += MillisSince(start);
    if (!published.ok()) {
      ++failed;  // Ingest keeps running; the plane just lags (arena full).
    }
  };
  core::RunIngestClassified(sample, params, ingest);

  const shm::ShmPlaneStats stats = (*publisher)->stats();
  std::printf("published %llu epochs (%.2f ms/epoch copy+announce, %d failed)\n",
              static_cast<unsigned long long>(stats.epochs_published),
              stats.epochs_published > 0
                  ? publish_millis / static_cast<double>(stats.epochs_published)
                  : 0.0,
              failed);
  PrintStats(stats);
  std::printf("segment %s stays linked; attach with:\n  focus_shm_query query --segment %s "
              "--class <name>\n",
              segment.c_str(), segment.c_str());
  return failed == 0 ? 0 : 1;
}

int CmdQuery(const Args& args) {
  const std::string segment = args.Get("segment");
  const std::string class_name = args.Get("class");
  if (segment.empty() || class_name.empty()) {
    return Usage();
  }
  const int kx = args.GetInt("kx", -1);
  common::TimeRange range;
  range.begin_sec = args.GetDouble("begin", 0.0);
  range.end_sec = args.GetDouble("end", -1.0);

  // Cold attach: map the segment and claim a reader slot.
  const auto attach_start = std::chrono::steady_clock::now();
  auto reader = shm::ShmSnapshotReader::Attach(segment);
  if (!reader.ok()) {
    std::fprintf(stderr, "attach %s: %s\n", segment.c_str(), reader.error().message.c_str());
    return 1;
  }
  const double attach_millis = MillisSince(attach_start);

  // Rebuild the world from the header's provenance — no other configuration.
  auto provenance = (*reader)->Provenance();
  if (!provenance.ok()) {
    std::fprintf(stderr, "no published epoch in %s yet: %s\n", segment.c_str(),
                 provenance.error().message.c_str());
    return 1;
  }
  const auto rebuild_start = std::chrono::steady_clock::now();
  video::ClassCatalog catalog(provenance->world_seed);
  cnn::Cnn cheap(cnn::GenericCheapCandidates(
                     provenance->cheap_weights_seed)[provenance->cheap_candidate_index],
                 &catalog);
  cnn::Cnn gt(cnn::GtCnnDesc(provenance->gt_weights_seed), &catalog);
  const double rebuild_millis = MillisSince(rebuild_start);

  const common::ClassId cls = catalog.IdForName(class_name);
  if (cls == common::kInvalidClass) {
    std::fprintf(stderr, "unknown class '%s'\n", class_name.c_str());
    return 1;
  }

  auto view = (*reader)->Acquire();
  if (!view.ok()) {
    std::fprintf(stderr, "acquire: %s\n", view.error().message.c_str());
    return 1;
  }

  const auto plan_start = std::chrono::steady_clock::now();
  const core::QueryPlan plan = view->Plan(cls, kx, range, cheap);
  const double plan_millis = MillisSince(plan_start);
  const auto classify_start = std::chrono::steady_clock::now();
  const core::QueryResult result = view->Query(cls, kx, range, cheap, gt);
  const double query_millis = MillisSince(classify_start);
  if (!view->StillValid()) {
    std::fprintf(stderr, "epoch evicted mid-scan (plane under pin pressure); retry\n");
    return 1;
  }

  std::printf("epoch %llu (watermark frame %lld, %llu clusters, generation %llu)\n",
              static_cast<unsigned long long>(view->epoch()),
              static_cast<long long>(view->watermark()),
              static_cast<unsigned long long>(view->num_clusters()),
              static_cast<unsigned long long>(view->generation()));
  std::printf("query '%s' (Kx=%d):\n", class_name.c_str(), kx);
  std::printf("  frames returned:    %lld (%zu runs)\n",
              static_cast<long long>(result.frames_returned), result.frame_runs.size());
  std::printf("  clusters confirmed: %lld of %lld candidates\n",
              static_cast<long long>(result.clusters_matched),
              static_cast<long long>(result.centroids_classified));
  std::printf("  GT-CNN work:        %.1f ms GPU time\n", result.gpu_millis);
  for (size_t i = 0; i < std::min<size_t>(5, result.frame_runs.size()); ++i) {
    const auto& [first, last] = result.frame_runs[i];
    std::printf("  e.g. frames [%lld, %lld]  (t=%.1fs..%.1fs)\n",
                static_cast<long long>(first), static_cast<long long>(last),
                static_cast<double>(first) / view->fps(),
                static_cast<double>(last) / view->fps());
  }
  std::printf("cold-process cost: map+slot %.3f ms, model rebuild %.3f ms, "
              "plan %.3f ms (%zu candidates), full query %.3f ms\n",
              attach_millis, rebuild_millis, plan_millis, plan.work.size(), query_millis);
  if (plan.work.empty()) {
    // Nothing indexed under that class — show what this epoch does index.
    std::printf("no clusters index '%s'; this epoch's classes:", class_name.c_str());
    int shown = 0;
    for (const index::PostingList& list : view->index().lists()) {
      if (list.cls == cnn::kOtherClass || shown >= 6) {
        continue;
      }
      std::printf(" %s", catalog.Name(list.cls).c_str());
      ++shown;
    }
    std::printf("\n");
  }
  return 0;
}

int CmdStatus(const Args& args) {
  const std::string segment = args.Get("segment");
  if (segment.empty()) {
    return Usage();
  }
  auto mapped = shm::SharedSegment::Open(segment);
  if (!mapped.ok()) {
    std::fprintf(stderr, "open %s: %s\n", segment.c_str(), mapped.error().message.c_str());
    return 1;
  }
  std::printf("%s:\n", segment.c_str());
  PrintStats(shm::StatsOf(**mapped));
  return 0;
}

int CmdUnlink(const Args& args) {
  const std::string segment = args.Get("segment");
  if (segment.empty()) {
    return Usage();
  }
  shm::SharedSegment::Unlink(segment);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  common::SetLogLevel(common::LogLevel::kWarning);
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  Args args(argc, argv, 2);
  if (!args.ok()) {
    return Usage();
  }
  if (command == "publish") {
    return CmdPublish(args);
  }
  if (command == "query") {
    return CmdQuery(args);
  }
  if (command == "status") {
    return CmdStatus(args);
  }
  if (command == "unlink") {
    return CmdUnlink(args);
  }
  return Usage();
}
