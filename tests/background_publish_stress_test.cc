// Concurrency stress for background snapshot publication (TSan-gated:
// tools/check_all.sh runs this under FOCUS_SANITIZE=thread): reader threads
// hammer SnapshotSlot::Latest() and execute queries through one shared query
// service against whatever epoch they catch while a persistent sharded ingest
// advances underneath with
//   - the snapshot builder assembling and publishing on its own thread,
//   - incremental boundary merges at every cadence boundary,
//   - parallel per-shard checkpoint persistence racing the builder flushes.
// Asserts the RCU publication contract under that full concurrency mix:
// monotone epochs per reader, no torn snapshots, and per-epoch byte-identical
// query results across threads.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/cnn/ground_truth.h"
#include "src/cnn/model_zoo.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/live_snapshot.h"
#include "src/runtime/fleet_query_service.h"
#include "src/video/stream_generator.h"

namespace focus::runtime {
namespace {

namespace fs = std::filesystem;

std::string Fingerprint(const core::QueryResult& result) {
  std::ostringstream out;
  out << result.frames_returned << "|" << result.centroids_classified << "|"
      << result.clusters_matched;
  for (const auto& [first, last] : result.frame_runs) {
    out << ";" << first << "-" << last;
  }
  return out.str();
}

TEST(BackgroundPublishStressTest, ReadersRaceBackgroundBuildsAndCheckpoints) {
  constexpr int64_t kCadence = 40;
  constexpr int kQueryThreads = 3;

  video::ClassCatalog catalog(59);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  // Long enough that hundreds of epochs publish (and dozens of checkpoints
  // persist) while the readers poll; short enough for the sanitizer build.
  video::StreamRun run(&catalog, profile, /*duration_sec=*/240.0, /*fps=*/30.0, 25);

  core::IngestParams params;
  params.model = cnn::GenericCheapCandidates(5)[1];
  params.k = 3;
  params.cluster_threshold = 0.6;
  cnn::Cnn cheap(params.model, &catalog);
  cnn::Cnn gt(cnn::GtCnnDesc(catalog.world_seed()), &catalog);

  const fs::path dir = fs::temp_directory_path() /
                       ("bg_publish_stress_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  core::SnapshotSlot slot;
  core::IngestOptions options;
  options.num_shards = 4;
  options.finalize_every_frames = kCadence;
  options.checkpoint_every_frames = 160;
  options.background_publish = true;
  options.persist_dir = dir.string();
  options.snapshot_slot = &slot;

  const std::vector<common::ClassId>& classes = run.present_classes();
  ASSERT_FALSE(classes.empty());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  // Per thread: epoch -> result fingerprint, merged and cross-checked after.
  std::vector<std::map<uint64_t, std::string>> seen(kQueryThreads);

  // One executor shared by every reader, as the server runs it: readers on
  // the same epoch race the verdict cache's lock-free fully-cached path, and
  // the first reader of a newer epoch retires the older epochs' verdicts
  // underneath the others.
  FleetQueryService query_service({.num_gpus = 4, .batch_size = 8});
  std::vector<std::thread> readers;
  readers.reserve(kQueryThreads);
  for (int t = 0; t < kQueryThreads; ++t) {
    readers.emplace_back([&, t] {
      uint64_t last_epoch = 0;
      bool final_pass = false;
      while (true) {
        const bool ingest_done = done.load();
        std::shared_ptr<const core::LiveSnapshot> snap = slot.Latest();
        if (snap != nullptr) {
          if (snap->epoch < last_epoch) {
            ++failures;  // Epochs must be monotone per reader.
            break;
          }
          last_epoch = snap->epoch;
          // Torn-read checks: everything inside one snapshot must be mutually
          // consistent regardless of when the pointer was loaded.
          if (snap->watermark % kCadence != 0 || snap->watermark == 0 ||
              snap->num_clusters != static_cast<int64_t>(snap->index.num_clusters()) ||
              snap->stats.entries_reused + snap->stats.entries_rebuilt !=
                  snap->num_clusters) {
            ++failures;
            break;
          }
          // The queried class is a pure function of the epoch, so every
          // thread that lands on epoch e runs the identical query.
          FleetQueryRequest request;
          request.camera = "live";
          request.query.cls = classes[static_cast<size_t>(snap->epoch) % classes.size()];
          request.query.snapshot = snap;
          request.query.ingest_cnn = &cheap;
          request.query.gt_cnn = &gt;
          request.query.fps = run.fps();
          const QueryExecution execution = query_service.Execute(request);
          const std::string fingerprint = Fingerprint(execution.result);
          auto [it, inserted] =
              seen[static_cast<size_t>(t)].try_emplace(snap->epoch, fingerprint);
          if (!inserted && it->second != fingerprint) {
            ++failures;  // Same epoch, different answer: torn state.
            break;
          }
        }
        if (ingest_done) {
          // One full pass after ingest finished so the final epoch is covered.
          if (final_pass) {
            break;
          }
          final_pass = true;
        }
      }
    });
  }

  const core::IngestResult result = core::RunIngest(run, cheap, params, options);
  done.store(true);
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // Every reader queries the final epoch twice, so the shared cache served
  // at least the repeats.
  EXPECT_GT(query_service.stats().cache_hits, 0);
  EXPECT_GT(result.index.num_clusters(), 0u);

  // Builder stall accounting never goes negative, and the final epoch is the
  // last boundary of the run.
  const auto final_snapshot = slot.Latest();
  ASSERT_NE(final_snapshot, nullptr);
  EXPECT_GE(final_snapshot->epoch, 10u);
  EXPECT_GE(final_snapshot->stats.build_millis, 0.0);
  EXPECT_GE(final_snapshot->stats.stall_millis, 0.0);

  // Cross-thread per-epoch results must be byte-identical, and the readers
  // genuinely raced the ingest (several distinct epochs observed).
  std::map<uint64_t, std::string> merged;
  for (const auto& thread_seen : seen) {
    EXPECT_FALSE(thread_seen.empty());
    for (const auto& [epoch, fingerprint] : thread_seen) {
      auto [it, inserted] = merged.try_emplace(epoch, fingerprint);
      if (!inserted) {
        EXPECT_EQ(it->second, fingerprint) << "epoch " << epoch;
      }
    }
  }
  EXPECT_GE(merged.size(), 5u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace focus::runtime
