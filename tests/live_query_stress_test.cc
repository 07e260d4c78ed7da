// Concurrency stress for live query-over-ingest (TSan-gated: tools/check_all.sh
// runs the `stress` label under FOCUS_SANITIZE=thread): concurrent QUERY
// traffic executes through one shared query service against published
// snapshots while sharded ingest is still advancing the same streams. Asserts
// the RCU publication contract —
//   - epochs observed by any reader are monotone non-decreasing;
//   - no torn reads: every observed snapshot is internally consistent
//     (watermark on the cadence, entry accounting closed, index counters
//     matching) no matter when it was loaded;
//   - per-epoch result identity: every thread that queries epoch e gets
//     byte-identical frame runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/cnn/model_zoo.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/live_snapshot.h"
#include "src/runtime/fleet_query_service.h"
#include "src/runtime/ingest_service.h"
#include "src/video/stream_generator.h"

namespace focus::runtime {
namespace {

std::string Fingerprint(const core::QueryResult& result) {
  std::ostringstream out;
  out << result.frames_returned << "|" << result.centroids_classified << "|"
      << result.clusters_matched;
  for (const auto& [first, last] : result.frame_runs) {
    out << ";" << first << "-" << last;
  }
  return out.str();
}

TEST(LiveQueryStressTest, ConcurrentQueriesOverAdvancingIngest) {
  constexpr int64_t kCadence = 40;
  constexpr int kQueryThreads = 3;

  video::ClassCatalog catalog(47);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  // Long enough that ingest visibly advances while the readers hammer the
  // slot (hundreds of epochs), short enough for the sanitizer builds.
  video::StreamRun run(&catalog, profile, /*duration_sec=*/360.0, /*fps=*/30.0, 21);

  core::IngestParams params;
  params.model = cnn::GenericCheapCandidates(5)[1];
  params.k = 3;
  params.cluster_threshold = 0.6;

  IngestServiceOptions options;
  options.num_worker_threads = 2;
  options.finalize_every_frames = kCadence;
  IngestService service(options);
  IngestJob job;
  job.name = "live";
  job.run = &run;
  job.params = params;
  job.options.num_shards = 4;
  service.AddStream(job);

  const std::vector<common::ClassId>& classes = run.present_classes();
  ASSERT_FALSE(classes.empty());
  const LiveStreamContext* context = service.LiveContext("live");
  ASSERT_NE(context, nullptr);

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
        std::shared_ptr<const core::LiveSnapshot> snap = service.LatestSnapshot("live");
        if (snap != nullptr) {
          // Monotone epochs per reader.
          if (snap->epoch < last_epoch) {
            ++failures;
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
          request.query.ingest_cnn = context->ingest_cnn.get();
          request.query.gt_cnn = context->gt_cnn.get();
          request.query.fps = context->fps;
          const QueryExecution execution = query_service.Execute(request);
          const std::string fingerprint = Fingerprint(execution.result);
          auto [it, inserted] = seen[static_cast<size_t>(t)].try_emplace(snap->epoch,
                                                                         fingerprint);
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

  service.RunAll();
  done.store(true);
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // Every reader queries the final epoch twice, so the shared cache served
  // at least the repeats.
  EXPECT_GT(query_service.stats().cache_hits, 0);

  // Every reader saw at least the final epoch; cross-thread per-epoch results
  // must be byte-identical.
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
  const auto final_snapshot = service.LatestSnapshot("live");
  ASSERT_NE(final_snapshot, nullptr);
  EXPECT_GE(final_snapshot->epoch, 10u);  // The cadence actually produced epochs.
  // The readers genuinely raced the ingest: they caught the stream at several
  // different epochs, not just the final table (readers poll continuously
  // while hundreds of epochs publish, so a handful is a conservative floor).
  EXPECT_GE(merged.size(), 5u);
  for (const auto& [epoch, fingerprint] : merged) {
    EXPECT_GE(epoch, 1u);
    EXPECT_LE(epoch, final_snapshot->epoch);
  }
}

}  // namespace
}  // namespace focus::runtime
