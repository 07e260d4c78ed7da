// Windowed streaming finalize / live query-over-ingest tests
// (src/core/live_snapshot.h, docs/live_query.md).
//
// The load-bearing property: querying published snapshot epoch e is
// byte-identical to halting ingest at e's frame watermark (with the same
// options) and running the old one-shot finalize. Held here over random
// streams, random cadences, shard counts, both clusterer modes, the streaming
// and classified-replay pipelines, the crash-resume path, and the server's
// QUERY verb on a live stream.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/cnn/ground_truth.h"
#include "src/cnn/model_zoo.h"
#include "src/common/rng.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/live_snapshot.h"
#include "src/core/query_engine.h"
#include "src/runtime/fleet_query_service.h"
#include "src/runtime/ingest_service.h"
#include "src/server/query_server.h"
#include "src/video/stream_generator.h"

namespace focus::core {
namespace {

namespace fs = std::filesystem;

IngestParams Params() {
  IngestParams params;
  params.model = cnn::GenericCheapCandidates(5)[1];
  params.k = 3;
  params.cluster_threshold = 0.6;
  return params;
}

// The halted-run counterpart of a live snapshot: the classified sample cut at
// the snapshot's watermark, with the classification counters recomputed for
// the prefix (frame order makes the cut exact; reuse decisions depend only on
// the prefix, so this equals classifying the halted stream directly).
ClassifiedSample Truncate(const ClassifiedSample& sample, common::FrameIndex watermark,
                          const cnn::Cnn& cheap) {
  ClassifiedSample out;
  out.k = sample.k;
  out.fps = sample.fps;
  for (const ClassifiedDetection& d : sample.detections) {
    if (d.detection.frame >= watermark) {
      break;
    }
    if (d.reused) {
      ++out.suppressed;
    } else {
      ++out.cnn_invocations;
      out.gpu_millis += cheap.inference_cost_millis();
    }
    out.detections.push_back(d);
  }
  return out;
}

void ExpectSameIndex(const index::TopKIndex& a, const index::TopKIndex& b) {
  ASSERT_EQ(a.num_clusters(), b.num_clusters());
  EXPECT_TRUE(a.image() == b.image()) << "index images differ";
}

TEST(SnapshotSlotTest, PublishStampsMonotoneEpochsAndSwapsLatest) {
  SnapshotSlot slot;
  EXPECT_EQ(slot.Latest(), nullptr);
  auto first = slot.Publish(std::make_unique<LiveSnapshot>());
  EXPECT_EQ(first->epoch, 1u);
  EXPECT_EQ(slot.Latest(), first);

  auto snap = std::make_unique<LiveSnapshot>();
  snap->watermark = 128;
  auto second = slot.Publish(std::move(snap));
  EXPECT_EQ(second->epoch, 2u);
  EXPECT_EQ(second->watermark, 128);
  EXPECT_EQ(slot.Latest(), second);
  // The old epoch stays alive through its own reference (RCU).
  EXPECT_EQ(first->epoch, 1u);
}

// The core property, over random streams and random finalize_every_frames:
// every published epoch's index is byte-identical to halting ingest at its
// watermark (same options) and finalizing one-shot — across shard counts and
// clusterer modes, through the classified-replay pipeline.
TEST(LiveSnapshotPropertyTest, SnapshotEqualsHaltAndFinalize) {
  video::ClassCatalog catalog(23);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  const IngestParams params = Params();
  cnn::Cnn cheap(params.model, &catalog);

  common::Pcg32 rng(0xF1A5);
  int epochs_checked = 0;
  for (int num_shards : {1, 2, 4}) {
    for (auto mode :
         {cluster::ClustererOptions::Mode::kExact, cluster::ClustererOptions::Mode::kFast}) {
      const uint64_t seed = 100 + rng.Next() % 1000;
      video::StreamRun run(&catalog, profile, /*duration_sec=*/20.0, /*fps=*/30.0, seed);
      const ClassifiedSample sample = ClassifySample(run, cheap, params.k);

      IngestOptions options;
      options.num_shards = num_shards;
      options.cluster_mode = mode;
      rng.Next();  // Was the periodic merge interval; keeps later draws stable.
      options.finalize_every_frames = 40 + static_cast<int64_t>(rng.Next() % 200);
      SCOPED_TRACE("shards=" + std::to_string(num_shards) +
                   " mode=" + std::to_string(static_cast<int>(mode)) +
                   " every=" + std::to_string(options.finalize_every_frames) +
                   " seed=" + std::to_string(seed));

      std::vector<std::shared_ptr<const LiveSnapshot>> snapshots;
      IngestOptions live = options;
      live.snapshot_sink = [&](std::shared_ptr<const LiveSnapshot> snap) {
        snapshots.push_back(std::move(snap));
      };
      const IngestResult full = RunIngestClassified(sample, params, live);
      ASSERT_FALSE(snapshots.empty());

      uint64_t last_epoch = 0;
      for (const auto& snap : snapshots) {
        EXPECT_EQ(snap->epoch, last_epoch + 1);  // Dense, monotone epochs.
        last_epoch = snap->epoch;
        EXPECT_EQ(snap->watermark % options.finalize_every_frames, 0);
        EXPECT_EQ(snap->stats.entries_reused + snap->stats.entries_rebuilt,
                  snap->num_clusters);

        // Halt at the watermark and finalize the old one-shot way (same
        // options — the cadence is part of the clustering semantics).
        const ClassifiedSample halted_sample = Truncate(sample, snap->watermark, cheap);
        const IngestResult halted = RunIngestClassified(halted_sample, params, options);
        EXPECT_EQ(snap->detections, halted.detections);
        ExpectSameIndex(snap->index, halted.index);
        ++epochs_checked;
      }
      // Attaching a consumer never changes the stream's final result.
      const IngestResult without_sink = RunIngestClassified(sample, params, options);
      EXPECT_EQ(full.detections, without_sink.detections);
      ExpectSameIndex(full.index, without_sink.index);
    }
  }
  EXPECT_GT(epochs_checked, 20);
}

// Same property through the volatile *streaming* path (per-frame cadence,
// including windows with no detections): RunIngest at one shard publishes
// sequentially; every epoch equals the truncated replay's one-shot finalize.
TEST(LiveSnapshotPropertyTest, StreamingSequentialSnapshotsMatchHaltedReplay) {
  video::ClassCatalog catalog(29);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  const IngestParams params = Params();
  cnn::Cnn cheap(params.model, &catalog);
  video::StreamRun run(&catalog, profile, /*duration_sec=*/15.0, /*fps=*/30.0, 5);
  const ClassifiedSample sample = ClassifySample(run, cheap, params.k);

  IngestOptions options;
  options.finalize_every_frames = 75;
  std::vector<std::shared_ptr<const LiveSnapshot>> snapshots;
  IngestOptions live = options;
  live.snapshot_sink = [&](std::shared_ptr<const LiveSnapshot> snap) {
    snapshots.push_back(std::move(snap));
  };
  RunIngest(run, cheap, params, live);
  ASSERT_GE(snapshots.size(), 4u);
  for (const auto& snap : snapshots) {
    EXPECT_DOUBLE_EQ(snap->fps, run.fps());
    const IngestResult halted =
        RunIngestClassified(Truncate(sample, snap->watermark, cheap), params, options);
    EXPECT_EQ(snap->detections, halted.detections);
    ExpectSameIndex(snap->index, halted.index);
  }
}

// Crash-resume: a resumed persistent run re-publishes epochs from live state
// past its recovery point, and they are byte-identical to the uninterrupted
// run's snapshots at the same watermarks.
TEST(LiveSnapshotPropertyTest, ResumableSnapshotsMatchUninterrupted) {
  video::ClassCatalog catalog(31);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  const IngestParams params = Params();
  cnn::Cnn cheap(params.model, &catalog);
  video::StreamRun run(&catalog, profile, /*duration_sec=*/20.0, /*fps=*/30.0, 9);

  const fs::path dir = fs::temp_directory_path() /
                       ("live_snap_resume_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  for (int num_shards : {1, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    IngestOptions options;
    options.num_shards = num_shards;
    options.finalize_every_frames = 90;
    options.checkpoint_every_frames = 64;

    std::vector<std::shared_ptr<const LiveSnapshot>> uninterrupted;
    IngestOptions a = options;
    a.persist_dir = (dir / ("u" + std::to_string(num_shards))).string();
    a.snapshot_sink = [&](std::shared_ptr<const LiveSnapshot> snap) {
      uninterrupted.push_back(std::move(snap));
    };
    const IngestResult full = RunIngest(run, cheap, params, a);
    ASSERT_GE(uninterrupted.size(), 4u);

    IngestOptions b = options;
    b.persist_dir = (dir / ("c" + std::to_string(num_shards))).string();
    b.crash_after_frames = run.num_frames() / 2;
    RunIngest(run, cheap, params, b);

    std::vector<std::shared_ptr<const LiveSnapshot>> resumed;
    b.crash_after_frames = -1;
    b.snapshot_sink = [&](std::shared_ptr<const LiveSnapshot> snap) {
      resumed.push_back(std::move(snap));
    };
    const IngestResult after = RunIngest(run, cheap, params, b);
    EXPECT_GT(after.resumed_from_frame, 0);
    ASSERT_FALSE(resumed.empty());
    ExpectSameIndex(after.index, full.index);

    // Epoch numbering restarts per process/run (snapshots are volatile), but
    // every resumed watermark's table matches the uninterrupted run's.
    for (const auto& snap : resumed) {
      const auto match =
          std::find_if(uninterrupted.begin(), uninterrupted.end(),
                       [&](const auto& u) { return u->watermark == snap->watermark; });
      ASSERT_NE(match, uninterrupted.end()) << "watermark " << snap->watermark;
      EXPECT_EQ(snap->detections, (*match)->detections);
      ExpectSameIndex(snap->index, (*match)->index);
    }
  }
  fs::remove_all(dir);
}

// The tentpole property for background publication: with the snapshot builder
// on its own thread and boundary merges incremental, every published epoch is
// STILL byte-identical to halting ingest at its watermark and finalizing
// one-shot — and the background run's snapshot sequence is byte-identical to
// the synchronous run's (the builder assembles from a copied cut; threading
// moves work, never content).
TEST(LiveSnapshotPropertyTest, BackgroundIncrementalSnapshotsEqualHaltAndFinalize) {
  video::ClassCatalog catalog(47);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  const IngestParams params = Params();
  cnn::Cnn cheap(params.model, &catalog);

  common::Pcg32 rng(0xBB51);
  int epochs_checked = 0;
  for (int num_shards : {1, 2, 4}) {
    const uint64_t seed = 100 + rng.Next() % 1000;
    video::StreamRun run(&catalog, profile, /*duration_sec=*/20.0, /*fps=*/30.0, seed);
    const ClassifiedSample sample = ClassifySample(run, cheap, params.k);

    IngestOptions options;
    options.num_shards = num_shards;
    options.finalize_every_frames = 40 + static_cast<int64_t>(rng.Next() % 100);
    SCOPED_TRACE("shards=" + std::to_string(num_shards) +
                 " every=" + std::to_string(options.finalize_every_frames) +
                 " seed=" + std::to_string(seed));

    std::vector<std::shared_ptr<const LiveSnapshot>> background;
    IngestOptions bg = options;
    bg.background_publish = true;
    bg.snapshot_sink = [&](std::shared_ptr<const LiveSnapshot> snap) {
      background.push_back(std::move(snap));  // Builder thread; read post-run.
    };
    const IngestResult full_bg = RunIngestClassified(sample, params, bg);
    ASSERT_FALSE(background.empty());

    std::vector<std::shared_ptr<const LiveSnapshot>> sync;
    IngestOptions sy = options;
    sy.snapshot_sink = [&](std::shared_ptr<const LiveSnapshot> snap) {
      sync.push_back(std::move(snap));
    };
    const IngestResult full_sync = RunIngestClassified(sample, params, sy);

    // Background vs synchronous: the same dense epochs, byte-identical.
    ASSERT_EQ(background.size(), sync.size());
    for (size_t i = 0; i < background.size(); ++i) {
      EXPECT_EQ(background[i]->epoch, sync[i]->epoch);
      EXPECT_EQ(background[i]->epoch, i + 1);
      EXPECT_EQ(background[i]->watermark, sync[i]->watermark);
      EXPECT_EQ(background[i]->detections, sync[i]->detections);
      EXPECT_EQ(background[i]->stats.entries_reused, sync[i]->stats.entries_reused);
      EXPECT_EQ(background[i]->stats.entries_rebuilt, sync[i]->stats.entries_rebuilt);
      ExpectSameIndex(background[i]->index, sync[i]->index);
    }
    ExpectSameIndex(full_bg.index, full_sync.index);

    // Each background epoch ≡ halting at its watermark (same options) and
    // finalizing one-shot.
    for (const auto& snap : background) {
      const IngestResult halted =
          RunIngestClassified(Truncate(sample, snap->watermark, cheap), params, options);
      EXPECT_EQ(snap->detections, halted.detections);
      ExpectSameIndex(snap->index, halted.index);
      ++epochs_checked;
    }
  }
  EXPECT_GT(epochs_checked, 10);
}

// Crash-resume under background builds: the builder is flushed before every
// durable checkpoint (publish-before-cut ordering), so a crashed and resumed
// persistent run with background publication and incremental boundary merges
// re-publishes epochs byte-identical to the uninterrupted run's at the same
// watermarks, across shard counts.
TEST(LiveSnapshotPropertyTest, BackgroundResumableSnapshotsMatchUninterrupted) {
  video::ClassCatalog catalog(53);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  const IngestParams params = Params();
  cnn::Cnn cheap(params.model, &catalog);
  video::StreamRun run(&catalog, profile, /*duration_sec=*/20.0, /*fps=*/30.0, 11);

  const fs::path dir = fs::temp_directory_path() /
                       ("live_snap_bg_resume_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  for (int num_shards : {1, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    IngestOptions options;
    options.num_shards = num_shards;
    options.finalize_every_frames = 90;
    options.checkpoint_every_frames = 64;
    options.background_publish = true;

    std::vector<std::shared_ptr<const LiveSnapshot>> uninterrupted;
    IngestOptions a = options;
    a.persist_dir = (dir / ("u" + std::to_string(num_shards))).string();
    a.snapshot_sink = [&](std::shared_ptr<const LiveSnapshot> snap) {
      uninterrupted.push_back(std::move(snap));
    };
    const IngestResult full = RunIngest(run, cheap, params, a);
    ASSERT_GE(uninterrupted.size(), 4u);

    IngestOptions b = options;
    b.persist_dir = (dir / ("c" + std::to_string(num_shards))).string();
    b.crash_after_frames = run.num_frames() / 2;
    RunIngest(run, cheap, params, b);

    std::vector<std::shared_ptr<const LiveSnapshot>> resumed;
    b.crash_after_frames = -1;
    b.snapshot_sink = [&](std::shared_ptr<const LiveSnapshot> snap) {
      resumed.push_back(std::move(snap));
    };
    const IngestResult after = RunIngest(run, cheap, params, b);
    EXPECT_GT(after.resumed_from_frame, 0);
    ASSERT_FALSE(resumed.empty());
    ExpectSameIndex(after.index, full.index);

    for (const auto& snap : resumed) {
      const auto match =
          std::find_if(uninterrupted.begin(), uninterrupted.end(),
                       [&](const auto& u) { return u->watermark == snap->watermark; });
      ASSERT_NE(match, uninterrupted.end()) << "watermark " << snap->watermark;
      EXPECT_EQ(snap->detections, (*match)->detections);
      ExpectSameIndex(snap->index, (*match)->index);
    }
  }
  fs::remove_all(dir);
}

// Delta build accounting: entries of canonical clusters untouched between
// epochs are carried forward, and on a stream whose objects exit the scene the
// reuse is the common case by the tail of the run.
TEST(LiveSnapshotTest, DeltaBuildReusesUnchangedEntries) {
  video::ClassCatalog catalog(37);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  const IngestParams params = Params();
  cnn::Cnn cheap(params.model, &catalog);
  video::StreamRun run(&catalog, profile, /*duration_sec=*/30.0, /*fps=*/30.0, 13);

  for (int num_shards : {1, 2}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    IngestOptions options;
    options.num_shards = num_shards;
    options.finalize_every_frames = 60;
    std::vector<std::shared_ptr<const LiveSnapshot>> snapshots;
    options.snapshot_sink = [&](std::shared_ptr<const LiveSnapshot> snap) {
      snapshots.push_back(std::move(snap));
    };
    RunIngest(run, cheap, params, options);
    ASSERT_GE(snapshots.size(), 8u);
    EXPECT_EQ(snapshots.front()->stats.entries_reused, 0);  // Nothing precedes epoch 1.
    int64_t total_reused = 0;
    for (const auto& snap : snapshots) {
      EXPECT_EQ(snap->stats.entries_reused + snap->stats.entries_rebuilt,
                snap->num_clusters);
      total_reused += snap->stats.entries_reused;
    }
    // Objects exit the scene (finite dwell), so later epochs must carry
    // settled clusters forward instead of rebuilding the whole table.
    EXPECT_GT(total_reused, 0);
    EXPECT_GT(snapshots.back()->stats.entries_reused, 0);
  }
}

// Cross-query verdict sharing extends to snapshots: two concurrent requests
// against the same epoch classify each shared centroid once, and results are
// identical to the one-query execution.
TEST(LiveSnapshotTest, FleetServiceDedupsSnapshotRequests) {
  video::ClassCatalog catalog(41);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  const IngestParams params = Params();
  cnn::Cnn cheap(params.model, &catalog);
  cnn::Cnn gt(cnn::GtCnnDesc(catalog.world_seed()), &catalog);
  video::StreamRun run(&catalog, profile, /*duration_sec=*/12.0, /*fps=*/30.0, 17);

  IngestOptions options;
  options.finalize_every_frames = 120;
  std::shared_ptr<const LiveSnapshot> latest;
  options.snapshot_sink = [&](std::shared_ptr<const LiveSnapshot> snap) {
    latest = std::move(snap);
  };
  RunIngest(run, cheap, params, options);
  ASSERT_NE(latest, nullptr);

  const common::ClassId cls = run.present_classes().front();
  runtime::FleetQueryRequest request;
  request.camera = "auburn_c";
  request.query.cls = cls;
  request.query.snapshot = latest;
  request.query.ingest_cnn = &cheap;
  request.query.gt_cnn = &gt;
  request.query.fps = run.fps();

  runtime::FleetQueryService service({.num_gpus = 4, .batch_size = 8});
  const auto executions = service.ExecuteConcurrently({request, request});
  const runtime::FleetServiceStats stats = service.stats();
  EXPECT_EQ(stats.work_items, 2 * stats.cache_misses);
  EXPECT_EQ(stats.dedup_hits, stats.cache_misses);
  ASSERT_EQ(executions.size(), 2u);
  EXPECT_EQ(executions[0].result.frame_runs, executions[1].result.frame_runs);

  // And the snapshot-target execution equals the plain engine over the
  // snapshot's index.
  const QueryResult direct = QueryEngine(latest.get(), &cheap, &gt)
                                 .Query(cls, -1, {}, run.fps());
  EXPECT_EQ(executions[0].result.frame_runs, direct.frame_runs);
  EXPECT_EQ(executions[0].result.frames_returned, direct.frames_returned);
}

// The server's QUERY verb over a live stream: answers come from the newest
// published epoch, carry EPOCH/WATERMARK, and the frame runs are
// byte-identical to halting ingest at that watermark and finalizing.
TEST(LiveSnapshotTest, ServerLiveQueryMatchesHaltedFinalize) {
  video::ClassCatalog catalog(43);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  const IngestParams params = Params();
  video::StreamRun run(&catalog, profile, /*duration_sec=*/15.0, /*fps=*/30.0, 19);

  runtime::IngestServiceOptions service_options;
  service_options.num_worker_threads = 2;
  service_options.finalize_every_frames = 64;
  runtime::IngestService ingest(service_options);
  runtime::IngestJob job;
  job.name = "gate";
  job.run = &run;
  job.params = params;
  job.options.num_shards = 2;
  ingest.AddStream(job);
  EXPECT_EQ(ingest.LatestSnapshot("gate"), nullptr);  // Nothing published yet.
  ingest.RunAll();

  const auto snapshot = ingest.LatestSnapshot("gate");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->watermark % 64, 0);

  core::FocusFleet fleet;  // Empty: "gate" resolves through the live service.
  server::QueryServer server(&fleet, &catalog, nullptr, {}, &ingest);

  const common::ClassId cls = run.present_classes().front();
  const std::string response =
      server.HandleLine("QUERY gate " + catalog.Name(cls));
  ASSERT_EQ(response.rfind("OK LIVE EPOCH ", 0), 0u) << response;
  EXPECT_NE(response.find("WATERMARK " + std::to_string(snapshot->watermark)),
            std::string::npos);

  // Reference: halt at the watermark (same options the service ran with) and
  // finalize one-shot, then query with the live context's models.
  const runtime::LiveStreamContext* context = ingest.LiveContext("gate");
  ASSERT_NE(context, nullptr);
  core::IngestOptions halted_options = job.options;
  halted_options.finalize_every_frames = 64;
  const ClassifiedSample sample =
      ClassifySample(run, *context->ingest_cnn, params.k);
  const IngestResult halted = RunIngestClassified(
      Truncate(sample, snapshot->watermark, *context->ingest_cnn), params, halted_options);
  const QueryResult expected =
      QueryEngine(&halted.index, context->ingest_cnn.get(), context->gt_cnn.get())
          .Query(cls, -1, {}, run.fps());

  std::string expected_runs;
  for (const auto& [first, last] : expected.frame_runs) {
    expected_runs += "\nRUN " + std::to_string(first) + " " + std::to_string(last);
  }
  const size_t runs_pos = response.find("\nRUN");
  const std::string actual_runs =
      runs_pos == std::string::npos ? "" : response.substr(runs_pos);
  EXPECT_EQ(actual_runs, expected_runs);
  // Unknown cameras still fail cleanly with a live service attached.
  EXPECT_EQ(server.HandleLine("QUERY nowhere car").rfind("ERR", 0), 0u);
}

}  // namespace
}  // namespace focus::core
