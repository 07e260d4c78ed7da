// S3 of the fleet serving runtime (docs/fleet_serving.md): Zipf-skewed query
// traffic against a live camera whose ingest keeps publishing new epoch
// snapshots. Asserts the service-level serving properties under skew + churn:
//
//   - within one epoch, the cache hit-rate of repeated traffic passes grows
//     monotonically (a fully repeated pass answers entirely from cache, paying
//     zero additional GT-CNN time);
//   - verdicts carry across epochs: a new epoch's first pass pays only for
//     the centroids no earlier epoch's plans held (most of an epoch's
//     centroids are its predecessor's), and the cache size never exceeds
//     capacity;
//   - every execution — whatever the cache held, however the traffic was
//     pooled — is byte-identical to a cold single-tenant run against the same
//     pinned snapshot.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/cnn/ground_truth.h"
#include "src/cnn/model_zoo.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/live_snapshot.h"
#include "src/core/query_engine.h"
#include "src/runtime/fleet_query_service.h"
#include "src/video/stream_generator.h"

namespace focus::runtime {
namespace {

TEST(FleetZipfLiveTest, SkewedTrafficOverAdvancingEpochs) {
  video::ClassCatalog catalog(17);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  video::StreamRun run(&catalog, profile, /*duration_sec=*/30.0, /*fps=*/30.0, 7);

  core::IngestParams params;
  params.model = cnn::GenericCheapCandidates(5)[1];
  params.k = 3;
  params.cluster_threshold = 0.6;
  cnn::Cnn cheap(params.model, &catalog);
  cnn::Cnn gt(cnn::GtCnnDesc(catalog.world_seed()), &catalog);

  // Ingest once, collecting every published epoch (the advancing live stream).
  core::IngestOptions options;
  options.finalize_every_frames = 60;
  std::vector<std::shared_ptr<const core::LiveSnapshot>> snapshots;
  options.snapshot_sink = [&](std::shared_ptr<const core::LiveSnapshot> snap) {
    snapshots.push_back(std::move(snap));
  };
  core::RunIngest(run, cheap, params, options);
  ASSERT_GE(snapshots.size(), 3u) << "cadence produced too few epochs to churn";

  const std::vector<common::ClassId>& classes = run.present_classes();
  ASSERT_FALSE(classes.empty());
  // §2.2.2 skew: a few head classes dominate the traffic.
  const common::ZipfDistribution zipf(classes.size(), 1.2);
  common::Pcg32 rng(0xD15C0);

  FleetQueryService service;
  constexpr int kBatch = 8;   // Concurrent requests per traffic pass.
  constexpr int kPasses = 3;  // Identical passes per epoch.
  // Centroid identities (frame, object id) of every plan of earlier epochs.
  std::set<std::pair<common::FrameIndex, common::ObjectId>> planned_before;
  int64_t carried_hits = 0;  // Later epochs' first-pass hits.

  for (const auto& snap : snapshots) {
    SCOPED_TRACE("epoch=" + std::to_string(snap->epoch));
    // One Zipf-drawn batch per epoch, replayed for every pass: passes after
    // the first re-ask exactly what the cache just absorbed.
    std::vector<FleetQueryRequest> batch;
    for (int i = 0; i < kBatch; ++i) {
      FleetQueryRequest request;
      request.camera = "live";
      request.tenant = i % 2 == 0 ? "dashboard" : "analyst";
      request.query.cls = classes[zipf.Sample(rng)];
      request.query.snapshot = snap;
      request.query.ingest_cnn = &cheap;
      request.query.gt_cnn = &gt;
      request.query.fps = run.fps();
      batch.push_back(std::move(request));
    }
    // This epoch's plan centroids, and how many of them no earlier epoch
    // planned.
    std::set<std::pair<common::FrameIndex, common::ObjectId>> planned_now;
    for (const FleetQueryRequest& request : batch) {
      const core::QueryPlan plan = core::QueryEngine(snap.get(), &cheap, &gt)
                                       .Plan(request.query.cls, request.query.kx,
                                             request.query.range, run.fps());
      for (const core::CentroidWorkItem& item : plan.work) {
        planned_now.emplace(item.centroid.frame, item.centroid.object_id);
      }
    }
    int64_t unplanned_before = 0;
    for (const auto& centroid : planned_now) {
      unplanned_before += planned_before.contains(centroid) ? 0 : 1;
    }

    double last_rate = -1.0;
    for (int pass = 0; pass < kPasses; ++pass) {
      SCOPED_TRACE("pass=" + std::to_string(pass));
      const FleetServiceStats before = service.stats();
      const auto execs = service.ExecuteConcurrently(batch);
      const FleetServiceStats after = service.stats();
      ASSERT_EQ(execs.size(), batch.size());

      // Identity: every result matches a cold single-tenant run against the
      // same pinned epoch, regardless of cache state and pooling.
      for (size_t i = 0; i < execs.size(); ++i) {
        ASSERT_FALSE(execs[i].error.has_value());
        const core::QueryEngine engine(snap.get(), &cheap, &gt);
        const core::QueryResult cold =
            engine.Query(batch[i].query.cls, batch[i].query.kx, batch[i].query.range,
                         run.fps());
        EXPECT_EQ(execs[i].result.frame_runs, cold.frame_runs);
        EXPECT_EQ(execs[i].result.centroids_classified, cold.centroids_classified);
        EXPECT_EQ(execs[i].result.clusters_matched, cold.clusters_matched);
        EXPECT_EQ(execs[i].result.frames_returned, cold.frames_returned);
        EXPECT_DOUBLE_EQ(execs[i].result.gpu_millis, cold.gpu_millis);
      }

      // Within-epoch hit-rate grows monotonically pass over pass.
      const int64_t hits = after.cache_hits - before.cache_hits;
      const int64_t misses = after.cache_misses - before.cache_misses;
      if (hits + misses > 0) {
        const double rate = static_cast<double>(hits) / static_cast<double>(hits + misses);
        EXPECT_GE(rate, last_rate);
        last_rate = rate;
      }
      if (pass == 0) {
        // The first pass of an epoch pays only for centroids no earlier
        // epoch planned; everything else is a verdict carried over.
        EXPECT_LE(misses, unplanned_before);
        if (snap != snapshots.front()) {
          carried_hits += hits;
        }
      } else {
        // A repeated pass is fully cached: zero fresh work, zero GT-CNN time.
        EXPECT_EQ(misses, 0);
        EXPECT_EQ(after.launches, before.launches);
        EXPECT_DOUBLE_EQ(after.gpu_millis, before.gpu_millis);
      }
      EXPECT_LE(after.cache_size, service.options().verdict_cache_capacity);
    }
    planned_before.insert(planned_now.begin(), planned_now.end());
  }

  // Later epochs reused verdicts their predecessors paid for.
  EXPECT_GT(carried_hits, 0);
  EXPECT_LE(service.stats().cache_size, service.options().verdict_cache_capacity);
}

}  // namespace
}  // namespace focus::runtime
