// Tests for sharded intra-stream clustering (src/cluster/sharded_clusterer.h):
// single-shard equivalence with IncrementalClusterer, parallel/sequential
// dispatch equivalence, conservation of detections through the cross-shard
// merge, and the sharded ingest pipeline path (the one ingest engine at one
// shard against a sequential reference, scratch reuse, accuracy at four
// shards).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/incremental_clusterer.h"
#include "src/cluster/sharded_clusterer.h"
#include "src/cnn/ground_truth.h"
#include "src/common/rng.h"
#include "src/core/accuracy_evaluator.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/parameter_tuner.h"
#include "src/core/query_engine.h"
#include "src/runtime/worker_pool.h"
#include "src/video/stream_generator.h"

namespace focus::cluster {
namespace {

video::Detection Det(common::ObjectId object, common::FrameIndex frame) {
  video::Detection d;
  d.object_id = object;
  d.frame = frame;
  return d;
}

struct SyntheticStream {
  std::vector<video::Detection> detections;
  std::vector<common::FeatureVec> features;
};

// |num_objects| objects, each a noisy observation of its own archetype: the
// steady-state geometry of ingest (objects drift slowly, archetypes are
// near-orthogonal), with every object's detections in stream order.
SyntheticStream MakeStream(size_t num_objects, size_t dim, size_t length, uint64_t seed) {
  common::Pcg32 rng(common::DeriveSeed(seed, dim * 1000 + num_objects));
  std::vector<common::FeatureVec> archetypes;
  archetypes.reserve(num_objects);
  for (size_t i = 0; i < num_objects; ++i) {
    archetypes.push_back(common::RandomUnitVector(dim, rng));
  }
  SyntheticStream stream;
  stream.detections.reserve(length);
  stream.features.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    const size_t object = rng.Next() % num_objects;
    stream.detections.push_back(
        Det(static_cast<common::ObjectId>(object), static_cast<common::FrameIndex>(i)));
    stream.features.push_back(common::PerturbedUnitVector(archetypes[object], 0.15, rng));
  }
  return stream;
}

ShardedClustererOptions Options(size_t num_shards, double threshold,
                                ClustererOptions::Mode mode) {
  ShardedClustererOptions opts;
  opts.base.threshold = threshold;
  opts.base.mode = mode;
  opts.num_shards = num_shards;
  return opts;
}

TEST(ShardedClustererTest, ShardOfIsStablePerObject) {
  ShardedClusterer sharded(Options(4, 0.5, ClustererOptions::Mode::kExact));
  for (common::ObjectId object = 0; object < 64; ++object) {
    const size_t s = sharded.ShardOf(object);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(sharded.ShardOf(object), s);  // Pure function of the id.
  }
}

TEST(ShardedClustererTest, SingleShardMatchesIncrementalClustererExactly) {
  const SyntheticStream stream = MakeStream(24, 16, 600, 7);

  ClustererOptions base;
  base.threshold = 0.5;
  base.mode = ClustererOptions::Mode::kFast;
  IncrementalClusterer reference(base);

  ShardedClusterer sharded(Options(1, 0.5, ClustererOptions::Mode::kFast));

  for (size_t i = 0; i < stream.detections.size(); ++i) {
    const int64_t want = reference.Add(stream.detections[i], stream.features[i]);
    const int64_t got = sharded.Add(stream.detections[i], stream.features[i]);
    ASSERT_EQ(got, want) << "detection " << i;
  }

  const std::vector<Cluster> canonical = sharded.FinalizeClusters();
  const std::vector<Cluster>& expected = reference.clusters();
  ASSERT_EQ(canonical.size(), expected.size());
  for (size_t i = 0; i < canonical.size(); ++i) {
    EXPECT_EQ(canonical[i].id, expected[i].id);
    EXPECT_EQ(canonical[i].size, expected[i].size);
    ASSERT_EQ(canonical[i].members.size(), expected[i].members.size());
    for (size_t m = 0; m < canonical[i].members.size(); ++m) {
      EXPECT_EQ(canonical[i].members[m].object, expected[i].members[m].object);
      EXPECT_EQ(canonical[i].members[m].first_frame, expected[i].members[m].first_frame);
      EXPECT_EQ(canonical[i].members[m].last_frame, expected[i].members[m].last_frame);
    }
  }
  EXPECT_EQ(sharded.merges_folded(), 0);  // One shard: nothing to fold.
}

TEST(ShardedClustererTest, ParallelAssignBatchMatchesSequentialDispatch) {
  const SyntheticStream stream = MakeStream(32, 16, 800, 11);
  const size_t n = stream.detections.size();

  std::vector<ShardedClusterer::WorkItem> items(n);
  for (size_t i = 0; i < n; ++i) {
    items[i] = {&stream.detections[i], &stream.features[i], false};
  }

  ShardedClusterer sequential(Options(4, 0.5, ClustererOptions::Mode::kExact));
  std::vector<int64_t> seq_ids(n);
  sequential.AssignBatch(items.data(), n, nullptr, seq_ids.data());

  ShardedClusterer parallel(Options(4, 0.5, ClustererOptions::Mode::kExact));
  runtime::WorkerPool pool(4, 16, /*pop_batch=*/1);
  std::vector<int64_t> par_ids(n);
  // Several small batches: repeated Submit/Drain cycles through the pool.
  const size_t batch = 96;
  for (size_t offset = 0; offset < n; offset += batch) {
    const size_t count = std::min(batch, n - offset);
    parallel.AssignBatch(items.data() + offset, count, &pool, par_ids.data() + offset);
  }
  pool.Shutdown();

  EXPECT_EQ(par_ids, seq_ids);
  EXPECT_EQ(parallel.total_assignments(), static_cast<int64_t>(n));
}

TEST(ShardedClustererTest, MergedClustersConserveDetectionsAndRuns) {
  const SyntheticStream stream = MakeStream(48, 16, 1000, 13);
  ShardedClusterer sharded(Options(4, 0.5, ClustererOptions::Mode::kExact));
  for (size_t i = 0; i < stream.detections.size(); ++i) {
    sharded.Add(stream.detections[i], stream.features[i]);
  }
  const std::vector<Cluster> canonical = sharded.FinalizeClusters();

  int64_t total_size = 0;
  int64_t total_run_frames = 0;
  for (const Cluster& c : canonical) {
    total_size += c.size;
    for (const MemberRun& run : c.members) {
      total_run_frames += run.FrameCount();
    }
  }
  // Every detection lands in exactly one canonical cluster, with its member
  // run bookkeeping intact through the merge.
  EXPECT_EQ(total_size, static_cast<int64_t>(stream.detections.size()));
  EXPECT_EQ(total_run_frames, static_cast<int64_t>(stream.detections.size()));
  EXPECT_EQ(sharded.total_assignments(), static_cast<int64_t>(stream.detections.size()));
}

TEST(ShardedClustererTest, CrossShardMergeFoldsIdenticalAppearance) {
  ShardedClusterer sharded(Options(2, 0.5, ClustererOptions::Mode::kExact));
  // Two objects that hash to *different* shards but share one appearance.
  common::ObjectId a = 0;
  common::ObjectId b = 1;
  while (sharded.ShardOf(b) == sharded.ShardOf(a)) {
    ++b;
  }
  common::FeatureVec appearance({1.0f, 0.0f, 0.0f, 0.0f});
  const int64_t ga = sharded.Add(Det(a, 0), appearance);
  const int64_t gb = sharded.Add(Det(b, 0), appearance);
  ASSERT_NE(ga, gb);  // Independent shards each grew their own cluster.

  const std::vector<Cluster> canonical = sharded.FinalizeClusters();
  ASSERT_EQ(canonical.size(), 1u);  // ...folded into one canonical cluster.
  EXPECT_EQ(canonical[0].id, std::min(ga, gb));
  EXPECT_EQ(canonical[0].size, 2);
  ASSERT_EQ(canonical[0].members.size(), 2u);
  EXPECT_EQ(sharded.CanonicalOf(ga), sharded.CanonicalOf(gb));
  EXPECT_GE(sharded.merges_folded(), 1);
}

// --- Sharded ingest pipeline path ---

core::ClassifiedSample MakeClassifiedSample(const SyntheticStream& stream, int k) {
  core::ClassifiedSample sample;
  sample.k = k;
  common::ObjectId prev_object = -1;
  for (size_t i = 0; i < stream.detections.size(); ++i) {
    core::ClassifiedDetection entry;
    entry.detection = stream.detections[i];
    entry.feature = stream.features[i];
    // Deterministic synthetic top-K: classes derived from the object id.
    const auto object = static_cast<int64_t>(stream.detections[i].object_id);
    for (int pos = 0; pos < k; ++pos) {
      entry.topk.entries.emplace_back(
          static_cast<common::ClassId>((object + pos) % 7),
          0.5f / static_cast<float>(pos + 1));
    }
    // Consecutive detections of one object model the pixel-diff reuse path.
    entry.reused = stream.detections[i].object_id == prev_object;
    prev_object = stream.detections[i].object_id;
    if (entry.reused) {
      ++sample.suppressed;
    } else {
      ++sample.cnn_invocations;
    }
    sample.detections.push_back(std::move(entry));
  }
  return sample;
}

// Per-cluster min rank of every class seen in a member's top-K output.
using BestRanks = std::map<int64_t, std::map<common::ClassId, int32_t>>;

void RecordRanks(const core::ClassifiedDetection& entry, size_t width, int64_t id,
                 BestRanks* best_rank) {
  for (size_t pos = 0; pos < std::min(width, entry.topk.entries.size()); ++pos) {
    const int32_t rank = static_cast<int32_t>(pos) + 1;
    auto [it, inserted] = (*best_rank)[id].try_emplace(entry.topk.entries[pos].first, rank);
    if (!inserted) {
      it->second = std::min(it->second, rank);
    }
  }
}

// One index entry per cluster of |table| (ascending id; the index numbers
// entries by slot), classes sorted by (best rank, class id).
index::TopKIndex ReferenceIndex(const std::vector<Cluster>& table, BestRanks& best_rank) {
  index::IndexBuilder builder;
  for (const Cluster& c : table) {
    index::ClusterEntry entry;
    entry.representative = c.representative;
    entry.members = c.members;
    entry.size = c.size;
    std::vector<std::pair<int32_t, common::ClassId>> ranked;
    for (const auto& [cls, rank] : best_rank[c.id]) {
      ranked.emplace_back(rank, cls);
    }
    std::sort(ranked.begin(), ranked.end());
    for (const auto& [rank, cls] : ranked) {
      entry.topk_classes.push_back(cls);
      entry.topk_ranks.push_back(rank);
    }
    builder.Add(entry);
  }
  return builder.Finish();
}

// The sequential reference the engine must reproduce at one shard, written
// here so it stays independent of the pipeline: a lone IncrementalClusterer
// fed in stream order (AddSuppressed for reused detections) plus a
// per-cluster min-rank map.
index::TopKIndex SequentialReference(const core::ClassifiedSample& sample,
                                     const core::IngestParams& params,
                                     ClustererOptions::Mode mode) {
  ClustererOptions base;
  base.threshold = params.cluster_threshold;
  base.mode = mode;
  base.max_active = core::IngestOptions{}.max_active_clusters;
  IncrementalClusterer clusterer(base);
  BestRanks best_rank;
  const size_t width = static_cast<size_t>(std::min(params.k, sample.k));
  for (const core::ClassifiedDetection& entry : sample.detections) {
    const int64_t id = entry.reused ? clusterer.AddSuppressed(entry.detection, entry.feature)
                                    : clusterer.Add(entry.detection, entry.feature);
    RecordRanks(entry, width, id, &best_rank);
  }
  return ReferenceIndex(clusterer.clusters(), best_rank);
}

void ExpectIndexEquals(const index::TopKIndex& want, const index::TopKIndex& got) {
  ASSERT_EQ(got.num_clusters(), want.num_clusters());
  EXPECT_TRUE(got.image() == want.image()) << "index images differ";
}

TEST(ShardedIngestPipelineTest, SingleShardMatchesSequentialReference) {
  const SyntheticStream stream = MakeStream(24, 16, 700, 17);
  const core::ClassifiedSample sample = MakeClassifiedSample(stream, 3);

  core::IngestParams params;
  params.k = 3;
  params.cluster_threshold = 0.5;

  for (auto mode : {ClustererOptions::Mode::kExact, ClustererOptions::Mode::kFast}) {
    // Without and with a snapshot cadence: at one shard a boundary has no
    // clustering side effect.
    for (int64_t every : {0, 64}) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " every=" + std::to_string(every));
      core::IngestOptions options;
      options.cluster_mode = mode;
      options.num_shards = 1;
      options.finalize_every_frames = every;
      int64_t epochs = 0;
      if (every > 0) {
        options.snapshot_sink = [&](std::shared_ptr<const core::LiveSnapshot>) { ++epochs; };
      }
      const core::IngestResult got = core::RunIngestClassified(sample, params, options);
      EXPECT_EQ(epochs > 0, every > 0);

      const index::TopKIndex want = SequentialReference(sample, params, mode);
      EXPECT_EQ(got.detections, static_cast<int64_t>(sample.detections.size()));
      EXPECT_EQ(got.suppressed, sample.suppressed);
      EXPECT_EQ(got.num_clusters, static_cast<int64_t>(want.num_clusters()));
      ExpectIndexEquals(want, got.index);
    }
  }
}

// Above one shard, the engine's end-of-stream index (the canonical cut)
// equals ShardedClusterer::FinalizeClusters over the same assignments, with
// ranks folded onto canonical ids.
TEST(ShardedIngestPipelineTest, MultiShardIndexMatchesFinalizeClusters) {
  // Six objects per appearance: duplicates land on different shards, so the
  // cross-shard fold has work to do.
  SyntheticStream stream = MakeStream(8, 16, 900, 31);
  for (size_t i = 0; i < stream.detections.size(); ++i) {
    stream.detections[i].object_id += 8 * static_cast<common::ObjectId>(i % 6);
  }
  const core::ClassifiedSample sample = MakeClassifiedSample(stream, 3);
  core::IngestParams params;
  params.k = 3;
  params.cluster_threshold = 0.5;
  for (size_t num_shards : {2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    core::IngestOptions options;
    options.cluster_mode = ClustererOptions::Mode::kExact;
    options.num_shards = static_cast<int>(num_shards);
    const core::IngestResult got = core::RunIngestClassified(sample, params, options);

    ShardedClusterer reference(Options(num_shards, 0.5, ClustererOptions::Mode::kExact));
    std::vector<int64_t> raw_ids;
    for (const core::ClassifiedDetection& entry : sample.detections) {
      raw_ids.push_back(entry.reused ? reference.AddSuppressed(entry.detection, entry.feature)
                                     : reference.Add(entry.detection, entry.feature));
    }
    const std::vector<Cluster> table = reference.FinalizeClusters();
    EXPECT_GT(reference.merges_folded(), 0);  // The fold is exercised.
    BestRanks best_rank;
    for (size_t i = 0; i < sample.detections.size(); ++i) {
      RecordRanks(sample.detections[i], 3, reference.CanonicalOf(raw_ids[i]), &best_rank);
    }
    ExpectIndexEquals(ReferenceIndex(table, best_rank), got.index);
  }
}

TEST(ShardedIngestPipelineTest, CallerSuppliedPoolMatchesPerCallPool) {
  const SyntheticStream stream = MakeStream(32, 16, 800, 23);
  const core::ClassifiedSample sample = MakeClassifiedSample(stream, 3);

  core::IngestParams params;
  params.k = 3;
  params.cluster_threshold = 0.5;

  core::IngestOptions options;
  options.cluster_mode = ClustererOptions::Mode::kExact;
  options.num_shards = 3;

  // Per-call pool (the default) vs one reusable pool across several runs — a
  // tuner-style caller re-running configurations. Outputs must be identical;
  // the pool only changes who executes the shard tasks.
  const core::IngestResult per_call = core::RunIngestClassified(sample, params, options);
  runtime::WorkerPool pool(static_cast<int>(options.num_shards),
                           /*queue_capacity=*/static_cast<size_t>(options.num_shards) * 2,
                           /*pop_batch=*/1);
  for (int rerun = 0; rerun < 3; ++rerun) {
    const core::IngestResult reused =
        core::RunIngestClassified(sample, params, options, nullptr, &pool);
    EXPECT_EQ(reused.detections, per_call.detections);
    EXPECT_EQ(reused.num_clusters, per_call.num_clusters);
    ExpectIndexEquals(per_call.index, reused.index);
  }
  pool.Shutdown();
}

TEST(ShardedClustererTest, RetiredClusterFoldsWithDuplicateCreatedAfterRetirement) {
  // Regression (ROADMAP: "retired clusters never merge"): shard A builds
  // cluster X for appearance V, X is retired by the active-set cap, and only
  // THEN does shard B first see V and build its own cluster Y. X is no longer
  // in A's active store, so before retired centroids became merge targets the
  // pair never folded; now Y's merge query finds X's frozen centroid and the
  // canonical table carries one cluster for V.
  ShardedClustererOptions opts;
  opts.base.threshold = 0.5;
  opts.base.mode = ClustererOptions::Mode::kExact;
  opts.base.max_active = 2;  // Tiny cap so X retires.
  opts.num_shards = 2;
  ShardedClusterer sharded(opts);

  // Pick object ids by their shard.
  auto object_in_shard = [&](size_t shard, common::ObjectId start) {
    common::ObjectId object = start;
    while (sharded.ShardOf(object) != shard) {
      ++object;
    }
    return object;
  };
  const common::ObjectId a0 = object_in_shard(0, 0);
  const common::ObjectId a1 = object_in_shard(0, a0 + 1);
  const common::ObjectId a2 = object_in_shard(0, a1 + 1);
  const common::ObjectId b0 = object_in_shard(1, 0);

  common::Pcg32 rng(0xBEEF);
  const common::FeatureVec v = common::RandomUnitVector(16, rng);
  const common::FeatureVec other1 = common::RandomUnitVector(16, rng);
  const common::FeatureVec other2 = common::RandomUnitVector(16, rng);

  // Shard 0: X for appearance V, then two bigger clusters; creating the third
  // at max_active=2 retires the (size, id)-smallest — X.
  const int64_t x = sharded.Add(Det(a0, 0), v);
  sharded.Add(Det(a1, 1), other1);
  sharded.Add(Det(a1, 2), other1);
  sharded.Add(Det(a2, 3), other2);
  sharded.Add(Det(a2, 4), other2);
  const size_t x_local = static_cast<size_t>(x / 2);
  ASSERT_FALSE(sharded.shard(0).clusters()[x_local].active) << "X must be retired";
  ASSERT_EQ(sharded.shard(0).retired_store().size(), 1u);

  // Shard 1: the duplicate appearance, only now.
  const int64_t y = sharded.Add(Det(b0, 5), v);
  ASSERT_NE(x, y);

  const std::vector<Cluster> table = sharded.FinalizeClusters();
  EXPECT_EQ(sharded.CanonicalOf(y), x) << "duplicate must fold onto the retired cluster";
  EXPECT_GE(sharded.merges_folded(), 1);

  int64_t total_size = 0;
  bool found_fold = false;
  for (const Cluster& c : table) {
    total_size += c.size;
    if (c.id == x) {
      found_fold = true;
      EXPECT_EQ(c.size, 2);  // X's detection + Y's.
      EXPECT_EQ(c.members.size(), 2u);
    }
    EXPECT_NE(c.id, y) << "Y must not appear as its own canonical cluster";
  }
  EXPECT_TRUE(found_fold);
  EXPECT_EQ(total_size, 6);  // All detections conserved through the fold.
}

TEST(ShardedIngestPipelineTest, FourShardsConserveIndexedDetections) {
  const SyntheticStream stream = MakeStream(48, 16, 900, 19);
  const core::ClassifiedSample sample = MakeClassifiedSample(stream, 3);

  core::IngestParams params;
  params.k = 3;
  params.cluster_threshold = 0.5;

  core::IngestOptions options;
  options.cluster_mode = ClustererOptions::Mode::kExact;
  options.num_shards = 4;

  const core::IngestResult result = core::RunIngestClassified(sample, params, options);
  EXPECT_EQ(result.detections, static_cast<int64_t>(sample.detections.size()));
  EXPECT_EQ(result.index.view().total_detections(), result.detections);
  EXPECT_GT(result.num_clusters, 0);

  // Deterministic under re-run (same sample, same sharding).
  const core::IngestResult again = core::RunIngestClassified(sample, params, options);
  EXPECT_EQ(again.num_clusters, result.num_clusters);
  ExpectIndexEquals(result.index, again.index);
}

TEST(ShardedIngestPipelineTest, ScratchClustererResetMatchesFreshRun) {
  // The tuner re-runs clustering over one sample with a warm scratch
  // clusterer; Reset must leave no state behind — across thresholds and shard
  // counts, in either direction.
  const SyntheticStream stream = MakeStream(40, 16, 900, 29);
  const core::ClassifiedSample sample = MakeClassifiedSample(stream, 3);
  ShardedClusterer scratch;
  for (int num_shards : {4, 1, 2, 4}) {
    for (double threshold : {0.4, 0.5}) {
      SCOPED_TRACE("shards=" + std::to_string(num_shards) +
                   " threshold=" + std::to_string(threshold));
      core::IngestParams params;
      params.k = 3;
      params.cluster_threshold = threshold;
      core::IngestOptions options;
      options.cluster_mode = ClustererOptions::Mode::kExact;
      options.num_shards = num_shards;
      options.finalize_every_frames = 100;
      const core::IngestResult fresh = core::RunIngestClassified(sample, params, options);
      const core::IngestResult reused =
          core::RunIngestClassified(sample, params, options, &scratch);
      EXPECT_EQ(reused.num_clusters, fresh.num_clusters);
      EXPECT_DOUBLE_EQ(reused.clusterer_fast_hit_rate, fresh.clusterer_fast_hit_rate);
      ExpectIndexEquals(fresh.index, reused.index);
    }
  }
}

// Accuracy above one shard (§6 targets: >= 95% precision and recall): a
// Table 1 stream tuned as usual, then ingested at four shards with boundary
// merges at a snapshot cadence, answers its dominant-class queries at the
// paper's targets.
TEST(ShardedIngestPipelineTest, FourShardIngestMeetsAccuracyTargets) {
  video::ClassCatalog catalog(42);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  video::StreamRun run(&catalog, profile, /*duration_sec=*/300.0, /*fps=*/30.0, 7);
  const cnn::Cnn gt(cnn::GtCnnDesc(catalog.world_seed()), &catalog);

  core::TunerOptions tuner_options;
  tuner_options.sample_sec = 90.0;
  tuner_options.k_grid = {4, 8};
  tuner_options.threshold_grid = {0.45, 0.6};
  tuner_options.ls_grid = {15};
  tuner_options.include_generic_models = false;
  tuner_options.ingest.num_shards = 4;
  const core::TuningResult tuning =
      core::ParameterTuner(&catalog, &gt, tuner_options)
          .Tune(run, profile.appearance_variability, core::AccuracyTarget{},
                core::Policy::kBalance);
  ASSERT_TRUE(tuning.found);
  const core::IngestParams params = tuning.chosen().params;

  core::IngestOptions options;
  options.num_shards = 4;
  options.finalize_every_frames = 256;
  const cnn::Cnn cheap(params.model, &catalog);
  const core::IngestResult ingest = core::RunIngest(run, cheap, params, options);

  const cnn::SegmentGroundTruth truth(run, gt);
  const core::AccuracyEvaluator evaluator(&truth, run.fps());
  const core::QueryEngine engine(&ingest.index, &cheap, &gt);
  const std::vector<common::ClassId> dominant = truth.DominantClasses(0.95, 12);
  ASSERT_FALSE(dominant.empty());
  double precision = 0.0;
  double recall = 0.0;
  for (common::ClassId cls : dominant) {
    const core::PrecisionRecall pr =
        evaluator.Evaluate(cls, engine.Query(cls, -1, {}, run.fps()));
    precision += pr.precision;
    recall += pr.recall;
  }
  precision /= static_cast<double>(dominant.size());
  recall /= static_cast<double>(dominant.size());
  EXPECT_GE(precision, 0.95);
  EXPECT_GE(recall, 0.95);
}

}  // namespace
}  // namespace focus::cluster
