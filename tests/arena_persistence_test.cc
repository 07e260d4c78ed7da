// Crash-recovery tests for the mmap-backed persistent clustering state: a
// ShardedClusterer recovered from its shard arenas + undo logs + sharded.meta
// must be indistinguishable from one that processed the same stream prefix
// without the crash — subsequent assignments, cluster tables, and (through
// the pipeline) the final top-K index are byte-identical to an uninterrupted
// run. The single-clusterer cases run a one-shard ShardedClusterer (the
// checkpoint protocol production runs) against a volatile
// IncrementalClusterer reference.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/incremental_clusterer.h"
#include "src/cluster/sharded_clusterer.h"
#include "src/cnn/model_zoo.h"
#include "src/common/feature_vector.h"
#include "src/common/rng.h"
#include "src/core/ingest_pipeline.h"
#include "src/storage/arena_file.h"
#include "src/video/stream_generator.h"

namespace focus::cluster {
namespace {

namespace fs = std::filesystem;

// A deterministic detection stream: noisy observations of well-separated unit
// archetypes, with object locality (every object sticks to one archetype) so
// the fast path, AddSuppressed, and member-run merging are all exercised.
struct SyntheticStream {
  std::vector<video::Detection> detections;
  std::vector<common::FeatureVec> features;
  std::vector<bool> suppressed;
};

SyntheticStream MakeStream(size_t n, size_t dim, size_t num_objects, size_t num_archetypes,
                           uint64_t seed) {
  common::Pcg32 rng(common::DeriveSeed(seed, 0xA7EA));
  std::vector<common::FeatureVec> archetypes;
  archetypes.reserve(num_archetypes);
  for (size_t a = 0; a < num_archetypes; ++a) {
    archetypes.push_back(common::RandomUnitVector(dim, rng));
  }
  SyntheticStream out;
  out.detections.reserve(n);
  out.features.reserve(n);
  out.suppressed.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t object = i % num_objects;
    video::Detection d;
    d.object_id = static_cast<common::ObjectId>(object);
    d.frame = static_cast<common::FrameIndex>(i / num_objects);
    out.detections.push_back(d);
    out.features.push_back(
        common::PerturbedUnitVector(archetypes[object % num_archetypes], 0.15, rng));
    // Every few repeat observations of an object ride the pixel-diff path.
    out.suppressed.push_back(i >= num_objects && (i % 5) == 0);
  }
  return out;
}

ClustererOptions SmallOptions(ClustererOptions::Mode mode) {
  ClustererOptions opts;
  opts.threshold = 0.5;
  opts.max_active = 24;  // Small cap so retirement (Remove + slot reuse) happens.
  opts.mode = mode;
  opts.lru_probes = 8;
  return opts;
}

// The persistent form of a lone clusterer: one shard, whose global ids,
// assignments and cluster table equal a volatile IncrementalClusterer's.
ShardedClustererOptions OneShard(ClustererOptions::Mode mode) {
  ShardedClustererOptions opts;
  opts.base = SmallOptions(mode);
  opts.num_shards = 1;
  return opts;
}

int64_t Feed(IncrementalClusterer& clusterer, const SyntheticStream& stream, size_t i) {
  return stream.suppressed[i]
             ? clusterer.AddSuppressed(stream.detections[i], stream.features[i])
             : clusterer.Add(stream.detections[i], stream.features[i]);
}

int64_t Feed(ShardedClusterer& clusterer, const SyntheticStream& stream, size_t i) {
  return stream.suppressed[i]
             ? clusterer.AddSuppressed(stream.detections[i], stream.features[i])
             : clusterer.Add(stream.detections[i], stream.features[i]);
}

void ExpectSameClusters(const std::vector<Cluster>& a, const std::vector<Cluster>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].size, b[i].size);
    EXPECT_EQ(a[i].active, b[i].active);
    EXPECT_EQ(a[i].centroid, b[i].centroid) << "cluster " << a[i].id;
    EXPECT_EQ(a[i].representative.object_id, b[i].representative.object_id);
    EXPECT_EQ(a[i].representative.frame, b[i].representative.frame);
    ASSERT_EQ(a[i].members.size(), b[i].members.size());
    for (size_t m = 0; m < a[i].members.size(); ++m) {
      EXPECT_EQ(a[i].members[m].object, b[i].members[m].object);
      EXPECT_EQ(a[i].members[m].first_frame, b[i].members[m].first_frame);
      EXPECT_EQ(a[i].members[m].last_frame, b[i].members[m].last_frame);
    }
  }
}

class ArenaPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("arena_persist_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Dir(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

// Simulates what a kernel crash leaves behind: garbage in the arena rows past
// the committed count (uncommitted appends partially flushed) and a torn,
// half-written frame at the undo log's tail (an append interrupted mid-write,
// whose row mutation therefore never executed).
void ScribbleCrashDebris(const std::string& arena_path, const std::string& undo_path) {
  auto arena = storage::ArenaFile::Open(arena_path);
  ASSERT_TRUE(arena.ok());
  if ((*arena)->initialized()) {
    std::vector<float> garbage((*arena)->dim(), 123456.75f);
    for (uint64_t row = (*arena)->committed_rows();
         row < std::min((*arena)->capacity_rows(), (*arena)->committed_rows() + 8); ++row) {
      (*arena)->WriteRow(row, -77, -77, -1.0f, garbage.data());
    }
  }
  std::ofstream f(undo_path, std::ios::binary | std::ios::app);
  f.write("\x80\x01\x00\x00\xde\xad", 6);  // Half a frame.
}

TEST_F(ArenaPersistenceTest, RecoveredAssignmentsByteIdenticalExactMode) {
  for (auto mode : {ClustererOptions::Mode::kExact, ClustererOptions::Mode::kFast}) {
    SCOPED_TRACE(mode == ClustererOptions::Mode::kExact ? "exact" : "fast");
    const std::string dir =
        Dir(mode == ClustererOptions::Mode::kExact ? "exact" : "fast");
    const SyntheticStream stream = MakeStream(1200, 32, 40, 12, 7);
    const size_t checkpoint_at = 500;
    const size_t crash_at = 800;

    // Reference: uninterrupted volatile run over the whole stream.
    IncrementalClusterer reference(SmallOptions(mode));
    std::vector<int64_t> ref_assignments(stream.detections.size());
    for (size_t i = 0; i < stream.detections.size(); ++i) {
      ref_assignments[i] = Feed(reference, stream, i);
    }

    // Persistent run: checkpoint mid-stream, keep mutating, crash (abandon).
    {
      auto victim = std::make_unique<ShardedClusterer>(OneShard(mode));
      auto recovery = victim->OpenOrRecover(dir);
      ASSERT_TRUE(recovery.ok());
      EXPECT_FALSE(recovery->recovered);
      for (size_t i = 0; i < checkpoint_at; ++i) {
        int64_t assigned = Feed(*victim, stream, i);
        ASSERT_EQ(assigned, ref_assignments[i]) << "pre-checkpoint divergence at " << i;
      }
      ASSERT_TRUE(victim->Checkpoint(static_cast<int64_t>(checkpoint_at)).ok());
      for (size_t i = checkpoint_at; i < crash_at; ++i) {
        Feed(*victim, stream, i);  // The doomed window past the checkpoint.
      }
      // Crash: no final checkpoint; the object is simply dropped.
    }
    ScribbleCrashDebris(dir + "/shard-0.arena", dir + "/shard-0.undo");

    // Recover and replay from the checkpointed position.
    ShardedClusterer recovered(OneShard(mode));
    auto recovery = recovered.OpenOrRecover(dir);
    ASSERT_TRUE(recovery.ok()) << recovery.error().message;
    ASSERT_TRUE(recovery->recovered);
    ASSERT_EQ(recovery->position, static_cast<int64_t>(checkpoint_at));
    for (size_t i = checkpoint_at; i < stream.detections.size(); ++i) {
      ASSERT_EQ(Feed(recovered, stream, i), ref_assignments[i])
          << "post-recovery divergence at " << i;
    }
    EXPECT_EQ(recovered.total_assignments(), reference.total_assignments());
    EXPECT_EQ(recovered.FastHitRate(), reference.FastHitRate());
    ExpectSameClusters(recovered.shard(0).clusters(), reference.clusters());
  }
}

// Exhaustive crash sweep, replacing hand-picked crash points: a 200-frame
// stream is crashed at *every* frame boundary — every prefix of the stream,
// checkpointed on its natural cadence, scribbled with crash debris, recovered,
// and replayed to the end — and every recovery must be byte-identical to the
// uninterrupted reference.
TEST_F(ArenaPersistenceTest, CrashAtEveryFrameResumesByteIdentical) {
  constexpr size_t kFrames = 200;
  constexpr size_t kObjectsPerFrame = 6;  // frame = i / num_objects in MakeStream.
  constexpr int64_t kCheckpointEveryFrames = 7;  // Deliberately off-cadence.
  const SyntheticStream stream =
      MakeStream(kFrames * kObjectsPerFrame, 16, kObjectsPerFrame, 4, 29);

  IncrementalClusterer reference(SmallOptions(ClustererOptions::Mode::kFast));
  std::vector<int64_t> ref_assignments(stream.detections.size());
  for (size_t i = 0; i < stream.detections.size(); ++i) {
    ref_assignments[i] = Feed(reference, stream, i);
  }

  for (size_t crash_frame = 0; crash_frame < kFrames; ++crash_frame) {
    const std::string dir = Dir("sweep-" + std::to_string(crash_frame));
    const size_t crash_at = crash_frame * kObjectsPerFrame;
    int64_t checkpointed_position = 0;
    {
      ShardedClusterer victim(OneShard(ClustererOptions::Mode::kFast));
      ASSERT_TRUE(victim.OpenOrRecover(dir).ok());
      for (size_t i = 0; i < crash_at; ++i) {
        Feed(victim, stream, i);
        const size_t next = i + 1;
        if (next % (kObjectsPerFrame * kCheckpointEveryFrames) == 0) {
          checkpointed_position = static_cast<int64_t>(next);
          ASSERT_TRUE(victim.Checkpoint(checkpointed_position).ok());
        }
      }
      // Crash: drop the victim mid-window, no final checkpoint.
    }
    ScribbleCrashDebris(dir + "/shard-0.arena", dir + "/shard-0.undo");

    ShardedClusterer recovered(OneShard(ClustererOptions::Mode::kFast));
    auto recovery = recovered.OpenOrRecover(dir);
    ASSERT_TRUE(recovery.ok()) << "crash frame " << crash_frame << ": "
                               << recovery.error().message;
    ASSERT_EQ(recovery->recovered, checkpointed_position > 0);
    ASSERT_EQ(recovery->position, checkpointed_position);
    for (size_t i = static_cast<size_t>(recovery->position); i < stream.detections.size();
         ++i) {
      ASSERT_EQ(Feed(recovered, stream, i), ref_assignments[i])
          << "crash frame " << crash_frame << ", divergence at " << i;
    }
    ASSERT_EQ(recovered.total_assignments(), reference.total_assignments());
    ExpectSameClusters(recovered.shard(0).clusters(), reference.clusters());
    fs::remove_all(dir);  // Keep the sweep's disk footprint one dir at a time.
  }
}

// Torn-tail sweep: the undo log is truncated at *every byte offset* spanning
// the last record appended before the crash — every torn tail a kernel crash
// can actually leave. Appends are write-ahead: the guarded row mutation only
// executes after the append returns, so a crash tearing the append leaves the
// arena in its pre-mutation state — the debris is therefore captured *before*
// the last logging feed, with the undo tail replayed on top at every cut.
// Each truncation must recover to the checkpoint and replay byte-identically.
TEST_F(ArenaPersistenceTest, TruncatedUndoTailAtEveryByteOffsetRecovers) {
  const SyntheticStream stream = MakeStream(900, 16, 30, 8, 33);
  const size_t checkpoint_at = 600;

  IncrementalClusterer reference(SmallOptions(ClustererOptions::Mode::kExact));
  std::vector<int64_t> ref_assignments(stream.detections.size());
  for (size_t i = 0; i < stream.detections.size(); ++i) {
    ref_assignments[i] = Feed(reference, stream, i);
  }

  const std::string dir = Dir("undo-sweep");
  const std::string undo_path = dir + "/shard-0.undo";
  const std::string base = Dir("undo-sweep-base");      // State before the last append.
  const std::string staging = Dir("undo-sweep-staging");
  std::string undo_after;  // Full undo contents right after the last append.
  {
    ShardedClusterer victim(OneShard(ClustererOptions::Mode::kExact));
    ASSERT_TRUE(victim.OpenOrRecover(dir).ok());
    for (size_t i = 0; i < checkpoint_at; ++i) {
      Feed(victim, stream, i);
    }
    ASSERT_TRUE(victim.Checkpoint(static_cast<int64_t>(checkpoint_at)).ok());
    // Mutate into the fresh undo window. Pre-images log once per row per
    // window, so not every feed appends; keep the pre-feed state of the *last*
    // feed that did (the writer flushes per append, and mmap'd arena writes
    // read back through the file, so mid-run copies are exact).
    auto read_file = [](const std::string& path) {
      std::ifstream in(path, std::ios::binary);
      return std::string(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
    };
    for (size_t i = checkpoint_at; i < checkpoint_at + 120; ++i) {
      fs::remove_all(staging);
      fs::copy(dir, staging, fs::copy_options::recursive);
      const uintmax_t before = fs::file_size(undo_path);
      Feed(victim, stream, i);
      if (fs::file_size(undo_path) > before) {
        fs::remove_all(base);
        fs::rename(staging, base);
        undo_after = read_file(undo_path);
      }
    }
    fs::remove_all(staging);
    // Crash.
  }
  ASSERT_TRUE(fs::exists(base)) << "no feed logged a pre-image";
  const uintmax_t base_undo_size = fs::file_size(base + "/shard-0.undo");
  ASSERT_GT(undo_after.size(), base_undo_size);

  for (uintmax_t cut = base_undo_size; cut <= undo_after.size(); ++cut) {
    fs::remove_all(dir);
    fs::copy(base, dir, fs::copy_options::recursive);
    std::ofstream undo(undo_path, std::ios::binary | std::ios::trunc);
    undo.write(undo_after.data(), static_cast<std::streamsize>(cut));
    undo.close();

    ShardedClusterer recovered(OneShard(ClustererOptions::Mode::kExact));
    auto recovery = recovered.OpenOrRecover(dir);
    ASSERT_TRUE(recovery.ok()) << "cut " << cut << ": " << recovery.error().message;
    ASSERT_TRUE(recovery->recovered);
    ASSERT_EQ(recovery->position, static_cast<int64_t>(checkpoint_at));
    for (size_t i = checkpoint_at; i < stream.detections.size(); ++i) {
      ASSERT_EQ(Feed(recovered, stream, i), ref_assignments[i])
          << "cut " << cut << ", divergence at " << i;
    }
    ExpectSameClusters(recovered.shard(0).clusters(), reference.clusters());
  }
  fs::remove_all(base);
}

TEST_F(ArenaPersistenceTest, CrashBeforeFirstCheckpointRecoversFresh) {
  const std::string dir = Dir("nocheckpoint");
  const SyntheticStream stream = MakeStream(200, 16, 10, 4, 11);
  {
    ShardedClusterer victim(OneShard(ClustererOptions::Mode::kExact));
    auto recovery = victim.OpenOrRecover(dir);
    ASSERT_TRUE(recovery.ok());
    for (size_t i = 0; i < stream.detections.size(); ++i) {
      Feed(victim, stream, i);
    }
    // Crash before any Checkpoint: nothing was committed.
  }
  ShardedClusterer recovered(OneShard(ClustererOptions::Mode::kExact));
  auto recovery = recovered.OpenOrRecover(dir);
  ASSERT_TRUE(recovery.ok());
  EXPECT_FALSE(recovery->recovered);
  EXPECT_EQ(recovery->position, 0);
  EXPECT_EQ(recovered.shard(0).num_clusters(), 0u);
}

TEST_F(ArenaPersistenceTest, EmptyCheckpointRoundTrips) {
  const std::string dir = Dir("empty");
  {
    ShardedClusterer victim(OneShard(ClustererOptions::Mode::kExact));
    ASSERT_TRUE(victim.OpenOrRecover(dir).ok());
    // Checkpoint before the first detection ever arrives (an idle stream).
    ASSERT_TRUE(victim.Checkpoint(0).ok());
  }
  ShardedClusterer recovered(OneShard(ClustererOptions::Mode::kExact));
  auto recovery = recovered.OpenOrRecover(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.error().message;
  EXPECT_TRUE(recovery->recovered);
  EXPECT_EQ(recovery->position, 0);
  EXPECT_EQ(recovered.shard(0).num_clusters(), 0u);
  // And it keeps working after recovery.
  const SyntheticStream stream = MakeStream(50, 16, 5, 2, 3);
  for (size_t i = 0; i < stream.detections.size(); ++i) {
    Feed(recovered, stream, i);
  }
  EXPECT_GT(recovered.shard(0).num_clusters(), 0u);
}

TEST_F(ArenaPersistenceTest, FirstDetectionAfterEmptyCheckpointRecovers) {
  // The crash window that used to brick recovery: a checkpoint commits the
  // *empty* state (generation 0, arena still uninitialized), the first
  // detection then initializes the arena, and the worker crashes before the
  // next checkpoint. Recovery must roll the initialized-but-uncommitted arena
  // back to the empty checkpoint, not refuse it as corruption.
  const std::string dir = Dir("late-first-add");
  const SyntheticStream stream = MakeStream(300, 16, 12, 4, 21);
  {
    ShardedClusterer victim(OneShard(ClustererOptions::Mode::kExact));
    ASSERT_TRUE(victim.OpenOrRecover(dir).ok());
    ASSERT_TRUE(victim.Checkpoint(0).ok());  // Idle stream: empty checkpoint.
    for (size_t i = 0; i < stream.detections.size(); ++i) {
      Feed(victim, stream, i);  // Arena initialized + grown, never committed.
    }
    // Crash.
  }
  IncrementalClusterer reference(SmallOptions(ClustererOptions::Mode::kExact));
  ShardedClusterer recovered(OneShard(ClustererOptions::Mode::kExact));
  auto recovery = recovered.OpenOrRecover(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.error().message;
  EXPECT_TRUE(recovery->recovered);
  EXPECT_EQ(recovery->position, 0);
  EXPECT_EQ(recovered.shard(0).num_clusters(), 0u);
  for (size_t i = 0; i < stream.detections.size(); ++i) {
    ASSERT_EQ(Feed(recovered, stream, i), Feed(reference, stream, i)) << "at " << i;
  }
  ExpectSameClusters(recovered.shard(0).clusters(), reference.clusters());

  // Same window at the sharded layer: shard 4's meta records generation 0 for
  // any shard whose first object arrives after a checkpoint.
  ShardedClustererOptions sopts;
  sopts.base = SmallOptions(ClustererOptions::Mode::kExact);
  sopts.num_shards = 4;
  const std::string sdir = Dir("late-first-add-sharded");
  {
    ShardedClusterer victim(sopts);
    ASSERT_TRUE(victim.OpenOrRecover(sdir).ok());
    ASSERT_TRUE(victim.Checkpoint(0).ok());
    for (size_t i = 0; i < stream.detections.size(); ++i) {
      Feed(victim, stream, i);
    }
    // Crash.
  }
  ShardedClusterer sharded_reference(sopts);
  ShardedClusterer sharded_recovered(sopts);
  auto sharded_recovery = sharded_recovered.OpenOrRecover(sdir);
  ASSERT_TRUE(sharded_recovery.ok()) << sharded_recovery.error().message;
  EXPECT_EQ(sharded_recovery->position, 0);
  for (size_t i = 0; i < stream.detections.size(); ++i) {
    ASSERT_EQ(Feed(sharded_recovered, stream, i), Feed(sharded_reference, stream, i));
  }
  ExpectSameClusters(sharded_recovered.FinalizeClusters(), sharded_reference.FinalizeClusters());
}

TEST_F(ArenaPersistenceTest, CrashBetweenMetaCommitAndLogRotationRecovers) {
  // The checkpoint sequence is commit header -> write meta (the commit point)
  // -> rotate undo log. A crash between the last two leaves the *previous*
  // window's marker and pre-images in the log while header and meta already
  // describe the new checkpoint; recovery must treat those records as stale
  // (they are baked into the commit), not as corruption.
  const std::string dir = Dir("pre-rotation-crash");
  const SyntheticStream stream = MakeStream(900, 16, 30, 8, 17);
  const size_t first_checkpoint = 300;
  const size_t second_checkpoint = 600;

  IncrementalClusterer reference(SmallOptions(ClustererOptions::Mode::kExact));
  std::vector<int64_t> ref_assignments(stream.detections.size());
  for (size_t i = 0; i < stream.detections.size(); ++i) {
    ref_assignments[i] = Feed(reference, stream, i);
  }

  const std::string undo_path = dir + "/shard-0.undo";
  const std::string undo_backup = dir + "/shard-0.undo.prerotation";
  {
    ShardedClusterer victim(OneShard(ClustererOptions::Mode::kExact));
    ASSERT_TRUE(victim.OpenOrRecover(dir).ok());
    for (size_t i = 0; i < first_checkpoint; ++i) {
      Feed(victim, stream, i);
    }
    ASSERT_TRUE(victim.Checkpoint(static_cast<int64_t>(first_checkpoint)).ok());
    for (size_t i = first_checkpoint; i < second_checkpoint; ++i) {
      Feed(victim, stream, i);  // Logs pre-images into the first window.
    }
    fs::copy_file(undo_path, undo_backup);  // The log as of just before rotation.
    ASSERT_TRUE(victim.Checkpoint(static_cast<int64_t>(second_checkpoint)).ok());
  }
  // Simulate the crash window: header + meta describe the second checkpoint,
  // but the undo log was never rotated.
  fs::copy_file(undo_backup, undo_path, fs::copy_options::overwrite_existing);
  fs::remove(undo_backup);

  ShardedClusterer recovered(OneShard(ClustererOptions::Mode::kExact));
  auto recovery = recovered.OpenOrRecover(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.error().message;
  ASSERT_TRUE(recovery->recovered);
  ASSERT_EQ(recovery->position, static_cast<int64_t>(second_checkpoint));
  for (size_t i = second_checkpoint; i < stream.detections.size(); ++i) {
    ASSERT_EQ(Feed(recovered, stream, i), ref_assignments[i]) << "at " << i;
  }
  ExpectSameClusters(recovered.shard(0).clusters(), reference.clusters());
}

TEST_F(ArenaPersistenceTest, MismatchedOptionsRefuseRecovery) {
  const std::string dir = Dir("mismatch");
  {
    ShardedClusterer victim(OneShard(ClustererOptions::Mode::kExact));
    ASSERT_TRUE(victim.OpenOrRecover(dir).ok());
    const SyntheticStream stream = MakeStream(100, 16, 10, 4, 5);
    for (size_t i = 0; i < stream.detections.size(); ++i) {
      Feed(victim, stream, i);
    }
    ASSERT_TRUE(victim.Checkpoint(100).ok());
  }
  ShardedClustererOptions different = OneShard(ClustererOptions::Mode::kExact);
  different.base.threshold = 0.7;  // Not what the checkpoint was built with.
  ShardedClusterer recovered(different);
  auto recovery = recovered.OpenOrRecover(dir);
  ASSERT_FALSE(recovery.ok());
  EXPECT_EQ(recovery.error().code, common::ErrorCode::kFailedPrecondition);
}

TEST_F(ArenaPersistenceTest, ShardedRecoveryByteIdenticalAtFourShards) {
  const std::string dir = Dir("sharded");
  const SyntheticStream stream = MakeStream(2000, 32, 60, 10, 13);
  const size_t checkpoint_at = 900;
  const size_t crash_at = 1400;

  ShardedClustererOptions sopts;
  sopts.base = SmallOptions(ClustererOptions::Mode::kFast);
  sopts.num_shards = 4;

  ShardedClusterer reference(sopts);
  std::vector<int64_t> ref_assignments(stream.detections.size());
  for (size_t i = 0; i < stream.detections.size(); ++i) {
    ref_assignments[i] = Feed(reference, stream, i);
  }

  {
    auto victim = std::make_unique<ShardedClusterer>(sopts);
    auto recovery = victim->OpenOrRecover(dir);
    ASSERT_TRUE(recovery.ok());
    EXPECT_FALSE(recovery->recovered);
    for (size_t i = 0; i < checkpoint_at; ++i) {
      ASSERT_EQ(Feed(*victim, stream, i), ref_assignments[i]);
    }
    ASSERT_TRUE(victim->Checkpoint(static_cast<int64_t>(checkpoint_at), "cursor-blob").ok());
    for (size_t i = checkpoint_at; i < crash_at; ++i) {
      Feed(*victim, stream, i);
    }
    // Crash mid-window.
  }
  for (size_t s = 0; s < sopts.num_shards; ++s) {
    ScribbleCrashDebris(dir + "/shard-" + std::to_string(s) + ".arena",
                        dir + "/shard-" + std::to_string(s) + ".undo");
  }

  ShardedClusterer recovered(sopts);
  auto recovery = recovered.OpenOrRecover(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.error().message;
  ASSERT_TRUE(recovery->recovered);
  EXPECT_EQ(recovery->position, static_cast<int64_t>(checkpoint_at));
  EXPECT_EQ(recovery->user_state, "cursor-blob");
  for (size_t i = checkpoint_at; i < stream.detections.size(); ++i) {
    ASSERT_EQ(Feed(recovered, stream, i), ref_assignments[i])
        << "post-recovery divergence at " << i;
  }
  EXPECT_EQ(recovered.total_assignments(), reference.total_assignments());
  EXPECT_EQ(recovered.merges_folded(), reference.merges_folded());

  std::vector<Cluster> ref_table = reference.FinalizeClusters();
  std::vector<Cluster> rec_table = recovered.FinalizeClusters();
  ExpectSameClusters(rec_table, ref_table);
}

class PipelinePersistenceTest : public ArenaPersistenceTest {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new video::ClassCatalog(17);
    video::StreamProfile profile;
    ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
    run_ = new video::StreamRun(catalog_, profile, 60.0, 30.0, 3);
  }
  static void TearDownTestSuite() {
    delete run_;
    delete catalog_;
    run_ = nullptr;
    catalog_ = nullptr;
  }

  static core::IngestParams Params() {
    core::IngestParams params;
    params.model = cnn::GenericCheapCandidates(5)[1];
    params.k = 3;
    params.cluster_threshold = 0.6;
    return params;
  }

  static void ExpectSameResult(const core::IngestResult& a, const core::IngestResult& b) {
    EXPECT_EQ(a.detections, b.detections);
    EXPECT_EQ(a.cnn_invocations, b.cnn_invocations);
    EXPECT_EQ(a.suppressed, b.suppressed);
    EXPECT_DOUBLE_EQ(a.gpu_millis, b.gpu_millis);
    EXPECT_EQ(a.num_clusters, b.num_clusters);
    ASSERT_EQ(a.index.num_clusters(), b.index.num_clusters());
    EXPECT_TRUE(a.index.image() == b.index.image()) << "index images differ";
  }

  static video::ClassCatalog* catalog_;
  static video::StreamRun* run_;
};

video::ClassCatalog* PipelinePersistenceTest::catalog_ = nullptr;
video::StreamRun* PipelinePersistenceTest::run_ = nullptr;

TEST_F(PipelinePersistenceTest, ResumedIngestMatchesUninterruptedAndVolatile) {
  for (int num_shards : {1, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    cnn::Cnn cheap(Params().model, catalog_);

    core::IngestOptions volatile_opts;
    volatile_opts.num_shards = num_shards;
    const core::IngestResult plain = core::RunIngest(*run_, cheap, Params(), volatile_opts);

    core::IngestOptions persist_opts = volatile_opts;
    persist_opts.checkpoint_every_frames = 300;
    persist_opts.persist_dir = Dir("uninterrupted-" + std::to_string(num_shards));
    const core::IngestResult uninterrupted =
        core::RunIngest(*run_, cheap, Params(), persist_opts);
    EXPECT_EQ(uninterrupted.resumed_from_frame, 0);
    // The persistent path must not change results vs volatile ingest.
    ExpectSameResult(uninterrupted, plain);

    // Crash at mid-stream, then resume: byte-identical to uninterrupted.
    core::IngestOptions crash_opts = persist_opts;
    crash_opts.persist_dir = Dir("crashed-" + std::to_string(num_shards));
    crash_opts.crash_after_frames = run_->num_frames() / 2;
    const core::IngestResult partial =
        core::RunIngest(*run_, cheap, Params(), crash_opts);
    EXPECT_EQ(partial.index.num_clusters(), 0u);  // Crashed: nothing finalized.

    core::IngestOptions resume_opts = crash_opts;
    resume_opts.crash_after_frames = -1;
    const core::IngestResult resumed =
        core::RunIngest(*run_, cheap, Params(), resume_opts);
    EXPECT_GT(resumed.resumed_from_frame, 0);
    ExpectSameResult(resumed, uninterrupted);

    // Re-running a sealed stream is a no-op resume with the same result.
    const core::IngestResult rerun =
        core::RunIngest(*run_, cheap, Params(), resume_opts);
    EXPECT_EQ(rerun.resumed_from_frame, run_->num_frames());
    ExpectSameResult(rerun, uninterrupted);
  }
}

TEST_F(PipelinePersistenceTest, PooledShardDispatchIsDeterministicAcrossRuns) {
  // Sharded resumable ingest dispatches each frame's assignments through a
  // WorkerPool (one ordered task per shard). The object-id partition fixes
  // every shard's input subsequence, so thread interleaving must not leak into
  // the output: repeated runs are byte-identical to each other and to the
  // volatile sharded path, at 1 and 4 shards.
  for (int num_shards : {1, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    cnn::Cnn cheap(Params().model, catalog_);
    core::IngestOptions volatile_opts;
    volatile_opts.num_shards = num_shards;
    const core::IngestResult plain = core::RunIngest(*run_, cheap, Params(), volatile_opts);

    core::IngestOptions persist_opts = volatile_opts;
    persist_opts.checkpoint_every_frames = 150;
    core::IngestResult first;
    for (int attempt = 0; attempt < 2; ++attempt) {
      persist_opts.persist_dir = Dir("pooled-" + std::to_string(num_shards) + "-" +
                                     std::to_string(attempt));
      const core::IngestResult run =
          core::RunIngest(*run_, cheap, Params(), persist_opts);
      ExpectSameResult(run, plain);
      if (attempt == 0) {
        first = run;
      } else {
        ExpectSameResult(run, first);
      }
    }
  }
}

TEST_F(PipelinePersistenceTest, TightCheckpointCadenceStaysByteIdentical) {
  // checkpoint_every_frames at or below the reuse-map eviction gap: the
  // post-resume eviction sweeps run before a long-idle (but still live-mapped)
  // entry would naturally re-register, so the recovered run must see the same
  // idle gaps — last_seen is checkpointed with the maps.
  cnn::Cnn cheap(Params().model, catalog_);
  core::IngestOptions opts;
  opts.checkpoint_every_frames = 6;  // <= the eviction gap of 8.
  opts.persist_dir = Dir("tight-uninterrupted");
  const core::IngestResult uninterrupted =
      core::RunIngest(*run_, cheap, Params(), opts);

  core::IngestOptions crash_opts = opts;
  crash_opts.persist_dir = Dir("tight-crashed");
  crash_opts.crash_after_frames = run_->num_frames() / 2;
  core::RunIngest(*run_, cheap, Params(), crash_opts);
  crash_opts.crash_after_frames = -1;
  const core::IngestResult resumed =
      core::RunIngest(*run_, cheap, Params(), crash_opts);
  EXPECT_GT(resumed.resumed_from_frame, 0);
  ExpectSameResult(resumed, uninterrupted);
}

}  // namespace
}  // namespace focus::cluster
