// Shared-memory epoch plane + crash-isolated query workers
// (src/shm/epoch_plane.h, src/runtime/worker_process_pool.h,
// docs/shm_serving.md).
//
// The load-bearing property: a query answered from the mapped plane in
// another process — cold, with models rebuilt from the header's seed
// provenance alone — is byte-identical to core::QueryEngine against the
// in-process snapshot of the same epoch, across advancing epochs. Around it:
// the pin protocol (a pinned epoch's bytes survive arbitrary publishes; a
// forced eviction is detectable), the torn-header fallback, and the crash
// model (a SIGKILL'd reader never stalls ingest; its pin is reclaimed; a
// sibling keeps answering identically).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/cnn/ground_truth.h"
#include "src/cnn/model_zoo.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/live_snapshot.h"
#include "src/core/query_engine.h"
#include "src/runtime/metrics.h"
#include "src/runtime/worker_process_pool.h"
#include "src/shm/epoch_plane.h"
#include "src/shm/shm_segment.h"
#include "src/video/stream_generator.h"

namespace focus::shm {
namespace {

core::IngestParams Params() {
  core::IngestParams params;
  params.model = cnn::GenericCheapCandidates(5)[1];
  params.k = 3;
  params.cluster_threshold = 0.6;
  return params;
}

ShmModelProvenance Provenance() {
  ShmModelProvenance p;
  p.world_seed = 23;
  p.cheap_weights_seed = 5;
  p.cheap_candidate_index = 1;
  p.gt_weights_seed = 23;
  return p;
}

// Unique per test case so parallel ctest shards never collide.
std::string SegmentName(const std::string& tag) {
  return "/focus_shm_test_" + tag + "_" + std::to_string(::getpid());
}

// Exact textual encoding of a QueryResult (hexfloat for the GPU accounting),
// so byte-identity survives a trip over the worker RPC as string equality.
std::string EncodeResult(const core::QueryResult& r) {
  std::ostringstream out;
  out << r.queried << ' ' << r.centroids_classified << ' ' << r.clusters_matched << ' '
      << r.frames_returned << ' ' << std::hexfloat << r.gpu_millis;
  for (const auto& [first, last] : r.frame_runs) {
    out << ' ' << first << ':' << last;
  }
  return out.str();
}

// The query mix the identity tests sweep: the classes the epoch actually
// indexed (plus one guaranteed miss), each at several Kx and range settings.
struct QuerySpec {
  common::ClassId cls;
  int kx;
  common::TimeRange range;
};

std::vector<QuerySpec> SpecsFor(const core::LiveSnapshot& snapshot) {
  std::set<common::ClassId> classes;
  const index::IndexView view = snapshot.index.view();
  for (uint64_t id = 0; id < view.num_clusters(); ++id) {
    for (const index::RankedClass& c : view.classes(id)) {
      classes.insert(c.cls);
    }
    if (classes.size() >= 6) {
      break;
    }
  }
  classes.insert(video::kNumClasses - 1);  // Near-certain miss: empty plan path.
  std::vector<QuerySpec> specs;
  int i = 0;
  for (common::ClassId c : classes) {
    specs.push_back({c, -1, {}});
    if (i % 2 == 0) {
      specs.push_back({c, 1, {}});
      specs.push_back({c, -1, {2.0, 9.0}});
    }
    ++i;
  }
  return specs;
}

void ExpectSameResult(const core::QueryResult& want, const core::QueryResult& got) {
  EXPECT_EQ(want.queried, got.queried);
  EXPECT_EQ(want.frame_runs, got.frame_runs);
  EXPECT_EQ(want.centroids_classified, got.centroids_classified);
  EXPECT_EQ(want.clusters_matched, got.clusters_matched);
  EXPECT_EQ(want.frames_returned, got.frames_returned);
  EXPECT_EQ(want.gpu_millis, got.gpu_millis);  // Exact: same deterministic terms.
}

// Publishes every live epoch of a short classified run into |publisher| and
// returns the snapshots in publish order.
std::vector<std::shared_ptr<const core::LiveSnapshot>> PublishRun(
    EpochPublisher* publisher, double duration_sec, uint64_t stream_seed,
    const std::function<void(const core::LiveSnapshot&)>& after_publish = nullptr) {
  video::ClassCatalog catalog(23);
  video::StreamProfile profile;
  if (!video::FindProfile("auburn_c", &profile)) {
    ADD_FAILURE() << "missing profile";
    return {};
  }
  const core::IngestParams params = Params();
  cnn::Cnn cheap(params.model, &catalog);
  video::StreamRun run(&catalog, profile, duration_sec, /*fps=*/30.0, stream_seed);
  const core::ClassifiedSample sample = core::ClassifySample(run, cheap, params.k);

  std::vector<std::shared_ptr<const core::LiveSnapshot>> snapshots;
  uint64_t expected_generation = publisher->stats().published_generation;
  core::IngestOptions options;
  options.finalize_every_frames = 60;
  options.snapshot_sink = [&](std::shared_ptr<const core::LiveSnapshot> snap) {
    auto published = publisher->Publish(*snap);
    EXPECT_TRUE(published.ok()) << "epoch " << snap->epoch;
    if (published.ok()) {
      EXPECT_EQ(*published, ++expected_generation);  // Dense, monotone generations.
    }
    snapshots.push_back(snap);
    if (after_publish) {
      after_publish(*snap);
    }
  };
  core::RunIngestClassified(sample, params, options);
  return snapshots;
}

// State a worker process builds lazily on its first request: its own reader
// slot and the models rebuilt from the plane's seed provenance — nothing is
// inherited from the parent but the segment name.
struct WorkerState {
  std::string segment;
  runtime::MetricsRegistry metrics;
  std::unique_ptr<ShmSnapshotReader> reader;
  std::unique_ptr<video::ClassCatalog> catalog;
  std::unique_ptr<cnn::Cnn> cheap;
  std::unique_ptr<cnn::Cnn> gt;
  std::optional<ShmEpochView> held;

  std::string EnsureAttached() {
    if (reader != nullptr) {
      return "";
    }
    auto attached = ShmSnapshotReader::Attach(segment, &metrics);
    if (!attached.ok()) {
      return "ERR attach: " + attached.error().message;
    }
    reader = std::move(*attached);
    auto provenance = reader->Provenance();
    if (!provenance.ok()) {
      return "ERR provenance: " + provenance.error().message;
    }
    catalog = std::make_unique<video::ClassCatalog>(provenance->world_seed);
    cheap = std::make_unique<cnn::Cnn>(
        cnn::GenericCheapCandidates(
            provenance->cheap_weights_seed)[provenance->cheap_candidate_index],
        catalog.get());
    gt = std::make_unique<cnn::Cnn>(cnn::GtCnnDesc(provenance->gt_weights_seed),
                                    catalog.get());
    return "";
  }

  // "QUERY <cls> <kx> <begin> <end>" -> "<generation> <encoded result>"
  // "HOLD"                           -> "<pinned generation>" (view kept alive)
  // "RELEASE"                        -> "ok"
  std::string Handle(const std::string& request) {
    if (std::string err = EnsureAttached(); !err.empty()) {
      return err;
    }
    std::istringstream in(request);
    std::string op;
    in >> op;
    if (op == "HOLD") {
      auto view = reader->Acquire();
      if (!view.ok()) {
        return "ERR acquire: " + view.error().message;
      }
      held.emplace(std::move(*view));
      return std::to_string(held->generation());
    }
    if (op == "RELEASE") {
      held.reset();
      return "ok";
    }
    if (op != "QUERY") {
      return "ERR bad op " + op;
    }
    common::ClassId cls = 0;
    int kx = -1;
    common::TimeRange range;
    in >> cls >> kx >> range.begin_sec >> range.end_sec;
    auto view = reader->Acquire();
    if (!view.ok()) {
      return "ERR acquire: " + view.error().message;
    }
    const core::QueryResult result = view->Query(cls, kx, range, *cheap, *gt);
    if (!view->StillValid()) {
      return "ERR evicted mid-scan";
    }
    return std::to_string(view->generation()) + " " + EncodeResult(result);
  }
};

std::string QueryLine(const QuerySpec& spec) {
  std::ostringstream out;
  out << "QUERY " << spec.cls << ' ' << spec.kx << ' ' << std::hexfloat
      << spec.range.begin_sec << ' ' << spec.range.end_sec;
  return out.str();
}

TEST(ShmEpochPlaneTest, PublishAttachRoundtripsHeaderAndStats) {
  const std::string name = SegmentName("roundtrip");
  runtime::MetricsRegistry metrics;
  EpochPublisher::Options options;
  options.provenance = Provenance();
  auto publisher = EpochPublisher::Create(name, options, &metrics);
  ASSERT_TRUE(publisher.ok()) << publisher.error().message;
  (*publisher)->UnlinkOnDestroy(true);

  const auto snapshots = PublishRun(publisher->get(), /*duration_sec=*/8.0, /*seed=*/11);
  ASSERT_GE(snapshots.size(), 3u);

  auto reader = ShmSnapshotReader::Attach(name, &metrics);
  ASSERT_TRUE(reader.ok()) << reader.error().message;
  auto view = (*reader)->Acquire();
  ASSERT_TRUE(view.ok()) << view.error().message;

  const core::LiveSnapshot& last = *snapshots.back();
  EXPECT_EQ(view->epoch(), last.epoch);
  EXPECT_EQ(view->watermark(), last.watermark);
  EXPECT_DOUBLE_EQ(view->fps(), last.fps);
  EXPECT_EQ(view->num_clusters(), last.index.num_clusters());
  EXPECT_EQ(view->detections(), last.detections);
  EXPECT_EQ(view->header().entries_reused, last.stats.entries_reused);
  EXPECT_EQ(view->header().entries_rebuilt, last.stats.entries_rebuilt);
  EXPECT_TRUE(view->StillValid());

  auto provenance = (*reader)->Provenance();
  ASSERT_TRUE(provenance.ok());
  EXPECT_EQ(provenance->world_seed, 23u);
  EXPECT_EQ(provenance->cheap_weights_seed, 5u);
  EXPECT_EQ(provenance->cheap_candidate_index, 1u);
  EXPECT_EQ(provenance->gt_weights_seed, 23u);

  const ShmPlaneStats stats = (*publisher)->stats();
  EXPECT_EQ(stats.epochs_published, snapshots.size());
  EXPECT_EQ(stats.published_generation, snapshots.size());
  EXPECT_EQ(stats.reader_attaches, 1u);
  EXPECT_EQ(stats.live_readers, 1u);
  EXPECT_EQ(stats.pin_violations, 0u);
  EXPECT_GT(stats.arena_used_bytes, 0u);
  EXPECT_EQ(metrics.counter("shm.epochs_published"),
            static_cast<int64_t>(snapshots.size()));
  EXPECT_EQ(metrics.counter("shm.reader_attaches"), 1);

  // The region holds the snapshot's index image, byte for byte.
  const std::span<const char> mapped = view->index().bytes();
  EXPECT_TRUE(std::equal(mapped.begin(), mapped.end(), last.index.image().begin(),
                         last.index.image().end()));
  EXPECT_EQ(view->header().payload_crc, last.index.view().crc());
}

// The identity property, in-process half: every published epoch answers the
// full query mix off the mapping byte-identically to core::QueryEngine over
// the same snapshot — while epochs keep advancing underneath.
TEST(ShmEpochPlaneTest, MappedQueryByteIdenticalAcrossAdvancingEpochs) {
  const std::string name = SegmentName("identity");
  EpochPublisher::Options options;
  options.provenance = Provenance();
  auto publisher = EpochPublisher::Create(name, options);
  ASSERT_TRUE(publisher.ok()) << publisher.error().message;
  (*publisher)->UnlinkOnDestroy(true);

  video::ClassCatalog catalog(23);
  const core::IngestParams params = Params();
  cnn::Cnn cheap(params.model, &catalog);
  cnn::Cnn gt(cnn::GtCnnDesc(catalog.world_seed()), &catalog);

  auto reader = ShmSnapshotReader::Attach(name);
  // Attaching before the first publish is an error only for Acquire, not
  // Attach — the slot claim is independent of published state.
  ASSERT_TRUE(reader.ok()) << reader.error().message;
  EXPECT_FALSE((*reader)->Acquire().ok());  // No epoch yet.

  int epochs_checked = 0;
  int queries_checked = 0;
  PublishRun(publisher->get(), /*duration_sec=*/12.0, /*seed=*/7,
             [&](const core::LiveSnapshot& snap) {
               auto view = (*reader)->Acquire();
               ASSERT_TRUE(view.ok()) << view.error().message;
               EXPECT_EQ(view->epoch(), snap.epoch);
               const core::QueryEngine engine(&snap, &cheap, &gt);
               for (const QuerySpec& spec : SpecsFor(snap)) {
                 const core::QueryResult want =
                     engine.Query(spec.cls, spec.kx, spec.range, snap.fps);
                 const core::QueryResult got =
                     view->Query(spec.cls, spec.kx, spec.range, cheap, gt);
                 ExpectSameResult(want, got);
                 ++queries_checked;
               }
               ++epochs_checked;
             });
  EXPECT_GE(epochs_checked, 4);
  EXPECT_GT(queries_checked, 20);
}

// The identity property, cross-process half: worker processes attach cold,
// rebuild catalog and CNNs from the header provenance alone, and answer the
// advancing plane byte-identically to the in-process engine.
TEST(ShmEpochPlaneTest, CrossProcessColdWorkerAnswersByteIdentically) {
  const std::string name = SegmentName("xproc");
  EpochPublisher::Options options;
  options.provenance = Provenance();
  auto publisher = EpochPublisher::Create(name, options);
  ASSERT_TRUE(publisher.ok()) << publisher.error().message;
  (*publisher)->UnlinkOnDestroy(true);

  auto state = std::make_shared<WorkerState>();
  state->segment = name;
  runtime::WorkerProcessPool pool;
  auto started =
      pool.Start(2, [state](const std::string& request) { return state->Handle(request); });
  ASSERT_TRUE(started.ok()) << started.error().message;

  video::ClassCatalog catalog(23);
  const core::IngestParams params = Params();
  cnn::Cnn cheap(params.model, &catalog);
  cnn::Cnn gt(cnn::GtCnnDesc(catalog.world_seed()), &catalog);

  int epoch = 0;
  int cross_checked = 0;
  const auto snapshots = PublishRun(
      publisher->get(), /*duration_sec=*/12.0, /*seed=*/13,
      [&](const core::LiveSnapshot& snap) {
        ++epoch;
        if (epoch % 2 != 0) {
          return;  // Let generations advance between worker round-trips.
        }
        const core::QueryEngine engine(&snap, &cheap, &gt);
        const auto specs = SpecsFor(snap);
        const QuerySpec& spec = specs[epoch % specs.size()];
        auto reply = pool.Call(epoch / 2 % 2, QueryLine(spec));
        ASSERT_TRUE(reply.ok()) << reply.error().message;
        const std::string want =
            std::to_string(snap.epoch) + " " +
            EncodeResult(engine.Query(spec.cls, spec.kx, spec.range, snap.fps));
        EXPECT_EQ(*reply, want);
        ++cross_checked;
      });
  ASSERT_GE(snapshots.size(), 4u);
  EXPECT_GE(cross_checked, 2);

  // Full mix against the settled final epoch, from both workers.
  const core::LiveSnapshot& last = *snapshots.back();
  const core::QueryEngine engine(&last, &cheap, &gt);
  for (const QuerySpec& spec : SpecsFor(last)) {
    const std::string want =
        std::to_string(last.epoch) + " " +
        EncodeResult(engine.Query(spec.cls, spec.kx, spec.range, last.fps));
    for (int worker = 0; worker < pool.size(); ++worker) {
      auto reply = pool.Call(worker, QueryLine(spec));
      ASSERT_TRUE(reply.ok()) << reply.error().message;
      EXPECT_EQ(*reply, want) << "worker " << worker;
    }
  }
  EXPECT_EQ((*publisher)->stats().reader_attaches, 2u);
  pool.Shutdown();
}

// Crash model: SIGKILL a worker while it holds a pin. Ingest keeps publishing
// without a single failed or delayed epoch, the dead reader's pin is
// reclaimed, and the surviving sibling keeps answering byte-identically.
TEST(ShmEpochPlaneTest, KilledReaderNeverStallsIngestAndPinIsReclaimed) {
  const std::string name = SegmentName("crash");
  runtime::MetricsRegistry metrics;
  EpochPublisher::Options options;
  options.provenance = Provenance();
  auto publisher = EpochPublisher::Create(name, options, &metrics);
  ASSERT_TRUE(publisher.ok()) << publisher.error().message;
  (*publisher)->UnlinkOnDestroy(true);

  auto state = std::make_shared<WorkerState>();
  state->segment = name;
  runtime::WorkerProcessPool pool;
  auto started =
      pool.Start(2, [state](const std::string& request) { return state->Handle(request); });
  ASSERT_TRUE(started.ok()) << started.error().message;

  video::ClassCatalog catalog(23);
  const core::IngestParams params = Params();
  cnn::Cnn cheap(params.model, &catalog);
  cnn::Cnn gt(cnn::GtCnnDesc(catalog.world_seed()), &catalog);

  int epoch = 0;
  bool killed = false;
  const auto snapshots = PublishRun(
      publisher->get(), /*duration_sec=*/14.0, /*seed=*/17,
      [&](const core::LiveSnapshot& snap) {
        ++epoch;
        if (epoch == 2) {
          // Worker 0 pins this epoch and is killed holding it — the plane now
          // carries a pin owned by a corpse.
          auto pinned = pool.Call(0, "HOLD");
          ASSERT_TRUE(pinned.ok()) << pinned.error().message;
          EXPECT_EQ(*pinned, std::to_string(snap.epoch));
          pool.Kill(0);
          EXPECT_FALSE(pool.Alive(0));
          killed = true;
          return;
        }
        if (killed && epoch % 2 == 0) {
          // The sibling keeps answering the advancing plane, identically.
          const core::QueryEngine engine(&snap, &cheap, &gt);
          const QuerySpec spec = SpecsFor(snap).front();
          auto reply = pool.Call(1, QueryLine(spec));
          ASSERT_TRUE(reply.ok()) << reply.error().message;
          EXPECT_EQ(*reply,
                    std::to_string(snap.epoch) + " " +
                        EncodeResult(engine.Query(spec.cls, spec.kx, spec.range, snap.fps)));
        }
      });
  ASSERT_TRUE(killed);
  ASSERT_GE(snapshots.size(), 5u);  // Every publish after the kill succeeded.

  const ShmPlaneStats stats = (*publisher)->stats();
  EXPECT_EQ(stats.epochs_published, snapshots.size());
  EXPECT_GE(stats.stale_pins_reclaimed, 1u);
  EXPECT_EQ(stats.pin_violations, 0u);  // Reclaim, never a forced eviction.
  EXPECT_GE(metrics.counter("shm.stale_pins_reclaimed"), 1);

  // The dead worker's Call path reports unavailability; the sibling is fine.
  auto dead = pool.Call(0, "HOLD");
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.error().code, common::ErrorCode::kUnavailable);
  EXPECT_TRUE(pool.Call(1, "RELEASE").ok());
  pool.Shutdown();
}

// Pin protocol: a pinned epoch's bytes are never overwritten, however many
// epochs publish past it — the held view stays valid and re-answers
// identically. When every region is pinned the publisher forcibly evicts the
// oldest pin rather than stall, counts the violation, and the evicted view
// detects it.
TEST(ShmEpochPlaneTest, PinnedEpochSurvivesPublishesUntilForcedEviction) {
  const std::string name = SegmentName("pin");
  EpochPublisher::Options options;
  options.provenance = Provenance();
  auto publisher = EpochPublisher::Create(name, options);
  ASSERT_TRUE(publisher.ok()) << publisher.error().message;
  (*publisher)->UnlinkOnDestroy(true);

  video::ClassCatalog catalog(23);
  const core::IngestParams params = Params();
  cnn::Cnn cheap(params.model, &catalog);
  cnn::Cnn gt(cnn::GtCnnDesc(catalog.world_seed()), &catalog);

  std::vector<std::unique_ptr<ShmSnapshotReader>> readers;
  std::vector<ShmEpochView> held;
  std::vector<std::string> held_answers;
  QuerySpec probe{0, -1, {}};

  // A fresh reader pins each of the first few epochs and records its answer.
  // Half the region table stays unpinned, so rotation never needs an eviction.
  auto pin_newest = [&](const core::LiveSnapshot& snap) {
    auto reader = ShmSnapshotReader::Attach(name);
    ASSERT_TRUE(reader.ok());
    auto view = (*reader)->Acquire();
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view->epoch(), snap.epoch);
    if (held.empty()) {
      probe = SpecsFor(snap).front();
    }
    held_answers.push_back(
        EncodeResult(view->Query(probe.cls, probe.kx, probe.range, cheap, gt)));
    held.push_back(std::move(*view));
    readers.push_back(std::move(*reader));
  };
  const auto all = PublishRun(publisher->get(), /*duration_sec=*/20.0, /*seed=*/19,
                              [&](const core::LiveSnapshot& snap) {
                                if (held.size() < kShmMaxRegions / 2) {
                                  pin_newest(snap);
                                }
                              });
  ASSERT_GE(held.size(), 3u);
  ASSERT_GT(all.size(), held.size() + 2);

  // Many epochs published past every pin: each held view still maps its
  // original generation and re-answers byte-identically.
  for (size_t i = 0; i < held.size(); ++i) {
    EXPECT_TRUE(held[i].StillValid()) << "pin " << i;
    EXPECT_EQ(held[i].epoch(), i + 1);
    EXPECT_EQ(EncodeResult(held[i].Query(probe.cls, probe.kx, probe.range, cheap, gt)),
              held_answers[i])
        << "pin " << i;
  }
  EXPECT_EQ((*publisher)->stats().pin_violations, 0u);

  // Force the publisher's hand: keep pinning each new epoch until every
  // region is protected by a live pin. The next publish then evicts the
  // oldest pin instead of stalling ingest, counts the violation, and the
  // evicted view detects it.
  const auto before = (*publisher)->stats();
  auto extra = PublishRun(publisher->get(), /*duration_sec=*/14.0, /*seed=*/21,
                          [&](const core::LiveSnapshot& snap) {
                            if (held.size() < kShmMaxRegions) {
                              pin_newest(snap);
                            }
                          });
  ASSERT_GE(extra.size(), 6u);  // Enough to fill every region and keep going.
  const auto after = (*publisher)->stats();
  EXPECT_GT(after.pin_violations, before.pin_violations);
  EXPECT_FALSE(held.front().StillValid());  // The evicted reader can tell.
}

// Torn-header fallback: corrupting the newest header slot makes readers adopt
// the previous CRC-valid generation instead of ever believing torn bytes.
TEST(ShmEpochPlaneTest, TornHeaderFallsBackToPreviousGeneration) {
  const std::string name = SegmentName("torn");
  EpochPublisher::Options options;
  options.provenance = Provenance();
  auto publisher = EpochPublisher::Create(name, options);
  ASSERT_TRUE(publisher.ok()) << publisher.error().message;
  (*publisher)->UnlinkOnDestroy(true);

  const auto snapshots = PublishRun(publisher->get(), /*duration_sec=*/8.0, /*seed=*/29);
  ASSERT_GE(snapshots.size(), 2u);
  const uint64_t newest = snapshots.size();

  auto raw = SharedSegment::Open(name);
  ASSERT_TRUE(raw.ok());
  char* slot = reinterpret_cast<char*>((*raw)->bytes()) + kShmHeaderOffset +
               (newest % 2) * kShmHeaderSlotBytes;
  slot[9] ^= '\xFF';  // Torn write in the newest header.

  auto reader = ShmSnapshotReader::Attach(name);
  ASSERT_TRUE(reader.ok());
  auto view = (*reader)->Acquire();
  ASSERT_TRUE(view.ok()) << view.error().message;
  EXPECT_EQ(view->generation(), newest - 1);
  EXPECT_EQ(view->epoch(), snapshots[newest - 2]->epoch);
  EXPECT_TRUE(view->StillValid());
}

TEST(ShmEpochPlaneTest, OrphanedSegmentIsReclaimedAndLiveOwnerRefused) {
  const std::string name = SegmentName("orphan");
  runtime::MetricsRegistry metrics;
  EpochPublisher::Options options;
  options.provenance = Provenance();

  // Generation A publishes, then goes away without unlinking (the segment
  // outlives its owner, as after a crash).
  uint64_t gen_a_epochs = 0;
  {
    auto gen_a = EpochPublisher::Create(name, options, &metrics);
    ASSERT_TRUE(gen_a.ok()) << gen_a.error().message;
    (*gen_a)->UnlinkOnDestroy(false);
    const auto snapshots = PublishRun(gen_a->get(), /*duration_sec=*/8.0, /*seed=*/11);
    ASSERT_FALSE(snapshots.empty());
    gen_a_epochs = snapshots.size();
  }
  EXPECT_EQ(metrics.counter("shm.stale_segments_reclaimed"), 0);

  {
    auto raw = SharedSegment::Open(name);
    ASSERT_TRUE(raw.ok()) << raw.error().message;
    auto* control = reinterpret_cast<ShmControl*>((*raw)->data());

    // While the recorded owner is a live process, Create refuses: one writer
    // per plane, and a second publisher must not unlink it out from under it.
    control->writer_pid.store(static_cast<uint64_t>(::getpid()), std::memory_order_relaxed);
    auto refused = EpochPublisher::Create(name, options, &metrics);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code, common::ErrorCode::kFailedPrecondition);
    EXPECT_NE(refused.error().message.find("live publisher"), std::string::npos);
    EXPECT_EQ(metrics.counter("shm.stale_segments_reclaimed"), 0);

    // Swap in a genuinely dead owner: a reaped child's pid no longer exists.
    pid_t corpse = fork();
    ASSERT_GE(corpse, 0);
    if (corpse == 0) {
      _exit(0);
    }
    ASSERT_EQ(waitpid(corpse, nullptr, 0), corpse);
    control->writer_pid.store(static_cast<uint64_t>(corpse), std::memory_order_relaxed);
  }

  // Generation B reclaims the orphan: the segment is recreated fresh (the dead
  // owner's stale epochs are not served), counted in the reclaim metric, and
  // the generation counter restarts from scratch.
  auto gen_b = EpochPublisher::Create(name, options, &metrics);
  ASSERT_TRUE(gen_b.ok()) << gen_b.error().message;
  (*gen_b)->UnlinkOnDestroy(true);
  EXPECT_EQ(metrics.counter("shm.stale_segments_reclaimed"), 1);

  const auto fresh = PublishRun(gen_b->get(), /*duration_sec=*/8.0, /*seed=*/29);
  ASSERT_FALSE(fresh.empty());
  auto reader = ShmSnapshotReader::Attach(name);
  ASSERT_TRUE(reader.ok()) << reader.error().message;
  auto view = (*reader)->Acquire();
  ASSERT_TRUE(view.ok()) << view.error().message;
  EXPECT_EQ(view->generation(), fresh.size());  // Restarted, not gen_a_epochs + n.
  EXPECT_EQ(view->epoch(), fresh.back()->epoch);
  (void)gen_a_epochs;
}

// Regression: a payload outgrowing its region used to leak the abandoned span
// inside the fixed arena — a long run with steadily growing snapshots
// exhausted the segment (kOutOfRange) even though the live working set fit
// comfortably. Abandoned spans now go to the control block's free-span table
// and are reused (or returned to the bump allocator when adjacent), so the
// same run publishes every epoch, counts compactions, and the arena's
// high-water mark stays well under the pre-fix append-only total.
TEST(ShmEpochPlaneTest, GrowingPayloadsCompactAbandonedSpansInsteadOfLeaking) {
  const std::string name = SegmentName("leak");
  runtime::MetricsRegistry metrics;
  EpochPublisher::Options options;
  options.provenance = Provenance();
  options.segment_bytes = 1 << 20;  // Small arena: leaks exhaust it fast.
  auto publisher = EpochPublisher::Create(name, options, &metrics);
  ASSERT_TRUE(publisher.ok()) << publisher.error().message;
  (*publisher)->UnlinkOnDestroy(true);

  // Synthetic snapshots with precisely controlled, steadily growing payloads:
  // one cluster whose member-run table adds a fixed stride every epoch.
  constexpr int kEpochs = 100;
  constexpr size_t kBaseMembers = 400;
  constexpr size_t kStride = 10;
  auto snapshot_with = [](uint64_t epoch, size_t members) {
    core::LiveSnapshot snap;
    snap.epoch = epoch;
    snap.watermark = static_cast<common::FrameIndex>(epoch * 60);
    snap.fps = 30.0;
    snap.detections = static_cast<int64_t>(members);
    index::ClusterEntry entry;
    entry.size = static_cast<int64_t>(members);
    entry.members.reserve(members);
    for (size_t m = 0; m < members; ++m) {
      cluster::MemberRun run;
      run.object = static_cast<common::ObjectId>(m);
      run.first_frame = static_cast<common::FrameIndex>(2 * m);
      run.last_frame = static_cast<common::FrameIndex>(2 * m + 1);
      entry.members.push_back(run);
    }
    entry.topk_classes = {1, 2};
    entry.topk_ranks = {1, 2};
    index::IndexBuilder builder;
    builder.Add(entry);
    snap.index = builder.Finish();
    return snap;
  };

  uint64_t generation = 0;
  for (int e = 1; e <= kEpochs; ++e) {
    const core::LiveSnapshot snap =
        snapshot_with(static_cast<uint64_t>(e), kBaseMembers + kStride * static_cast<size_t>(e));
    auto published = (*publisher)->Publish(snap);
    ASSERT_TRUE(published.ok()) << "epoch " << e << ": " << published.error().message;
    EXPECT_EQ(*published, ++generation);
  }

  const ShmPlaneStats stats = (*publisher)->stats();
  EXPECT_EQ(stats.epochs_published, static_cast<uint64_t>(kEpochs));
  EXPECT_GT(stats.regions_compacted, 0u);
  EXPECT_GT(metrics.counter("shm.regions_compacted"), 0);
  EXPECT_LE(stats.arena_used_bytes, stats.segment_bytes);

  // The plane still serves the final epoch coherently after all the churn.
  auto reader = ShmSnapshotReader::Attach(name, &metrics);
  ASSERT_TRUE(reader.ok()) << reader.error().message;
  auto view = (*reader)->Acquire();
  ASSERT_TRUE(view.ok()) << view.error().message;
  EXPECT_EQ(view->epoch(), static_cast<uint64_t>(kEpochs));
  ASSERT_EQ(view->num_clusters(), 1u);
  const std::span<const cluster::MemberRun> runs = view->index().runs(0);
  const size_t final_members = kBaseMembers + kStride * kEpochs;
  ASSERT_EQ(runs.size(), final_members);
  for (size_t m : {size_t{0}, final_members / 2, final_members - 1}) {
    const cluster::MemberRun& run = runs[m];
    EXPECT_EQ(run.object, static_cast<common::ObjectId>(m));
    EXPECT_EQ(run.first_frame, static_cast<common::FrameIndex>(2 * m));
    EXPECT_EQ(run.last_frame, static_cast<common::FrameIndex>(2 * m + 1));
  }
  EXPECT_TRUE(view->StillValid());
}

// A class one cluster lists twice is posted once, at its first occurrence's
// rank, and the mapped view plans exactly what the in-process engine plans.
TEST(ShmEpochPlaneTest, DuplicateClassPostedOnceAtFirstOccurrence) {
  const std::string name = SegmentName("dup_class");
  EpochPublisher::Options options;
  options.provenance = Provenance();
  auto publisher = EpochPublisher::Create(name, options);
  ASSERT_TRUE(publisher.ok()) << publisher.error().message;
  (*publisher)->UnlinkOnDestroy(true);

  constexpr common::ClassId kDup = 5;
  core::LiveSnapshot snap;
  snap.epoch = 1;
  snap.watermark = 100;
  snap.fps = 30.0;
  index::ClusterEntry entry;
  entry.size = 1;
  entry.members = {{7, 10, 20}};
  entry.representative.object_id = 7;
  entry.representative.frame = 10;
  entry.representative.true_class = kDup;
  entry.topk_classes = {kDup, 3, kDup};
  entry.topk_ranks = {2, 1, 1};
  index::IndexBuilder builder;
  builder.Add(entry);
  snap.index = builder.Finish();
  ASSERT_TRUE((*publisher)->Publish(snap).ok());

  const auto postings = snap.index.view().postings(kDup);
  ASSERT_EQ(postings.size(), 1u);
  EXPECT_EQ(postings[0].cluster, 0u);
  EXPECT_EQ(postings[0].rank, 2);

  const video::ClassCatalog catalog(23);
  const cnn::Cnn cheap(Params().model, &catalog);
  const cnn::Cnn gt(cnn::GtCnnDesc(23), &catalog);
  const core::QueryEngine engine(&snap.index, &cheap, &gt);
  auto reader = ShmSnapshotReader::Attach(name);
  ASSERT_TRUE(reader.ok()) << reader.error().message;
  auto view = (*reader)->Acquire();
  ASSERT_TRUE(view.ok()) << view.error().message;
  for (int kx : {-1, 1, 2}) {
    SCOPED_TRACE("kx=" + std::to_string(kx));
    const size_t want = kx == 1 ? 0u : 1u;
    EXPECT_EQ(engine.Plan(kDup, kx, {}, snap.fps).work.size(), want);
    EXPECT_EQ(view->Plan(kDup, kx, {}, cheap).work.size(), want);
    ExpectSameResult(engine.Query(kDup, kx, {}, snap.fps), view->Query(kDup, kx, {}, cheap, gt));
  }
}

// A reader validates each new generation's image once: a corrupted region is
// a typed error, never a view over bad bytes.
TEST(ShmEpochPlaneTest, CorruptImageIsATypedErrorOnAcquire) {
  const std::string name = SegmentName("corrupt_image");
  EpochPublisher::Options options;
  options.provenance = Provenance();
  auto publisher = EpochPublisher::Create(name, options);
  ASSERT_TRUE(publisher.ok()) << publisher.error().message;
  (*publisher)->UnlinkOnDestroy(true);
  const auto snapshots = PublishRun(publisher->get(), /*duration_sec=*/4.0, /*seed=*/31);
  ASSERT_FALSE(snapshots.empty());

  uint64_t region_offset = 0;
  {
    auto reader = ShmSnapshotReader::Attach(name);
    ASSERT_TRUE(reader.ok()) << reader.error().message;
    auto view = (*reader)->Acquire();
    ASSERT_TRUE(view.ok()) << view.error().message;
    region_offset = view->header().region_offset;
  }
  auto raw = SharedSegment::Open(name);
  ASSERT_TRUE(raw.ok());
  // A bit pattern inside the first cluster record.
  (*raw)->bytes()[region_offset + 2 * index::kImageAlign + 3] ^= '\x5A';

  auto reader = ShmSnapshotReader::Attach(name);
  ASSERT_TRUE(reader.ok()) << reader.error().message;
  auto view = (*reader)->Acquire();
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.error().code, common::ErrorCode::kDataLoss) << view.error().message;
}

TEST(WorkerProcessPoolTest, EchoKillAndSiblingIsolation) {
  runtime::WorkerProcessPool pool;
  auto started = pool.Start(3, [](const std::string& request) {
    return "echo:" + request;
  });
  ASSERT_TRUE(started.ok()) << started.error().message;
  ASSERT_EQ(pool.size(), 3);

  // Round-trips, including an empty and a large (multi-read) payload.
  auto small = pool.Call(0, "ping");
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(*small, "echo:ping");
  auto empty = pool.Call(1, "");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, "echo:");
  const std::string big(256 * 1024, 'x');
  auto large = pool.Call(2, big);
  ASSERT_TRUE(large.ok());
  EXPECT_EQ(large->size(), big.size() + 5);

  for (int i = 0; i < pool.size(); ++i) {
    EXPECT_TRUE(pool.Alive(i));
    EXPECT_GT(pool.worker_pid(i), 0);
  }

  pool.Kill(1);
  EXPECT_FALSE(pool.Alive(1));
  auto dead = pool.Call(1, "ping");
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.error().code, common::ErrorCode::kUnavailable);

  // Siblings are unaffected by the crash.
  EXPECT_TRUE(pool.Call(0, "a").ok());
  EXPECT_TRUE(pool.Call(2, "b").ok());
  EXPECT_TRUE(pool.Alive(0));
  EXPECT_TRUE(pool.Alive(2));

  pool.Shutdown();  // Reaps everyone; the pool is empty afterwards.
  EXPECT_EQ(pool.size(), 0);
}

TEST(ShmSegmentTest, CreateOpenValidateAndReject) {
  const std::string name = SegmentName("segment");
  auto created = SharedSegment::Create(name, 1 << 20);
  ASSERT_TRUE(created.ok()) << created.error().message;
  EXPECT_EQ((*created)->size(), size_t{1} << 20);
  (*created)->bytes()[100] = 42;

  auto opened = SharedSegment::Open(name);
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  EXPECT_EQ((*opened)->size(), size_t{1} << 20);
  EXPECT_EQ((*opened)->bytes()[100], 42);  // Same physical pages.

  EXPECT_FALSE(SharedSegment::Open("/focus_shm_test_does_not_exist").ok());
  EXPECT_FALSE(SharedSegment::Create("no-leading-slash", 4096).ok());
  EXPECT_FALSE(SharedSegment::Create("/bad/inner/slash", 4096).ok());

  SharedSegment::Unlink(name);
  EXPECT_FALSE(SharedSegment::Open(name).ok());
  // Existing mappings survive the unlink.
  EXPECT_EQ((*opened)->bytes()[100], 42);
}

}  // namespace
}  // namespace focus::shm
