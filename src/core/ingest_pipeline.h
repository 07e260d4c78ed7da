// Ingest-time processing (§3 left side: IT1-IT4).
//
// For every moving-object detection of the stream, the pipeline (1) runs the cheap
// ingest CNN to get the top-K classes and the feature vector — unless pixel
// differencing lets it reuse the previous frame's result, (2) clusters the object by
// feature vector, (3) aggregates per-cluster class confidences, and (4) emits the
// top-K index mapping classes to clusters. GPU time is accounted per inference.
//
// One ingest engine does steps 2-4 for every entry point. It always drives a
// cluster::ShardedClusterer (num_shards >= 1; one shard assigns inline on the
// calling thread) and has one assign+rank step, one boundary step (the
// cross-shard boundary merge plus, with a consumer attached, the snapshot
// cut), one checkpoint step and one finish step. Two thin front ends feed it:
//   - RunIngest / RunIngestChecked: a live StreamRun through the pixel-diff
//     detection stage (step 1), which ClassifySample shares;
//   - RunIngestClassified: a stored ClassifiedSample (the tuner's
//     classify-once, re-cluster-many sweep).
// Persistence (options.persist_dir) and snapshot publication
// (options.finalize_every_frames with a slot or sink) are optional policies
// of the same engine, not separate loops. Boundary merging is the only
// cross-shard semantics, so results never depend on how detections are
// batched: RunIngestClassified over ClassifySample's output equals RunIngest.
#ifndef FOCUS_SRC_CORE_INGEST_PIPELINE_H_
#define FOCUS_SRC_CORE_INGEST_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/cluster/incremental_clusterer.h"
#include "src/cluster/sharded_clusterer.h"
#include "src/cnn/cnn.h"
#include "src/common/result.h"
#include "src/common/retry.h"
#include "src/core/config.h"
#include "src/core/live_snapshot.h"
#include "src/index/topk_index.h"
#include "src/video/stream_generator.h"

namespace focus::runtime {
class WorkerPool;
}  // namespace focus::runtime

namespace focus::core {

struct IngestResult {
  index::TopKIndex index;
  // GPU time spent by the cheap CNN.
  common::GpuMillis gpu_millis = 0.0;
  int64_t detections = 0;
  int64_t cnn_invocations = 0;   // Detections actually classified.
  int64_t suppressed = 0;        // Reused via pixel differencing.
  int64_t num_clusters = 0;
  double clusterer_fast_hit_rate = 0.0;
  // Persistent path only: the sampled frame this run resumed from (0 = fresh
  // start or volatile ingest). Counters cover the whole stream either way —
  // the at-checkpoint counters are recovered, the re-processed window recounts
  // exactly what the crashed attempt had counted past the checkpoint.
  common::FrameIndex resumed_from_frame = 0;
};

struct IngestOptions {
  cluster::ClustererOptions::Mode cluster_mode = cluster::ClustererOptions::Mode::kFast;
  size_t max_active_clusters = 4096;
  // Stop ingesting after this many seconds of video (negative: whole run). Used by
  // the tuner to process only a sample window.
  double limit_sec = -1.0;
  // Honor pixel-differencing suppression (§4.2). Disabled by the ablation bench to
  // measure how much ingest cost the technique saves.
  bool use_pixel_diff = true;
  // Persistent path: sampled frames an object may sit idle in the pixel-diff
  // reuse maps before checkpoint-time eviction drops its entry. Must exceed the
  // longest occlusion gap after which a track can resume *suppressed* — an
  // evicted object that returns suppressed is reclassified, diverging from the
  // volatile run. 8 keeps recovery O(objects in scene) for continuous tracks;
  // raise it for scenes with long occlusions (parked-then-moving vehicles).
  common::FrameIndex reuse_evict_gap_frames = 8;

  // --- Sharded intra-stream clustering (src/cluster/sharded_clusterer.h) ---
  // Clustering shards for this stream. 1 assigns inline on the ingest thread
  // (no worker pool), exactly like a lone IncrementalClusterer; >1
  // partitions detections by object id onto per-shard clusterer+store
  // instances driven by a worker pool, and cross-shard boundary merges fold
  // duplicate clusters into a canonical table.
  int num_shards = 1;

  // --- Windowed streaming finalize (src/core/live_snapshot.h,
  //     docs/live_query.md) ---
  // > 0: every N sampled frames, run the incremental cross-shard boundary
  // merge (cluster::ShardedClusterer::BoundaryMergePass) and, with a consumer
  // attached, publish an immutable, epoch-numbered canonical snapshot — the
  // cluster table (as top-K index entries), the index, and the frame
  // watermark — through snapshot_slot / snapshot_sink. Querying snapshot
  // epoch e is byte-identical to halting ingest at e's watermark (with these
  // same options) and finalizing the old one-shot way. Above one shard the
  // cadence is part of the clustering semantics — the boundary merges run
  // whether or not a consumer is attached, so attaching one never changes
  // results. 0 (default): cross-shard merging only at end-of-stream.
  int64_t finalize_every_frames = 0;
  // RCU publication target for the snapshots (not owned; may be null).
  // runtime::IngestService wires one per live stream and serves it through
  // LatestSnapshot().
  SnapshotSlot* snapshot_slot = nullptr;
  // Optional observer invoked with every published snapshot (after the slot
  // swap, if any); tests and benches use it to capture each epoch. With
  // background_publish it runs on the builder thread.
  std::function<void(std::shared_ptr<const LiveSnapshot>)> snapshot_sink;
  // Background publication: index assembly and the slot swap move to one
  // dedicated builder thread (core::SnapshotBuilder) fed a self-contained cut
  // at each cadence boundary, so the ingest thread pays only the dirty census
  // and dirty-entry builds (stats.cut_millis) instead of the whole publication.
  // The published snapshot sequence is byte-identical to synchronous mode —
  // the builder runs the same assembly code over the same cut bytes, in the
  // same order — and the epoch ≡ halt+finalize property is preserved; only
  // *when* a given epoch becomes visible shifts (bounded by the builder's
  // queue depth, and re-synchronized before every same-frame checkpoint).
  // Ignored when no consumer (slot or sink) is attached.
  bool background_publish = false;

  // --- Persistent ingest (src/storage/arena_file.h, docs/persistence.md) ---
  // Directory for this stream's durable clustering state. Empty (the default)
  // keeps ingest volatile; non-empty makes RunIngest / RunIngestChecked
  // crash-resumable: the centroid arenas live in mmap'd files, the engine
  // checkpoints every checkpoint_every_frames sampled frames and seals the
  // end of the stream, and a restarted worker resumes from the last
  // checkpoint instead of frame 0. State beyond the arenas — counters, the
  // pixel-differencing reuse maps, and the per-cluster class-rank table —
  // checkpoints as an opaque blob alongside the clusterer's own snapshot, so
  // the resumed run's final index, counters, and GPU accounting are
  // byte-identical to an uninterrupted run's (the re-processed window
  // re-classifies deterministically — cnn::Cnn is a pure function of the
  // detection). Ignored by RunIngestClassified.
  std::string persist_dir;
  // Sampled frames between checkpoints on the persistent path. Smaller bounds
  // the re-processed window after a crash; larger amortizes the msync +
  // bookkeeping-snapshot cost over more stream.
  int64_t checkpoint_every_frames = 256;
  // Test/bench hook on the persistent path: abandon the run after this many
  // sampled frames past the resume position (negative: disabled) — no
  // finalize, no final checkpoint, exactly like an ingest worker crash. The
  // returned result carries the partial counters only.
  int64_t crash_after_frames = -1;
  // Retry policy for checkpoint commits (including the end-of-stream seal) on
  // the persistent path: a transiently failing msync/rename is retried with
  // virtual-time backoff before the attempt is abandoned to the supervisor.
  common::RetryPolicy checkpoint_retry;
};

// Runs ingest over |run| with |ingest_cnn| and parameters |params| (the live
// front end of the engine). Crashes (FOCUS_CHECK) on any storage or
// stream-delivery failure; fault-tolerant callers (the supervised
// IngestService workers) use RunIngestChecked instead.
IngestResult RunIngest(const video::StreamRun& run, const cnn::Cnn& ingest_cnn,
                       const IngestParams& params, const IngestOptions& options = {});

// Fallible ingest: every failure mode — recovery errors, checkpoint commits
// that stay failed past options.checkpoint_retry, a stream whose delivery
// aborted mid-recording (SweepStats::aborted) — surfaces as a typed error
// instead of a crash. Retryable codes (see common::IsRetryable) mean a
// restarted worker resumes from the last checkpoint (persistent path) or from
// scratch (volatile path) and can converge to the no-fault result.
common::Result<IngestResult> RunIngestChecked(const video::StreamRun& run,
                                              const cnn::Cnn& ingest_cnn,
                                              const IngestParams& params,
                                              const IngestOptions& options = {});

// --- Classify-once / re-cluster-many ---
//
// The CNN outputs of ingest depend only on the model and K, not on the clustering
// threshold T. When several T values must be compared (the tuner's second selection
// step, or an operator retuning a live deployment), classifying once and replaying
// the stored outputs through clustering+indexing avoids re-running the cheap CNN —
// the only GPU-bearing stage.

// One detection's stored ingest-time CNN output.
struct ClassifiedDetection {
  video::Detection detection;
  cnn::TopKResult topk;
  common::FeatureVec feature;
  bool reused = false;  // Pixel-diff path: outputs copied from the previous frame.
};

struct ClassifiedSample {
  std::vector<ClassifiedDetection> detections;  // In sweep (frame) order.
  int k = 0;                                    // Top-K width of the stored outputs.
  common::GpuMillis gpu_millis = 0.0;           // Cheap-CNN GPU time.
  int64_t cnn_invocations = 0;
  int64_t suppressed = 0;
  // Recording rate of the classified stream (stamped onto published snapshots
  // for time-range planning).
  double fps = 30.0;
  // True when the sweep stopped early (FlakyStreamRun mid-stream restart): the
  // sample covers a prefix of the recording only. Checked callers treat this
  // as a retryable failure rather than silently indexing the prefix.
  bool delivery_aborted = false;
};

// Runs the classification stage only (IT1 + pixel differencing) over |run|,
// through the same detection stage as RunIngest.
ClassifiedSample ClassifySample(const video::StreamRun& run, const cnn::Cnn& ingest_cnn,
                                int k, const IngestOptions& options = {});

// Runs clustering + indexing (IT2-IT4) over stored outputs (the stored-sample
// front end of the engine). |params.k| must not exceed |sample.k|. Produces the
// same IngestResult as RunIngest with the same parameters (GPU cost comes
// from the stored classification pass).
//
// |scratch| optionally supplies a clusterer to (re)use: it is Reset() with this
// run's options, so a tuner sweeping a parameter grid over the same sample
// reuses the shards' centroid arenas and per-cluster allocations across
// re-runs instead of re-growing them from empty on every configuration.
//
// |pool| optionally supplies the worker pool the shards dispatch on above one
// shard, so a caller re-running many configurations pays thread spawn/join
// once instead of per run. Null builds a pool per call; the pool must have
// >= 1 worker and be dedicated to this call for its duration (the sharded
// clusterer Drain()s it to synchronize). Ignored at num_shards = 1.
IngestResult RunIngestClassified(const ClassifiedSample& sample, const IngestParams& params,
                                 const IngestOptions& options = {},
                                 cluster::ShardedClusterer* scratch = nullptr,
                                 runtime::WorkerPool* pool = nullptr);

}  // namespace focus::core

#endif  // FOCUS_SRC_CORE_INGEST_PIPELINE_H_
