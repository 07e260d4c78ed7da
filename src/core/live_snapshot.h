// Live query-over-ingest: epoch-published canonical snapshots of a stream that
// is still being ingested.
//
// The paper's headline scenario is querying video while it is still arriving —
// low-latency answers over streams that never end. A one-shot FinalizeClusters()
// at end-of-stream can never serve that: an infinite stream has no end, so every
// query would wait forever. The windowed streaming finalize
// (core::IngestOptions::finalize_every_frames) instead runs the cross-shard
// merge to convergence every N sampled frames and publishes the result as an
// immutable LiveSnapshot: the canonical cluster table as one index image
// (src/index/topk_index.h), the frame watermark the table covers, and a
// monotone epoch number.
//
// Publication is an RCU-style pointer swap (SnapshotSlot): the ingest thread
// builds the snapshot off to the side and swaps it in atomically; query threads
// load the current pointer and keep the snapshot alive through their own
// shared_ptr reference for as long as the query runs, so a reader never sees a
// half-built table and never blocks the writer. Epochs are stamped by the slot
// and strictly monotone; the watermark is the first sampled frame NOT covered,
// so a snapshot with watermark w answers exactly what a query against a stream
// halted at frame w and finalized the old way would answer — byte-identically
// (tests/live_snapshot_test.cc holds this as a property over random streams).
//
// Snapshots are volatile: they are never written to disk and are rebuilt from
// the ingest state after a crash-resume (docs/live_query.md covers the
// interaction with Checkpoint()/OpenOrRecover()).
#ifndef FOCUS_SRC_CORE_LIVE_SNAPSHOT_H_
#define FOCUS_SRC_CORE_LIVE_SNAPSHOT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/time_types.h"
#include "src/index/topk_index.h"

namespace focus::core {

// Build accounting of one snapshot (the publication overhead the live-query
// bench tracks).
struct LiveSnapshotStats {
  // Index records carried forward unchanged from the previous epoch's image
  // (their component composition, members, and ranks did not change) vs
  // rebuilt from the rank table. reused + rebuilt == index.num_clusters().
  int64_t entries_reused = 0;
  int64_t entries_rebuilt = 0;
  // Wall-clock of the whole publication in synchronous mode: cross-shard merge
  // pass, canonical table build, image assembly (postings and CRC included),
  // and the pointer swap. In background mode, the builder-thread assembly
  // alone — the ingest thread's share is cut_millis + stall_millis.
  double build_millis = 0.0;
  // Ingest-thread wall-clock spent cutting this epoch at the boundary (merge
  // pass, dirty census, dirty-entry builds) — the part that cannot leave the
  // ingest thread.
  double cut_millis = 0.0;
  // Ingest-thread wall-clock spent blocked on a full build queue (background
  // mode backpressure; 0 when the builder kept up or in synchronous mode).
  double stall_millis = 0.0;
};

// One immutable published snapshot. Everything here is frozen at publication;
// readers share the object via shared_ptr and never synchronize further.
struct LiveSnapshot {
  // 1-based, strictly monotone per SnapshotSlot (stamped by Publish).
  uint64_t epoch = 0;
  // First sampled frame NOT covered: the snapshot answers queries over frames
  // [0, watermark) exactly as halting ingest at |watermark| and finalizing
  // would.
  common::FrameIndex watermark = 0;
  // Recording fps, for time-range-to-frame mapping at plan time.
  double fps = 30.0;
  // The canonical cluster table as the query side consumes it: the index
  // image — one record per canonical cluster (centroid identity, member runs,
  // ranked top-K classes) plus the class postings. The shm plane publishes
  // these bytes verbatim.
  index::TopKIndex index;
  // Stream counters as of the watermark.
  int64_t detections = 0;
  int64_t num_clusters = 0;
  LiveSnapshotStats stats;
};

// The RCU slot one ingest run publishes through. Single writer (the ingest
// thread), any number of concurrent readers. The mutex guards only the
// pointer copy/swap — nanoseconds — so readers never wait out a merge and the
// writer never waits out a query: a reader pins its epoch via the shared_ptr
// refcount and works lock-free from there. (An std::atomic<shared_ptr> would
// drop even the micro-lock, but GCC 12's _Sp_atomic lock-bit protocol is
// opaque to ThreadSanitizer and the sanitize gate runs this type.)
class SnapshotSlot {
 public:
  SnapshotSlot() = default;
  SnapshotSlot(const SnapshotSlot&) = delete;
  SnapshotSlot& operator=(const SnapshotSlot&) = delete;

  // The newest published snapshot, or null before the first epoch. The caller's
  // shared_ptr keeps the snapshot (and the image an engine reads) alive even if
  // a newer epoch is published mid-query.
  std::shared_ptr<const LiveSnapshot> Latest() const {
    std::lock_guard<std::mutex> lock(mu_);
    return latest_;
  }

  // Stamps the next epoch (previous + 1) onto |snapshot| and swaps it in.
  // Returns the published (now immutable) snapshot. Single-writer only.
  std::shared_ptr<const LiveSnapshot> Publish(std::unique_ptr<LiveSnapshot> snapshot);

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const LiveSnapshot> latest_;
};

// One slot of a snapshot build job, in index slot order: either "carry the
// record at |prev_slot| of the previous epoch's image forward unchanged" or a
// fully built entry for a dirtied canonical cluster.
struct SnapshotBuildItem {
  bool reused = false;
  size_t prev_slot = 0;       // Valid when |reused|.
  index::ClusterEntry entry;  // Valid when !|reused|.
};

// Everything needed to assemble and publish one epoch, cut from the live
// clusterer state at a cadence boundary by the ingest thread. The job owns all
// its bytes (dirty entries are deep copies; reused entries are named by their
// slot in the *previous epoch's published image*, which the builder owns) —
// nothing aliases ingest state, which is what lets assembly run on another
// thread while assignments continue.
struct SnapshotBuildJob {
  common::FrameIndex watermark = 0;
  double fps = 30.0;
  int64_t detections = 0;
  // Ingest-thread wall-clock spent producing this cut. Copied into the
  // published snapshot's stats.
  double cut_millis = 0.0;
  // Filled by Submit: wall-clock the ingest thread spent blocked on a full
  // build queue before this job was accepted.
  double stall_millis = 0.0;
  std::vector<SnapshotBuildItem> items;
};

// Assembles cut jobs into published LiveSnapshots, either inline on the
// submitting thread (synchronous mode — the pre-existing behavior) or on one
// dedicated builder thread fed through a small bounded FIFO (background mode:
// ingest hands over the cut and keeps assigning while the index assembles).
// Both modes run the identical assembly code over identical job bytes, so for
// the same stream the published snapshot sequence is byte-identical;
// background mode changes only *when* the bytes are assembled. The builder
// owns the previous-epoch chain (reused records copy from its own last
// published image), publishes through the owner's SnapshotSlot in submit
// (FIFO) order — epoch stamps stay monotone — and invokes the sink on
// whichever thread assembles: the builder thread in background mode.
class SnapshotBuilder {
 public:
  using Sink = std::function<void(std::shared_ptr<const LiveSnapshot>)>;

  // |slot| may be null (sink-only consumers get fallback epoch numbering);
  // |sink| may be empty. |background| spawns the builder thread.
  SnapshotBuilder(SnapshotSlot* slot, Sink sink, bool background);
  // Flushes pending jobs, then joins the builder thread.
  ~SnapshotBuilder();

  SnapshotBuilder(const SnapshotBuilder&) = delete;
  SnapshotBuilder& operator=(const SnapshotBuilder&) = delete;

  // Hands one cut over. Synchronous mode assembles and publishes inline.
  // Background mode enqueues and returns; when the queue is full it blocks
  // until the builder frees a slot and accounts the wait into the job's
  // stall_millis. Single submitter (the ingest thread).
  void Submit(SnapshotBuildJob job);

  // Blocks until every job submitted so far has been assembled and published.
  // The ingest loop calls this before a same-frame checkpoint — the publish
  // must be observable before the durable cut, exactly as in synchronous
  // mode — and at end of run before sealing.
  void Flush();

  bool background() const { return thread_.joinable(); }

  // Queue depth bound: deep enough to ride out a transiently descheduled
  // builder — at high shard counts the epoch interval leaves little headroom
  // over one assembly, so a single scheduler hiccup puts the builder several
  // epochs behind — yet small enough that a *persistently* slow builder
  // backpressures ingest (visible as stall_millis) instead of ballooning
  // memory. Queued jobs are deltas (reused entries carry a slot number, not
  // an index copy), so eight of them stay far smaller than one snapshot.
  static constexpr size_t kMaxQueuedJobs = 8;

 private:
  void BuilderMain();
  void Assemble(SnapshotBuildJob job);

  SnapshotSlot* const slot_;
  const Sink sink_;

  // Assembly-side state: touched only by the builder thread in background
  // mode, only by the submitting thread in synchronous mode.
  std::shared_ptr<const LiveSnapshot> prev_;
  uint64_t fallback_epoch_ = 0;

  std::mutex mu_;
  // One condvar for all three waits (builder: work available; submitter:
  // queue space; Flush: all done) — publication cadence makes signal traffic
  // negligible, and notify_all keeps the protocol obviously deadlock-free.
  std::condition_variable cv_;
  std::deque<SnapshotBuildJob> queue_;
  int64_t submitted_ = 0;
  int64_t completed_ = 0;
  bool shutdown_ = false;
  std::thread thread_;
};

}  // namespace focus::core

#endif  // FOCUS_SRC_CORE_LIVE_SNAPSHOT_H_
