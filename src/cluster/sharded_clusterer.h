// Sharded intra-stream clustering: one stream's detections partitioned across
// per-shard IncrementalClusterer instances (§5 scale-out *within* a stream).
//
// The paper's ingest tier must keep up with live video per stream, but the
// clusterer/CentroidStore path is inherently sequential: each assignment reads
// the centroids the previous assignment may have moved. This class removes the
// single-core cap by partitioning detections onto num_shards independent
// clusterer+CentroidStore instances and merging their outputs:
//
//   shard(d) = SplitMix64(d.object_id) % num_shards
//
// Hashing on object_id (not frame or round-robin) is load-bearing twice over:
//   - every detection of one object lands in one shard, so the fast path's
//     last_cluster_of_object_ locality and the pixel-differencing
//     AddSuppressed() reuse survive sharding unchanged;
//   - MemberRun bookkeeping stays well-formed — one object's frame runs are
//     built by exactly one shard, in stream order, so runs never interleave or
//     overlap across shards.
//
// Shards cluster independently, which means two shards can each grow a cluster
// for the same real-world appearance (two similar cars whose object ids hash
// apart). A cross-shard merge pass finds shard-local clusters whose centroids
// fall within the clustering threshold T of a cluster in another shard and
// folds them — via a union-find over global cluster ids — into one canonical
// cluster; FinalizeClusters() emits the canonical table, with member runs
// concatenated and sizes conserved (the ingest engine derives the same table
// from the raw shard tables and CanonicalOf, src/core/ingest_pipeline.cc).
//
// Merging is boundary-only: passes run when the owner asks for them —
// BoundaryMergePass() at every snapshot cadence boundary and at end of stream
// (the ingest engine), and the full pass inside FinalizeClusters() — never
// as a side effect of assignment. So assignments, and the union-find,
// are independent of how detections are batched into AssignBatch calls.
//
// Cluster ids: a shard-local id l in shard s is published as the global id
//   g = l * num_shards + s
// which is collision-free across shards and reduces to g == l at num_shards=1.
// Canonical ids after merging are the smallest global id of each merged
// component (ties cannot occur; ids are unique).
//
// Determinism guarantees:
//   - the partition is a pure function of object_id, so each shard sees a fixed
//     subsequence of the stream in stream order regardless of thread count or
//     interleaving; each shard's assignments are those of a lone
//     IncrementalClusterer over that subsequence;
//   - the merge pass scans shards and shard-local ids in fixed ascending order
//     and resolves nearest-centroid ties toward the smallest id (CentroidStore
//     semantics), so the union-find — and hence every canonical id — is a pure
//     function of the input stream;
//   - at num_shards == 1 the global ids, the per-detection assignments, and the
//     finalized cluster table are identical to a plain IncrementalClusterer
//     with the same options (the merge passes have no cross-shard pairs and
//     are no-ops).
//
// Thread-safety: externally synchronized. AssignBatch() internally fans out one
// ordered task per shard onto a caller-supplied WorkerPool and drains it before
// returning; no other method may run concurrently with it.
#ifndef FOCUS_SRC_CLUSTER_SHARDED_CLUSTERER_H_
#define FOCUS_SRC_CLUSTER_SHARDED_CLUSTERER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/incremental_clusterer.h"
#include "src/common/time_types.h"
#include "src/video/detection.h"

namespace focus::runtime {
class WorkerPool;
}  // namespace focus::runtime

namespace focus::cluster {

// Outcome of ShardedClusterer::OpenOrRecover: whether a prior checkpoint was
// adopted, and the caller cursor + opaque caller blob that checkpoint carried.
struct ClustererRecovery {
  bool recovered = false;
  int64_t position = 0;
  std::string user_state;
};

struct ShardedClustererOptions {
  // Per-shard clustering parameters. max_active caps each shard's active set
  // (the total active working set is up to num_shards * max_active).
  ClustererOptions base;
  size_t num_shards = 1;
};

class ShardedClusterer {
 public:
  explicit ShardedClusterer(ShardedClustererOptions options = {});

  // Drops all clusters, merges and statistics and adopts |options|, reusing
  // each kept shard through IncrementalClusterer::Reset (centroid arenas and
  // container capacity stay warm). A tuner sweeping a parameter grid over one
  // sample re-runs clustering per configuration without re-growing the shards
  // from empty. Not available on a persistent clusterer.
  void Reset(ShardedClustererOptions options);

  // One detection ready for assignment (pointers must stay valid through the
  // AssignBatch call that consumes the item).
  struct WorkItem {
    const video::Detection* detection = nullptr;
    const common::FeatureVec* feature = nullptr;
    // True for pixel-diff suppressed detections (routed to AddSuppressed).
    bool suppressed = false;
  };

  size_t num_shards() const { return options_.num_shards; }
  size_t ShardOf(common::ObjectId object) const;
  int64_t GlobalId(size_t shard, int64_t local_id) const {
    return local_id * static_cast<int64_t>(options_.num_shards) + static_cast<int64_t>(shard);
  }

  // Sequential single-detection assignment; returns the global cluster id.
  int64_t Add(const video::Detection& detection, const common::FeatureVec& feature);
  int64_t AddSuppressed(const video::Detection& detection, const common::FeatureVec& feature);

  // Assigns |count| items, writing each item's global cluster id to out[i].
  // With |pool| non-null, one ordered task per non-empty shard runs on the
  // pool (which must be dedicated to this call's tasks — Drain() is used to
  // wait for them); with |pool| null the shards run inline, in shard order.
  // Both paths produce identical assignments (see determinism notes above).
  void AssignBatch(const WorkItem* items, size_t count, runtime::WorkerPool* pool,
                   int64_t* out);

  // Runs one *incremental boundary* merge pass: only clusters dirtied since
  // the previous pass — created, retired, or with a centroid that moved at
  // all (exact comparison; no drift tolerance) — re-issue merge queries, each
  // with the full pass's lower-shard target bound. Because an unmoved
  // cluster's nearest-within-T answer can still change when a *neighbour*
  // moves, every mover's old and new positions are then swept against the
  // higher shards' active centroids (CentroidStore::ForEachWithin at radius
  // T) and the hit clusters re-query too. The result: after this pass a full
  // pass at the same position adds no union edge, i.e. the pass reproduces
  // the full-pass closure at O(dirty + movers * neighbourhood) query cost
  // instead of O(active) — which is what makes a live epoch byte-identical to
  // halting the stream at that boundary and finalizing. A no-op at
  // num_shards == 1.
  void BoundaryMergePass();

  // --- Persistence (see docs/persistence.md) ---
  //
  // The one checkpoint protocol for clustering state (a one-shard instance is
  // the persistent form of a lone IncrementalClusterer). One arena + undo-log
  // pair per shard (shard-<s>.arena / shard-<s>.undo) plus a single
  // sharded.meta snapshot carrying every shard's bookkeeping and the
  // cross-shard merge state. The one atomic meta write is the commit point
  // for all shards at once: a crash mid-checkpoint leaves some shard arenas a
  // generation ahead, and recovery rolls each back to the generation the meta
  // recorded — so the recovered multi-shard state is always a consistent cut.

  // Attaches persistent backing under |dir| (created if needed), recovering
  // the newest committed checkpoint when one exists. Must be called before any
  // assignment, with options matching the checkpointed run's. A meta file
  // that fails its CRC, or whose contents break an invariant the clusterer
  // indexes by (a cluster id, a union-find parent, a merge candidate), is kIo
  // naming the meta path and the shard; a well-formed meta written by a
  // different meta version, shard count or clusterer options is
  // FailedPrecondition (restarting cannot fix it).
  common::Result<ClustererRecovery> OpenOrRecover(const std::string& dir);

  // Durably publishes the current state of every shard plus the merge state,
  // with an opaque caller cursor and blob. Must not run concurrently with
  // AssignBatch. With |pool| non-null the per-shard work — arena msync/commit,
  // bookkeeping encode, and undo-log rotation — fans out one task per shard
  // (the pool must be idle and dedicated to this call: Drain() is used to wait
  // for the tasks); the single meta write stays the commit point either way,
  // and errors are reported in ascending shard order so both paths fail
  // identically.
  common::Result<bool> Checkpoint(int64_t position, std::string_view user_state = {},
                                  runtime::WorkerPool* pool = nullptr);

  bool persistent() const { return !meta_path_.empty(); }

  // Canonical id of |global_id| under the merges performed so far.
  int64_t CanonicalOf(int64_t global_id) const;

  // Final canonical cluster table, ascending by canonical id: one cluster per
  // merged component with member runs concatenated in global-id order, size
  // and member runs conserved, centroid the size-weighted mean of the folded
  // centroids, and the representative taken from the smallest-global-id member
  // (the component's canonical cluster).
  std::vector<Cluster> FinalizeClusters();

  int64_t total_assignments() const;
  // Aggregate fast-path hit rate across shards.
  double FastHitRate() const;
  // Cross-shard merge unions performed so far (distinct pairs folded).
  int64_t merges_folded() const { return merges_folded_; }

  const IncrementalClusterer& shard(size_t s) const { return *shards_[s]; }

 private:
  // One *full* cross-shard merge pass: every active cluster (plus
  // clusters new since the last pass, even if already retired) is queried
  // against every lower shard's active AND frozen retired centroids; a
  // retired cluster that already issued its one final query in an earlier
  // pass is not re-queried — its frozen centroid cannot move, and it stays
  // reachable as a *target* forever, so each duplicate pair is still covered
  // from its later-created side. FinalizeClusters() runs one as its
  // correctness backstop.
  void MergePass();
  // Union-find over global ids, lazily grown; roots are component minima.
  int64_t Find(int64_t global_id) const;
  void Union(int64_t a, int64_t b);
  // One cluster's merge queries: nearest-within-T against every lower shard's
  // active and retired stores, unioning on a hit. Shared by the full and
  // boundary passes so both produce identical edges for the same (cluster,
  // position); every unordered cross-shard pair is covered from its
  // higher-shard side.
  void QueryAgainstShards(size_t s, int64_t local_id, const common::FeatureVec& centroid,
                          float threshold_sq);

  ShardedClustererOptions options_;
  std::vector<std::unique_ptr<IncrementalClusterer>> shards_;
  // parent_[g] == g for roots; ids beyond the vector are implicit singletons.
  mutable std::vector<int64_t> parent_;
  // Per shard: local cluster count already used as merge queries, so the
  // boundary pass only queries what appeared since the previous pass.
  std::vector<size_t> merge_scanned_;
  // Per shard: the already-considered *active* clusters (ascending local id)
  // with each one's centroid as of its last use as a merge query, so the
  // boundary pass can re-query exactly the clusters that moved since.
  // Entries are dropped as clusters retire, keeping every pass O(active
  // working set) — never O(clusters ever created).
  struct MergeCandidate {
    size_t local_id = 0;
    common::FeatureVec snapshot;  // Centroid when last considered.
  };
  std::vector<std::vector<MergeCandidate>> merge_considered_;
  int64_t merges_folded_ = 0;
  // Per-shard item index lists, reused across AssignBatch calls.
  std::vector<std::vector<size_t>> shard_items_;
  // Persistence (empty when volatile).
  std::string persist_dir_;
  std::string meta_path_;
};

}  // namespace focus::cluster

#endif  // FOCUS_SRC_CLUSTER_SHARDED_CLUSTERER_H_
