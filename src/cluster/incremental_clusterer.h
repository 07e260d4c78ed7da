// Single-pass incremental object clustering (§4.2).
//
// The paper's algorithm: the first object starts cluster c1; each new object joins
// the closest existing cluster within L2 distance T of its feature vector, otherwise
// it starts a new cluster. The number of *active* (assignable) clusters is capped at
// M by retiring the smallest ones — retired clusters stay in the output (they go to
// the top-K index) but no longer accept members, keeping the pass O(M n).
//
// Membership is stored as per-object frame runs: consecutive sampled frames of one
// object that land in the same cluster collapse into [first_frame, last_frame], which
// keeps memory linear in the number of track segments instead of detections.
//
// Two assignment modes:
//   kExact scans all active clusters and picks the closest within T (the textbook
//     algorithm; used by tests and small runs).
//   kFast first tries the cluster that this object joined last frame, then a small
//     LRU of recently used clusters, and only falls back to the full scan on a miss.
//     Because object appearance drifts slowly, the hit rate is very high and results
//     are nearly identical at a fraction of the cost; large benches use this.
//
// Active centroids live in a contiguous structure-of-arrays CentroidStore; the
// full scan norm-prunes candidates and batch-evaluates survivors through the SIMD
// distance kernels, with tie semantics identical to the seed's in-order scan.
// RetireSmallest is O(log M) amortized via a lazy min-size heap.
#ifndef FOCUS_SRC_CLUSTER_INCREMENTAL_CLUSTERER_H_
#define FOCUS_SRC_CLUSTER_INCREMENTAL_CLUSTERER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cluster/centroid_store.h"
#include "src/common/feature_vector.h"
#include "src/common/result.h"
#include "src/common/time_types.h"
#include "src/video/detection.h"

namespace focus::storage {
class ArenaFile;
class RecordLogWriter;
}  // namespace focus::storage

namespace focus::cluster {

// A contiguous frame range of one object inside one cluster.
struct MemberRun {
  common::ObjectId object = 0;
  common::FrameIndex first_frame = 0;
  common::FrameIndex last_frame = 0;

  int64_t FrameCount() const { return last_frame - first_frame + 1; }
};

struct Cluster {
  int64_t id = 0;
  // Running mean of member features (not re-normalized; distances use it directly).
  // While the cluster is active this is mirrored into the clusterer's
  // CentroidStore; mutating it externally mid-stream desynchronizes the scan.
  common::FeatureVec centroid;
  int64_t size = 0;  // Number of member detections.
  std::vector<MemberRun> members;
  // The first detection that formed the cluster: the "centroid object" the GT-CNN
  // classifies at query time (§3 QT3).
  video::Detection representative;
  bool active = true;
};

struct ClustererOptions {
  // L2 distance threshold T.
  double threshold = 0.7;
  // Cap M on simultaneously active clusters.
  size_t max_active = 4096;
  enum class Mode { kExact, kFast };
  Mode mode = Mode::kFast;
  // Fast mode: number of recently used clusters probed before the full scan.
  size_t lru_probes = 48;
  // Head-tile width override for the centroid store's staged scan (0 derives
  // it from the feature dim, CentroidStore::HeadDimFor). Pruning is exact at
  // any width, so this is a cost knob — bench_cluster_assign uses it to compare
  // head-tile policies on identical workloads.
  size_t head_dim = 0;
};

class IncrementalClusterer {
 public:
  explicit IncrementalClusterer(ClustererOptions options = {});
  ~IncrementalClusterer();

  IncrementalClusterer(const IncrementalClusterer&) = delete;
  IncrementalClusterer& operator=(const IncrementalClusterer&) = delete;

  // Drops all clusters and statistics and adopts |options|, keeping the
  // centroid-store arenas and the outer containers' capacity (per-cluster
  // inner allocations — centroids, member runs — are freed with the clusters).
  // Retired merge targets are disabled again (re-enable them per run).
  // A clusterer reused across a tuner grid sweep (one run per threshold)
  // avoids re-paying the arena growth on every run. Not available on a
  // persistent clusterer (the checkpoint files would silently go stale).
  void Reset(ClustererOptions options);

  // --- Persistence (see docs/persistence.md) ---
  //
  // Building blocks for ShardedClusterer, the one reader and writer of
  // clustering checkpoints: each shard's active centroids live in a mapped
  // arena with a write-ahead undo log, and everything else is the bookkeeping
  // blob the coordinator stores in its meta file. (A one-shard
  // ShardedClusterer is the persistent form of a lone clusterer.)
  //
  // Binds |arena| and the undo log at |undo_path|; the store must be empty.
  // Without |bookkeeping| the arena is fresh and the undo log is truncated.
  // With it, |arena| was rolled back to the checkpoint that snapshotted
  // |bookkeeping|: the undo log is kept (the old window's records stay until
  // the caller's re-seal checkpoint rotates it) and the bookkeeping is decoded.
  common::Result<bool> AttachPersistence(
      std::unique_ptr<storage::ArenaFile> arena, const std::string& undo_path,
      std::optional<std::string_view> bookkeeping = std::nullopt);
  // Checkpoint step 1: msync + commit the arena header. Returns the generation.
  common::Result<uint64_t> CommitArena();
  // Checkpoint step 3 (after the coordinator's meta commit): truncate the undo
  // log and open the new window with a marker for |generation|.
  common::Result<bool> RotateUndoLog(uint64_t generation);
  // Bookkeeping beyond the arena: cluster table (centroids only for retired
  // clusters — active ones live in the arena), member runs, fast-path maps,
  // counters, and an options echo validated on restore.
  std::string EncodeBookkeeping() const;

  // Assigns |detection| (with ingest-CNN feature |feature|) to a cluster and returns
  // the cluster id.
  int64_t Add(const video::Detection& detection, const common::FeatureVec& feature);

  // Re-assigns |detection| to the cluster of the same object's previous frame without
  // touching the centroid — the pixel-differencing path (§4.2): the crop didn't
  // change, so the previous result is reused. Returns the cluster id, or Add()'s
  // behaviour if the object has no previous cluster.
  int64_t AddSuppressed(const video::Detection& detection, const common::FeatureVec& feature);

  const std::vector<Cluster>& clusters() const { return clusters_; }
  std::vector<Cluster>& mutable_clusters() { return clusters_; }
  size_t num_clusters() const { return clusters_.size(); }
  size_t num_active() const { return store_.size(); }
  int64_t total_assignments() const { return total_assignments_; }
  // Fraction of fast-mode assignments resolved without the full scan.
  double FastHitRate() const;
  // Raw fast-path counters (for aggregating hit rates across sharded instances).
  int64_t fast_hits() const { return fast_hits_; }
  int64_t fast_lookups() const { return fast_lookups_; }

  // The structure-of-arrays working set behind the full scan (scan statistics,
  // arena introspection).
  const CentroidStore& centroid_store() const { return store_; }

  // --- Retired-centroid merge targets (sharded cross-shard merging) ---
  //
  // A retired cluster's centroid is frozen, but it is still a legitimate merge
  // target: a duplicate appearance can arise in another shard *after* the
  // cluster retired, and folding the pair is exactly what the cross-shard
  // merge is for. When enabled (ShardedClusterer does this at
  // num_shards > 1), every retirement freezes the centroid into a secondary
  // read-only CentroidStore that merge passes query alongside the active one.
  // Must be called before the first assignment; volatile-cost is one row copy
  // per retirement, and the store is rebuilt from the bookkeeping snapshot on
  // recovery.
  void EnableRetiredMergeTargets();
  // Frozen centroids of retired clusters (empty unless enabled). Rows are
  // appended in retirement order on a live run and in ascending-id order after
  // recovery; FindNearest semantics (smallest-id tie break, exact pruning) are
  // slot-order independent, so merge results do not depend on which.
  const CentroidStore& retired_store() const { return retired_store_; }

 private:
  int64_t CreateCluster(const video::Detection& detection, const common::FeatureVec& feature);
  void Join(Cluster& cluster, const video::Detection& detection,
            const common::FeatureVec& feature);
  void RetireSmallest();
  void TouchLru(int64_t id);
  // Squared distance from |feature| to the active centroid of |id| with early
  // exit at |bound|; > bound when the cluster is not active.
  float ActiveDistance(int64_t id, const common::FeatureVec& feature, float bound) const;
  common::Result<bool> DecodeBookkeeping(std::string_view bookkeeping);

  ClustererOptions options_;
  std::vector<Cluster> clusters_;
  CentroidStore store_;
  // Frozen centroids of retired clusters (EnableRetiredMergeTargets); always
  // heap-backed — the centroids are already durable inside the bookkeeping
  // snapshot, so the store is derived state.
  CentroidStore retired_store_;
  bool retired_targets_ = false;
  // Lazy min-heap of (size-at-push, cluster id) over active clusters; stale
  // entries (the size grew since push) are re-keyed on pop, so RetireSmallest
  // finds the (size, id)-smallest active cluster in O(log M) amortized instead
  // of the seed's O(M) min_element.
  std::vector<std::pair<int64_t, int64_t>> retire_heap_;
  std::unordered_map<common::ObjectId, int64_t> last_cluster_of_object_;
  std::deque<int64_t> lru_;
  int64_t total_assignments_ = 0;
  int64_t fast_hits_ = 0;
  int64_t fast_lookups_ = 0;

  // Persistent backing (null when volatile). The store holds raw pointers to
  // both but never dereferences them in its destructor, so teardown order is
  // immaterial.
  std::unique_ptr<storage::ArenaFile> arena_file_;
  std::unique_ptr<storage::RecordLogWriter> undo_writer_;
  std::string undo_path_;
};

}  // namespace focus::cluster

#endif  // FOCUS_SRC_CLUSTER_INCREMENTAL_CLUSTERER_H_
