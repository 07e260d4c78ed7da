#include "src/cluster/incremental_clusterer.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "src/cluster/cluster_codec.h"
#include "src/common/logging.h"
#include "src/common/simd_distance.h"
#include "src/storage/arena_file.h"
#include "src/storage/record_log.h"
#include "src/storage/serializer.h"

namespace focus::cluster {

namespace {

// How many trailing member runs to scan when extending an object's frame run.
constexpr size_t kRunMergeScan = 8;

void AppendMember(Cluster& cluster, const video::Detection& detection) {
  // Extend an existing run when this is the next sampled frame of the same object.
  size_t scanned = 0;
  for (auto it = cluster.members.rbegin();
       it != cluster.members.rend() && scanned < kRunMergeScan; ++it, ++scanned) {
    if (it->object == detection.object_id) {
      if (detection.frame == it->last_frame + 1) {
        it->last_frame = detection.frame;
        return;
      }
      break;  // Same object but non-contiguous: new run.
    }
  }
  MemberRun run;
  run.object = detection.object_id;
  run.first_frame = detection.frame;
  run.last_frame = detection.frame;
  cluster.members.push_back(run);
}

}  // namespace

IncrementalClusterer::IncrementalClusterer(ClustererOptions options) : options_(options) {
  store_.SetHeadDim(options_.head_dim);
}

IncrementalClusterer::~IncrementalClusterer() = default;

void IncrementalClusterer::Reset(ClustererOptions options) {
  // A persistent clusterer must not be recycled: its checkpoint files would
  // keep describing the dropped state.
  FOCUS_CHECK(arena_file_ == nullptr);
  options_ = options;
  clusters_.clear();
  store_.Reset();
  store_.SetHeadDim(options_.head_dim);
  retired_store_.Reset();
  retired_targets_ = false;
  retire_heap_.clear();
  last_cluster_of_object_.clear();
  lru_.clear();
  total_assignments_ = 0;
  fast_hits_ = 0;
  fast_lookups_ = 0;
}

double IncrementalClusterer::FastHitRate() const {
  return fast_lookups_ > 0 ? static_cast<double>(fast_hits_) / static_cast<double>(fast_lookups_)
                           : 0.0;
}

int64_t IncrementalClusterer::CreateCluster(const video::Detection& detection,
                                            const common::FeatureVec& feature) {
  // Retire *before* inserting: retiring after could evict the just-created
  // size-1 cluster while it is still handed out as the assignment target.
  if (store_.size() >= options_.max_active) {
    RetireSmallest();
  }
  Cluster c;
  c.id = static_cast<int64_t>(clusters_.size());
  c.centroid = feature;
  c.size = 1;
  c.representative = detection;
  AppendMember(c, detection);
  clusters_.push_back(std::move(c));
  const int64_t id = clusters_.back().id;
  store_.Add(id, clusters_.back().centroid.data(), clusters_.back().centroid.size(), 1);
  retire_heap_.emplace_back(1, id);
  std::push_heap(retire_heap_.begin(), retire_heap_.end(), std::greater<>());
  TouchLru(id);
  return id;
}

void IncrementalClusterer::Join(Cluster& cluster, const video::Detection& detection,
                                const common::FeatureVec& feature) {
  // Running-mean centroid update.
  double w = 1.0 / static_cast<double>(cluster.size + 1);
  for (size_t i = 0; i < cluster.centroid.size(); ++i) {
    cluster.centroid[i] =
        static_cast<float>(cluster.centroid[i] * (1.0 - w) + feature[i] * w);
  }
  ++cluster.size;
  AppendMember(cluster, detection);
  store_.Update(cluster.id, cluster.centroid.data());
  store_.SetSize(cluster.id, cluster.size);
}

void IncrementalClusterer::RetireSmallest() {
  // Lazy heap: a popped entry whose size is stale (the cluster grew since push)
  // is re-keyed at its current size; the first fresh pop is the minimum over
  // current sizes (sizes only grow), with ties on the smaller id — the same
  // cluster the seed's first-seen min_element scan picked.
  while (!retire_heap_.empty()) {
    std::pop_heap(retire_heap_.begin(), retire_heap_.end(), std::greater<>());
    const auto [size_at_push, id] = retire_heap_.back();
    retire_heap_.pop_back();
    Cluster& c = clusters_[static_cast<size_t>(id)];
    if (!c.active) {
      continue;
    }
    if (c.size != size_at_push) {
      retire_heap_.emplace_back(c.size, id);
      std::push_heap(retire_heap_.begin(), retire_heap_.end(), std::greater<>());
      continue;
    }
    c.active = false;
    store_.Remove(id);
    if (retired_targets_) {
      // Freeze the centroid as a merge target: a duplicate appearance in
      // another shard may only show up after this retirement.
      retired_store_.Add(id, c.centroid.data(), c.centroid.size(), c.size);
    }
    return;
  }
}

void IncrementalClusterer::EnableRetiredMergeTargets() {
  FOCUS_CHECK(clusters_.empty());
  retired_targets_ = true;
}

void IncrementalClusterer::TouchLru(int64_t id) {
  // Move-to-front with dedup: leaving stale occurrences in place would let one
  // hot cluster occupy several of the lru_probes slots in Add's probe loop,
  // silently narrowing the set of distinct clusters the fast path considers.
  if (!lru_.empty() && lru_.front() == id) {
    return;
  }
  auto it = std::find(lru_.begin(), lru_.end(), id);
  if (it != lru_.end()) {
    lru_.erase(it);
  }
  lru_.push_front(id);
  if (lru_.size() > options_.lru_probes) {
    lru_.pop_back();
  }
}

float IncrementalClusterer::ActiveDistance(int64_t id, const common::FeatureVec& feature,
                                           float bound) const {
  const float* row = store_.CentroidOf(id);
  if (row == nullptr) {
    return std::numeric_limits<float>::max();
  }
  return common::simd::SquaredL2Bounded(feature.data(), row, feature.size(), bound);
}

int64_t IncrementalClusterer::Add(const video::Detection& detection,
                                  const common::FeatureVec& feature) {
  ++total_assignments_;
  const float threshold_sq = static_cast<float>(options_.threshold * options_.threshold);

  if (options_.mode == ClustererOptions::Mode::kFast) {
    ++fast_lookups_;
    // 1. The cluster this object joined most recently.
    auto it = last_cluster_of_object_.find(detection.object_id);
    if (it != last_cluster_of_object_.end() &&
        ActiveDistance(it->second, feature, threshold_sq) <= threshold_sq) {
      Cluster& c = clusters_[static_cast<size_t>(it->second)];
      Join(c, detection, feature);
      ++fast_hits_;
      return c.id;
    }
    // 2. Recently used clusters. Retired ids are dropped from the deque as they
    // are encountered, without charging a probe: every one of the lru_probes
    // attempts goes to a distinct live cluster.
    size_t probes = 0;
    for (auto it = lru_.begin(); it != lru_.end() && probes < options_.lru_probes;) {
      const int64_t id = *it;
      if (!clusters_[static_cast<size_t>(id)].active) {
        it = lru_.erase(it);
        continue;
      }
      ++probes;
      if (ActiveDistance(id, feature, threshold_sq) <= threshold_sq) {
        Cluster& c = clusters_[static_cast<size_t>(id)];
        Join(c, detection, feature);
        last_cluster_of_object_[detection.object_id] = c.id;
        TouchLru(c.id);
        ++fast_hits_;
        return c.id;
      }
      ++it;
    }
  }

  // Full scan: closest active cluster within T (norm prune + batched SIMD over
  // the contiguous store; first-seen tie semantics preserved via smallest-id).
  float best_dist = 0.0f;
  const int64_t best =
      store_.FindNearest(feature.data(), feature.size(), threshold_sq, &best_dist);
  if (best >= 0) {
    Cluster& c = clusters_[static_cast<size_t>(best)];
    Join(c, detection, feature);
    last_cluster_of_object_[detection.object_id] = c.id;
    TouchLru(c.id);
    return c.id;
  }

  int64_t id = CreateCluster(detection, feature);
  last_cluster_of_object_[detection.object_id] = id;
  return id;
}

std::string IncrementalClusterer::EncodeBookkeeping() const {
  storage::Encoder enc;
  // Options echo, validated on restore: recovering under different clustering
  // parameters would silently change semantics mid-stream.
  enc.PutDouble(options_.threshold);
  enc.PutVarint(options_.max_active);
  enc.PutU8(options_.mode == ClustererOptions::Mode::kFast ? 1 : 0);
  enc.PutVarint(options_.lru_probes);
  enc.PutVarint(options_.head_dim);

  // Cluster table. Ids are the table index; active centroids live in the
  // arena, so only retired clusters carry their centroid here (needed by the
  // sharded finalize, which folds centroids of clusters retired after a merge).
  enc.PutVarint(clusters_.size());
  for (const Cluster& c : clusters_) {
    enc.PutU8(c.active ? 1 : 0);
    enc.PutSignedVarint(c.size);
    EncodeDetection(enc, c.representative);
    enc.PutVarint(c.members.size());
    for (const MemberRun& run : c.members) {
      enc.PutSignedVarint(run.object);
      enc.PutSignedVarint(run.first_frame);
      enc.PutSignedVarint(run.last_frame);
    }
    if (!c.active) {
      EncodeFeatureVec(enc, c.centroid);
    }
  }

  enc.PutVarint(last_cluster_of_object_.size());
  for (const auto& [object, cluster] : last_cluster_of_object_) {
    enc.PutSignedVarint(object);
    enc.PutSignedVarint(cluster);
  }
  enc.PutVarint(lru_.size());
  for (int64_t id : lru_) {
    enc.PutSignedVarint(id);
  }
  enc.PutSignedVarint(total_assignments_);
  enc.PutSignedVarint(fast_hits_);
  enc.PutSignedVarint(fast_lookups_);
  return enc.TakeBytes();
}

common::Result<bool> IncrementalClusterer::DecodeBookkeeping(std::string_view bookkeeping) {
  storage::Decoder dec(bookkeeping);
  // The coordinator prefixes the meta path and shard index.
  auto corrupt = [](const std::string& what) {
    return common::Error{common::ErrorCode::kIo, "clusterer bookkeeping corrupt: " + what};
  };

  double threshold = 0.0;
  uint64_t max_active = 0;
  uint8_t mode = 0;
  uint64_t lru_probes = 0;
  uint64_t head_dim = 0;
  if (!dec.GetDouble(&threshold) || !dec.GetVarint(&max_active) || !dec.GetU8(&mode) ||
      !dec.GetVarint(&lru_probes) || !dec.GetVarint(&head_dim)) {
    return corrupt("options echo");
  }
  const bool fast = options_.mode == ClustererOptions::Mode::kFast;
  if (threshold != options_.threshold || max_active != options_.max_active ||
      (mode != 0) != fast || lru_probes != options_.lru_probes ||
      head_dim != options_.head_dim) {
    return common::FailedPrecondition(
        "clusterer options do not match the checkpointed run");
  }

  uint64_t num_clusters = 0;
  if (!dec.GetVarint(&num_clusters) || num_clusters > dec.remaining()) {
    return corrupt("cluster count");
  }
  // Any cluster ever created initialized the arena, which fixes the dimension
  // every centroid below must have.
  if (num_clusters > 0 && store_.dim() == 0) {
    return corrupt(std::to_string(num_clusters) + " clusters over an empty arena");
  }
  clusters_.clear();
  clusters_.reserve(static_cast<size_t>(num_clusters));
  for (uint64_t i = 0; i < num_clusters; ++i) {
    Cluster c;
    c.id = static_cast<int64_t>(i);
    uint8_t active = 0;
    uint64_t num_runs = 0;
    if (!dec.GetU8(&active) || !dec.GetSignedVarint(&c.size) ||
        !DecodeDetection(dec, &c.representative) || !dec.GetVarint(&num_runs) ||
        num_runs > dec.remaining()) {
      return corrupt("cluster " + std::to_string(i));
    }
    c.active = active != 0;
    c.members.reserve(static_cast<size_t>(num_runs));
    for (uint64_t r = 0; r < num_runs; ++r) {
      MemberRun run;
      if (!dec.GetSignedVarint(&run.object) || !dec.GetSignedVarint(&run.first_frame) ||
          !dec.GetSignedVarint(&run.last_frame)) {
        return corrupt("member runs of cluster " + std::to_string(i));
      }
      c.members.push_back(run);
    }
    if (c.active) {
      // The live centroid is the arena row recovered into the store.
      const float* row = store_.CentroidOf(c.id);
      if (row == nullptr) {
        return corrupt("active cluster " + std::to_string(i) + " has no arena row");
      }
      c.centroid.assign(row, row + store_.dim());
    } else if (!DecodeFeatureVec(dec, &c.centroid) || c.centroid.size() != store_.dim()) {
      return corrupt("centroid of retired cluster " + std::to_string(i));
    }
    clusters_.push_back(std::move(c));
  }
  size_t active_count = 0;
  for (const Cluster& c : clusters_) {
    if (c.active) {
      ++active_count;
    }
  }
  if (active_count != store_.size()) {
    return corrupt(std::to_string(active_count) + " active clusters but " +
                   std::to_string(store_.size()) + " arena rows");
  }
  if (retired_targets_) {
    // Derived state: re-freeze every retired centroid (ascending id; merge
    // results are slot-order independent, see retired_store()).
    for (const Cluster& c : clusters_) {
      if (!c.active) {
        retired_store_.Add(c.id, c.centroid.data(), c.centroid.size(), c.size);
      }
    }
  }

  uint64_t num_objects = 0;
  if (!dec.GetVarint(&num_objects) || num_objects > dec.remaining()) {
    return corrupt("object count");
  }
  // Ids the fast path and the LRU index clusters_ with.
  auto valid_id = [&](int64_t id) { return id >= 0 && static_cast<uint64_t>(id) < num_clusters; };
  last_cluster_of_object_.clear();
  last_cluster_of_object_.reserve(static_cast<size_t>(num_objects));
  for (uint64_t i = 0; i < num_objects; ++i) {
    int64_t object = 0;
    int64_t cluster = 0;
    if (!dec.GetSignedVarint(&object) || !dec.GetSignedVarint(&cluster)) {
      return corrupt("object map");
    }
    if (!valid_id(cluster)) {
      return corrupt("object " + std::to_string(object) + " maps to cluster " +
                     std::to_string(cluster) + " of " + std::to_string(num_clusters));
    }
    last_cluster_of_object_.emplace(object, cluster);
  }
  uint64_t lru_len = 0;
  if (!dec.GetVarint(&lru_len) || lru_len > dec.remaining()) {
    return corrupt("lru length");
  }
  lru_.clear();
  for (uint64_t i = 0; i < lru_len; ++i) {
    int64_t id = 0;
    if (!dec.GetSignedVarint(&id)) {
      return corrupt("lru");
    }
    if (!valid_id(id)) {
      return corrupt("lru names cluster " + std::to_string(id) + " of " +
                     std::to_string(num_clusters));
    }
    lru_.push_back(id);
  }
  if (!dec.GetSignedVarint(&total_assignments_) || !dec.GetSignedVarint(&fast_hits_) ||
      !dec.GetSignedVarint(&fast_lookups_) || !dec.Done()) {
    return corrupt("counters");
  }

  // Rebuild the retire heap from current sizes. The lazy heap's selection is
  // always the minimum over *current* (size, id) of active clusters — stale
  // entries re-key on pop — so a freshly keyed heap retires the same clusters
  // in the same order as the checkpointed one.
  retire_heap_.clear();
  for (const Cluster& c : clusters_) {
    if (c.active) {
      retire_heap_.emplace_back(c.size, c.id);
    }
  }
  std::make_heap(retire_heap_.begin(), retire_heap_.end(), std::greater<>());
  return true;
}

common::Result<bool> IncrementalClusterer::AttachPersistence(
    std::unique_ptr<storage::ArenaFile> arena, const std::string& undo_path,
    std::optional<std::string_view> bookkeeping) {
  FOCUS_CHECK(clusters_.empty() && store_.empty() && arena_file_ == nullptr);
  auto writer = storage::RecordLogWriter::Open(undo_path, /*truncate=*/!bookkeeping.has_value());
  if (!writer.ok()) {
    return writer.error();
  }
  arena_file_ = std::move(arena);
  undo_path_ = undo_path;
  undo_writer_ =
      std::make_unique<storage::RecordLogWriter>(std::move(writer).value());
  store_.AttachArena(arena_file_.get(), undo_writer_.get());
  if (!bookkeeping.has_value()) {
    return true;
  }
  return DecodeBookkeeping(*bookkeeping);
}

common::Result<uint64_t> IncrementalClusterer::CommitArena() {
  FOCUS_CHECK(arena_file_ != nullptr);
  if (!arena_file_->initialized()) {
    // No detection has fixed the arena shape yet (a checkpoint before the
    // first Add): generation 0 denotes the empty state.
    return uint64_t{0};
  }
  return store_.CommitCheckpoint();
}

common::Result<bool> IncrementalClusterer::RotateUndoLog(uint64_t generation) {
  FOCUS_CHECK(arena_file_ != nullptr);
  auto writer = storage::RecordLogWriter::Open(undo_path_, /*truncate=*/true);
  if (!writer.ok()) {
    return writer.error();
  }
  undo_writer_ =
      std::make_unique<storage::RecordLogWriter>(std::move(writer).value());
  storage::ArenaUndo marker;
  marker.kind = storage::ArenaUndo::Kind::kMarker;
  marker.generation = generation;
  marker.rows = arena_file_->initialized() ? arena_file_->committed_rows() : 0;
  if (auto appended = undo_writer_->Append(marker.Encode()); !appended.ok()) {
    return appended.error();
  }
  store_.SetUndoWriter(undo_writer_.get());
  return true;
}

int64_t IncrementalClusterer::AddSuppressed(const video::Detection& detection,
                                            const common::FeatureVec& feature) {
  ++total_assignments_;
  auto it = last_cluster_of_object_.find(detection.object_id);
  if (it != last_cluster_of_object_.end()) {
    Cluster& c = clusters_[static_cast<size_t>(it->second)];
    if (c.active) {
      // Membership only: the crop did not change, so the previous classification and
      // feature are reused and the centroid is left untouched.
      ++c.size;
      store_.SetSize(c.id, c.size);
      AppendMember(c, detection);
      return c.id;
    }
  }
  return Add(detection, feature);
}

}  // namespace focus::cluster
