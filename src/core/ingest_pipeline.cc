#include "src/core/ingest_pipeline.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/cluster/cluster_codec.h"
#include "src/common/logging.h"
#include "src/runtime/worker_pool.h"
#include "src/storage/serializer.h"

namespace focus::core {

namespace {

// Per-cluster index state: for every class that appeared in some member's top-K
// output, the best (smallest) rank it achieved. Union semantics follow §3's index —
// a cluster is retrievable under class X when any of its objects had X in its top-K —
// and the best rank supports the §5 dynamic-Kx filter.
//
// Stored as flat per-cluster arrays over the class space (generic labels plus
// OTHER): a rank update is two array accesses, which matters because ingest performs
// one update per (detection, top-K position) — with K~200 that is the single
// hottest loop of the tuner's grid sweep.
class BestRankTable {
 public:
  // Generic label space plus the specialized models' OTHER label.
  static constexpr int kRankSpace = video::kNumClasses + 1;

  // Records that |cls| appeared at 1-based |rank| in cluster |cluster_id|'s member
  // output, keeping the minimum rank per (cluster, class).
  void Update(int64_t cluster_id, common::ClassId cls, int32_t rank) {
    if (static_cast<size_t>(cluster_id) >= ranks_.size()) {
      ranks_.resize(static_cast<size_t>(cluster_id) + 1);
      present_.resize(static_cast<size_t>(cluster_id) + 1);
    }
    std::vector<int32_t>& row = ranks_[static_cast<size_t>(cluster_id)];
    if (row.empty()) {
      row.assign(kRankSpace, kUnranked);
    }
    int32_t& slot = row[static_cast<size_t>(cls)];
    if (slot == kUnranked) {
      present_[static_cast<size_t>(cluster_id)].push_back(cls);
      slot = rank;
    } else if (rank < slot) {
      slot = rank;
    }
  }

  // Invokes |fn|(class, best_rank) for every class recorded for |cluster_id|.
  // The canonical cut uses this to fold only the raw clusters of a *changed*
  // canonical component instead of replaying the whole table.
  template <typename Fn>
  void ForEachOf(int64_t cluster_id, Fn&& fn) const {
    if (static_cast<size_t>(cluster_id) >= present_.size()) {
      return;
    }
    const std::vector<int32_t>& row = ranks_[static_cast<size_t>(cluster_id)];
    for (common::ClassId cls : present_[static_cast<size_t>(cluster_id)]) {
      fn(cls, row[static_cast<size_t>(cls)]);
    }
  }

  void EncodeTo(storage::Encoder& enc) const {
    enc.PutVarint(present_.size());
    for (size_t c = 0; c < present_.size(); ++c) {
      const std::vector<int32_t>& row = ranks_[c];
      enc.PutVarint(present_[c].size());
      for (common::ClassId cls : present_[c]) {
        enc.PutSignedVarint(cls);
        enc.PutSignedVarint(row[static_cast<size_t>(cls)]);
      }
    }
  }

  bool DecodeFrom(storage::Decoder& dec) {
    uint64_t clusters = 0;
    if (!dec.GetVarint(&clusters) || clusters > dec.remaining()) {
      return false;
    }
    for (uint64_t c = 0; c < clusters; ++c) {
      uint64_t classes = 0;
      if (!dec.GetVarint(&classes) || classes > dec.remaining()) {
        return false;
      }
      for (uint64_t i = 0; i < classes; ++i) {
        int64_t cls = 0;
        int64_t rank = 0;
        if (!dec.GetSignedVarint(&cls) || !dec.GetSignedVarint(&rank) || cls < 0 ||
            cls >= kRankSpace) {
          return false;
        }
        Update(static_cast<int64_t>(c), static_cast<common::ClassId>(cls),
               static_cast<int32_t>(rank));
      }
    }
    return true;
  }

 private:
  static constexpr int32_t kUnranked = std::numeric_limits<int32_t>::max();

  std::vector<std::vector<int32_t>> ranks_;           // cluster -> class -> best rank.
  std::vector<std::vector<common::ClassId>> present_; // cluster -> classes seen.
};

// The pixel-differencing detection stage (IT1 + §4.2), shared by live ingest
// and ClassifySample: a detection whose crop matched its object's previous
// sampled frame reuses that frame's classification and feature; every other
// detection runs the cheap CNN.
class DetectionStage {
 public:
  DetectionStage(const cnn::Cnn& cnn, int k, bool use_pixel_diff)
      : cnn_(cnn), k_(k), use_pixel_diff_(use_pixel_diff) {}

  // Classifies |d| into |out|. Every field is copy-assigned, so an |out|
  // reused across frames keeps its buffers' capacity.
  void Process(const video::Detection& d, common::FrameIndex frame, ClassifiedDetection* out) {
    out->detection = d;
    if (use_pixel_diff_ && d.pixel_diff_suppressed) {
      if (auto it = last_.find(d.object_id); it != last_.end()) {
        ++suppressed_;
        it->second.last_seen = frame;
        out->topk = it->second.topk;
        out->feature = it->second.feature;
        out->reused = true;
        return;
      }
    }
    ++cnn_invocations_;
    gpu_millis_ += cnn_.inference_cost_millis();
    Reuse& entry = last_[d.object_id];
    entry.topk = cnn_.Classify(d, k_);
    entry.feature = cnn_.ExtractFeature(d);
    entry.last_seen = frame;
    out->topk = entry.topk;
    out->feature = entry.feature;
    out->reused = false;
  }

  // Pixel differencing only ever reuses the result of the same object's
  // *previous sampled frame* (suppression requires the crop to match
  // frame-to-frame), so an entry idle longer than |gap| is treated as an
  // exited track and dropped. The persistent path evicts at every checkpoint,
  // keeping the snapshotted state proportional to the objects currently in
  // scene — which is what keeps recovery O(working set) on long retention
  // windows. See IngestOptions::reuse_evict_gap_frames.
  void EvictIdle(common::FrameIndex frame, common::FrameIndex gap) {
    std::erase_if(last_, [&](const auto& kv) { return frame - kv.second.last_seen > gap; });
  }

  // Copies the classification accounting of the pass so far into an
  // IngestResult or a ClassifiedSample.
  template <typename Counts>
  void CopyCounts(Counts* out) const {
    out->gpu_millis = gpu_millis_;
    out->cnn_invocations = cnn_invocations_;
    out->suppressed = suppressed_;
  }

  // The stage's part of the checkpoint blob (IngestEngine::EncodeState).
  std::string Encode() const {
    storage::Encoder enc;
    enc.PutDouble(gpu_millis_);
    enc.PutSignedVarint(cnn_invocations_);
    enc.PutSignedVarint(suppressed_);
    enc.PutVarint(last_.size());
    for (const auto& [object, entry] : last_) {
      enc.PutSignedVarint(object);
      enc.PutSignedVarint(entry.last_seen);
      enc.PutVarint(entry.topk.entries.size());
      for (const auto& [cls, confidence] : entry.topk.entries) {
        enc.PutSignedVarint(cls);
        enc.PutFloat(confidence);
      }
      cluster::EncodeFeatureVec(enc, entry.feature);
    }
    return enc.TakeBytes();
  }

  // |feature_dim| is the dimension the recovered clusterer arenas fixed: a
  // reused feature is assigned like a fresh one, so it must match.
  bool DecodeFrom(storage::Decoder& dec, size_t feature_dim) {
    uint64_t count = 0;
    if (!dec.GetDouble(&gpu_millis_) || !dec.GetSignedVarint(&cnn_invocations_) ||
        !dec.GetSignedVarint(&suppressed_) || !dec.GetVarint(&count) ||
        count > dec.remaining()) {
      return false;
    }
    for (uint64_t i = 0; i < count; ++i) {
      int64_t object = 0;
      Reuse entry;
      uint64_t entries = 0;
      if (!dec.GetSignedVarint(&object) || !dec.GetSignedVarint(&entry.last_seen) ||
          !dec.GetVarint(&entries) || entries > dec.remaining()) {
        return false;
      }
      entry.topk.entries.reserve(static_cast<size_t>(entries));
      for (uint64_t e = 0; e < entries; ++e) {
        int64_t cls = 0;
        float confidence = 0.0f;
        // A reused class indexes the rank table's rows (BestRankTable::Update).
        if (!dec.GetSignedVarint(&cls) || !dec.GetFloat(&confidence) || cls < 0 ||
            cls >= BestRankTable::kRankSpace) {
          return false;
        }
        entry.topk.entries.emplace_back(static_cast<common::ClassId>(cls), confidence);
      }
      if (!cluster::DecodeFeatureVec(dec, &entry.feature) || feature_dim == 0 ||
          entry.feature.size() != feature_dim) {
        return false;
      }
      last_.insert_or_assign(object, std::move(entry));
    }
    return true;
  }

 private:
  // An object's latest classification, reused on pixel-diff suppressed
  // frames, and the last sampled frame it was seen on (checkpointed with the
  // map so post-resume eviction sees the same idle gaps an uninterrupted run
  // sees).
  struct Reuse {
    cnn::TopKResult topk;
    common::FeatureVec feature;
    common::FrameIndex last_seen = 0;
  };

  const cnn::Cnn& cnn_;
  const int k_;
  const bool use_pixel_diff_;
  std::unordered_map<common::ObjectId, Reuse> last_;
  common::GpuMillis gpu_millis_ = 0.0;
  int64_t cnn_invocations_ = 0;
  int64_t suppressed_ = 0;
};

// Cuts the canonical cluster table out of a ShardedClusterer's raw shard
// tables as index entries. One instance carries the delta state across cuts —
// which raw cluster ids were assigned to since the last cut, and where each
// canonical cluster sat in the previous cut — so an unchanged canonical
// cluster's entry is carried forward by slot instead of re-folded and
// re-sorted. A fresh instance builds every entry (the end-of-stream index).
class CanonicalCut {
 public:
  // Records an assignment target (raw global cluster id) since the last cut;
  // the delta build rebuilds exactly the touched components.
  void Touch(int64_t raw_id) { touched_.insert(raw_id); }

  // Appends one item per canonical cluster to |items|, ascending canonical id:
  // the previous cut's slot for a clean cluster, a built entry for the rest.
  // Requires the union-find converged (a boundary merge pass just ran). The
  // table is derived by one ascending-global-id walk over the raw shard
  // tables (local asc, shard asc), so components' roots appear in first-seen
  // order == ascending root order — exactly FinalizeClusters' table order —
  // and a component's members concatenate in the same raw order
  // FinalizeClusters folds them. Clean components carry forward by
  // previous-cut slot without touching their members at all.
  void Cut(const cluster::ShardedClusterer& sharded, const BestRankTable& ranks,
           std::vector<SnapshotBuildItem>* items) {
    Census(sharded);
    const size_t num_shards = sharded.num_shards();

    items->reserve(roots_in_order_.size());
    for (size_t i = 0; i < roots_in_order_.size(); ++i) {
      const int64_t root = roots_in_order_[i];
      SnapshotBuildItem& item = items->emplace_back();
      if (root_clean_[i]) {
        item.reused = true;
        item.prev_slot = static_cast<size_t>(prev_slot_by_canonical_[static_cast<size_t>(root)]);
        continue;
      }
      for (size_t r = dirty_begin_[i]; r < dirty_begin_[i + 1]; ++r) {
        const int64_t raw = dirty_raws_[r];
        const size_t s = static_cast<size_t>(raw) % num_shards;
        const size_t l = static_cast<size_t>(raw) / num_shards;
        const cluster::Cluster& src = sharded.shard(s).clusters()[l];
        if (raw == root) {
          // The root is the component's minimum id, so it is the raw cluster
          // FinalizeClusters seeds the canonical entry (and representative)
          // from. The index keeps the centroid's identity, not its appearance.
          const video::Detection& rep = src.representative;
          item.entry.representative = {rep.frame, rep.object_id, rep.bbox,
                                       rep.pixel_diff_suppressed, rep.first_observation,
                                       rep.true_class, {}};
        }
        item.entry.members.insert(item.entry.members.end(), src.members.begin(),
                                  src.members.end());
        item.entry.size += src.size;
      }
      FoldRanks(ranks, &dirty_raws_[dirty_begin_[i]], dirty_begin_[i + 1] - dirty_begin_[i],
                item.entry);
    }
    CommitCensus();
    have_prev_ = true;
    touched_.clear();
  }

 private:
  // Census of the canonical table, one pair of ascending-global-id walks over
  // the raw shard tables (local asc, shard asc == ascending g): roots in ascending
  // canonical order, per-component raw counts, memoized union-find lookups,
  // per-root clean flags, and the CSR raw-member spans of every dirty
  // component. A canonical cluster is clean — its entry of the previous epoch
  // still byte-exact — iff it existed then, no raw member was assigned to
  // since, and its component composition (which only ever grows) kept the
  // same raw count.
  void Census(const cluster::ShardedClusterer& sharded) {
    const size_t num_shards = sharded.num_shards();
    size_t max_locals = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      max_locals = std::max(max_locals, sharded.shard(s).clusters().size());
    }
    census_size_ = num_shards * max_locals;
    comp_count_.assign(census_size_, 0);
    canon_of_.assign(census_size_, -1);
    slot_of_root_.assign(census_size_, -1);
    roots_in_order_.clear();
    for (size_t l = 0; l < max_locals; ++l) {
      for (size_t s = 0; s < num_shards; ++s) {
        if (l >= sharded.shard(s).clusters().size()) {
          continue;
        }
        const int64_t g = sharded.GlobalId(s, static_cast<int64_t>(l));
        const int64_t root = sharded.CanonicalOf(g);
        canon_of_[static_cast<size_t>(g)] = root;
        if (root == g) {
          slot_of_root_[static_cast<size_t>(g)] = static_cast<int64_t>(roots_in_order_.size());
          roots_in_order_.push_back(g);
        }
        ++comp_count_[static_cast<size_t>(root)];
      }
    }
    ++cut_seq_;
    if (touched_mark_.size() < census_size_) {
      touched_mark_.resize(census_size_, 0);
    }
    for (const int64_t raw : touched_) {
      const int64_t root = canon_of_[static_cast<size_t>(raw)] >= 0
                               ? canon_of_[static_cast<size_t>(raw)]
                               : sharded.CanonicalOf(raw);
      touched_mark_[static_cast<size_t>(root)] = cut_seq_;
    }
    root_clean_.assign(roots_in_order_.size(), 0);
    dirty_begin_.assign(roots_in_order_.size() + 1, 0);
    size_t dirty_total = 0;
    for (size_t i = 0; i < roots_in_order_.size(); ++i) {
      const size_t root = static_cast<size_t>(roots_in_order_[i]);
      const bool clean = have_prev_ && touched_mark_[root] != cut_seq_ &&
                         root < prev_slot_by_canonical_.size() &&
                         prev_slot_by_canonical_[root] >= 0 &&
                         prev_comp_count_[root] == comp_count_[root];
      root_clean_[i] = clean ? 1 : 0;
      dirty_begin_[i] = dirty_total;
      if (!clean) {
        dirty_total += static_cast<size_t>(comp_count_[root]);
      }
    }
    dirty_begin_[roots_in_order_.size()] = dirty_total;
    // CSR fill, ascending global id per component — the cut's member
    // concatenation must match FinalizeClusters' fold order (the rank fold is
    // a min per class, so for it alone the order would be immaterial).
    dirty_raws_.resize(dirty_total);
    dirty_fill_.assign(dirty_begin_.begin(), dirty_begin_.end());
    for (size_t l = 0; l < max_locals; ++l) {
      for (size_t s = 0; s < num_shards; ++s) {
        if (l >= sharded.shard(s).clusters().size()) {
          continue;
        }
        const int64_t g = sharded.GlobalId(s, static_cast<int64_t>(l));
        const size_t root = static_cast<size_t>(canon_of_[static_cast<size_t>(g)]);
        const size_t slot = static_cast<size_t>(slot_of_root_[root]);
        if (!root_clean_[slot]) {
          dirty_raws_[dirty_fill_[slot]++] = g;
        }
      }
    }
  }

  // Publishes this cut's census as the next cut's "previous epoch" view.
  void CommitCensus() {
    prev_slot_by_canonical_.assign(census_size_, -1);
    for (size_t i = 0; i < roots_in_order_.size(); ++i) {
      prev_slot_by_canonical_[static_cast<size_t>(roots_in_order_[i])] = static_cast<int64_t>(i);
    }
    std::swap(prev_comp_count_, comp_count_);
  }

  // Min-folds the component's raw rank rows into |entry|'s ranked class
  // lists: best rank first, class id tie-break.
  void FoldRanks(const BestRankTable& ranks, const int64_t* raws, size_t count,
                 index::ClusterEntry& entry) {
    ranked_.clear();
    for (size_t j = 0; j < count; ++j) {
      ranks.ForEachOf(raws[j], [&](common::ClassId cls, int32_t rank) {
        int32_t& slot = slot_of_class_[static_cast<size_t>(cls)];
        if (slot < 0) {
          slot = static_cast<int32_t>(ranked_.size());
          ranked_.emplace_back(rank, cls);
        } else if (rank < ranked_[static_cast<size_t>(slot)].first) {
          ranked_[static_cast<size_t>(slot)].first = rank;
        }
      });
    }
    for (const auto& [rank, cls] : ranked_) {
      slot_of_class_[static_cast<size_t>(cls)] = -1;
    }
    std::sort(ranked_.begin(), ranked_.end());
    entry.topk_classes.reserve(ranked_.size());
    entry.topk_ranks.reserve(ranked_.size());
    for (const auto& [rank, cls] : ranked_) {
      entry.topk_classes.push_back(cls);
      entry.topk_ranks.push_back(rank);
    }
  }

  // True once a cut was taken: its slots are the "previous" view.
  bool have_prev_ = false;
  std::unordered_set<int64_t> touched_;  // Raw ids assigned since the last cut.
  // Delta state, flat-indexed by canonical (global) id — ids are dense
  // (g = local * num_shards + shard), so vector indexing replaces the hash-map
  // census that used to dominate cut_millis at a few thousand clusters:
  // canonical id -> dense slot in the previous epoch's index (-1 = absent),
  // and the component raw count as of that epoch.
  std::vector<int64_t> prev_slot_by_canonical_;
  std::vector<int32_t> prev_comp_count_;
  // Per-cut census scratch (Census), kept across epochs so the cut
  // never reallocates in steady state.
  size_t census_size_ = 0;               // num_shards * max_locals this cut.
  std::vector<int32_t> comp_count_;      // [root] raw members, 0 elsewhere.
  std::vector<int64_t> canon_of_;        // [g] memoized CanonicalOf.
  std::vector<int64_t> slot_of_root_;    // [root] -> index in roots_in_order_.
  std::vector<uint32_t> touched_mark_;   // [root] == cut_seq_ -> dirtied.
  uint32_t cut_seq_ = 0;
  std::vector<int64_t> roots_in_order_;  // Ascending canonical ids this cut.
  std::vector<uint8_t> root_clean_;      // Parallel: previous entry reusable.
  // CSR spans of each dirty component's raw members, ascending global id:
  // slot i owns dirty_raws_[dirty_begin_[i], dirty_begin_[i + 1]).
  std::vector<size_t> dirty_begin_;
  std::vector<size_t> dirty_fill_;
  std::vector<int64_t> dirty_raws_;
  // FoldRanks scratch: one entry's (best rank, class) pairs, and each class's
  // index into them (-1 between entries).
  std::vector<std::pair<int32_t, common::ClassId>> ranked_;
  std::vector<int32_t> slot_of_class_ = std::vector<int32_t>(BestRankTable::kRankSpace, -1);
};

// The windowed streaming finalize (src/core/live_snapshot.h): cuts and
// publishes the epoch snapshots of one ingest run. Each boundary it produces
// a self-contained SnapshotBuildJob (deep copies for dirty entries,
// previous-epoch slot numbers for clean ones) and hands it to a
// SnapshotBuilder, which assembles and publishes either inline (synchronous
// mode) or on its own thread (IngestOptions::background_publish). The builder
// publishes jobs in FIFO order, so by the time a job assembles, the previous
// epoch's index exists for its reused slots to copy from.
class WindowedFinalizer {
 public:
  WindowedFinalizer(const IngestOptions& options, double fps) : fps_(fps) {
    if (options.finalize_every_frames > 0 &&
        (options.snapshot_slot != nullptr || options.snapshot_sink)) {
      builder_ = std::make_unique<SnapshotBuilder>(options.snapshot_slot, options.snapshot_sink,
                                                   options.background_publish);
    }
  }

  // Blocks until every cut handed to the builder has been assembled and
  // published (background mode backlog; synchronous mode publishes inside
  // Publish, so this is a no-op there). The engine calls this before a
  // checkpoint so the durable cut never precedes its same-frame publication.
  void FlushBuilds() {
    if (builder_ != nullptr) {
      builder_->Flush();
    }
  }

  void Touch(int64_t raw_id) {
    if (builder_ != nullptr) {
      cut_.Touch(raw_id);
    }
  }

  // Runs the boundary's merge — the cadence's clustering side effect, which
  // must happen with or without a consumer — then cuts the canonical-table
  // delta for the builder. The merge stays outside the timed cut:
  // cut_millis measures only the cost attributable to publication.
  void Publish(common::FrameIndex watermark, cluster::ShardedClusterer& sharded,
               const BestRankTable& ranks, int64_t detections) {
    sharded.BoundaryMergePass();
    if (builder_ == nullptr) {
      return;
    }
    const auto cut_start = std::chrono::steady_clock::now();
    SnapshotBuildJob job;
    job.watermark = watermark;
    job.fps = fps_;
    job.detections = detections;
    cut_.Cut(sharded, ranks, &job.items);
    job.cut_millis =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - cut_start)
            .count();
    builder_->Submit(std::move(job));
  }

 private:
  const double fps_;
  std::unique_ptr<SnapshotBuilder> builder_;  // Null without a consumer.
  CanonicalCut cut_;
};

// Detections the stored-sample entry point hands to one AssignBatch. Boundary-only
// merging makes assignments independent of batching, so this only bounds the
// staging buffers and sets the pool dispatch granularity.
constexpr size_t kShardBatch = 1024;

common::FrameIndex LimitFrame(const video::StreamRun& run, const IngestOptions& options) {
  return options.limit_sec < 0.0
             ? run.num_frames()
             : static_cast<common::FrameIndex>(options.limit_sec * run.fps());
}

// The ingest engine (IT2-IT4) behind every entry point: one
// ShardedClusterer, one rank table, one windowed finalizer. Entry points enqueue
// classified detections in stream order and call the steps:
//   - Assign (assign+rank): one AssignBatch over the queued detections, then
//     the min-rank updates on the raw global ids they landed on;
//   - AdvanceTo (boundary): the cadence's boundary merge and snapshot cut;
//   - Checkpoint (persistence policy, after Open): a durable cut;
//   - Finish: the final merge and the canonical top-K index.
// Ranks accumulate on raw global ids (the boundary cuts need rank state at
// every boundary) and fold onto canonical ids only where a table is built —
// min-rank union is associative, so this equals per-detection accounting on
// canonical ids.
class IngestEngine {
 public:
  // |rank_width| caps the top-K positions recorded per detection.
  // |scratch| and |pool| as in RunIngestClassified.
  IngestEngine(const IngestParams& params, const IngestOptions& options, double fps,
               size_t rank_width, cluster::ShardedClusterer* scratch = nullptr,
               runtime::WorkerPool* pool = nullptr)
      : options_(options),
        k_(params.k),
        rank_width_(rank_width),
        every_(options.finalize_every_frames),
        next_boundary_(options.finalize_every_frames),
        finalizer_(options, fps) {
    FOCUS_CHECK(options.num_shards >= 1);
    cluster::ShardedClustererOptions sopts;
    sopts.base.threshold = params.cluster_threshold;
    sopts.base.max_active = options.max_active_clusters;
    sopts.base.mode = options.cluster_mode;
    sopts.num_shards = static_cast<size_t>(options.num_shards);
    if (scratch != nullptr) {
      scratch->Reset(sopts);
      clusterer_ = scratch;
    } else {
      owned_clusterer_ = std::make_unique<cluster::ShardedClusterer>(sopts);
      clusterer_ = owned_clusterer_.get();
    }
    // One shard assigns inline: no pool, no thread hand-off. Above one shard,
    // one ordered task per shard per batch (pop_batch stays 1: the tasks are
    // already shard-coarse, and letting one worker pull several would
    // serialize shards behind each other).
    if (options.num_shards > 1) {
      if (pool == nullptr) {
        owned_pool_ = std::make_unique<runtime::WorkerPool>(
            options.num_shards,
            /*queue_capacity=*/static_cast<size_t>(options.num_shards) * 2,
            /*pop_batch=*/1);
        pool = owned_pool_.get();
      }
      pool_ = pool;
    }
  }

  // Persistence policy: attaches the durable state under options.persist_dir
  // and, when a checkpoint exists, restores the engine and |stage| to it.
  // Returns the sampled frame to resume from (0 on a fresh start).
  common::Result<common::FrameIndex> Open(DetectionStage* stage) {
    FOCUS_CHECK(options_.checkpoint_every_frames >= 1);
    auto recovery = clusterer_->OpenOrRecover(options_.persist_dir);
    if (!recovery.ok()) {
      FOCUS_LOG(kError) << "ingest recovery failed: " << recovery.error().message;
      return recovery.error();
    }
    if (recovery->recovered) {
      if (!DecodeState(recovery->user_state, stage)) {
        // The meta snapshot passed its CRC but the pipeline blob inside does
        // not parse: durable state from a future/corrupt writer. Not retryable.
        return common::DataLoss("ingest pipeline state undecodable: " + options_.persist_dir +
                                "/sharded.meta");
      }
      resumed_from_ = recovery->position;
      // The checkpoint at a boundary frame captured the post-boundary state,
      // so the next boundary lies strictly past the resume position.
      if (every_ > 0) {
        next_boundary_ = (resumed_from_ / every_ + 1) * every_;
      }
    }
    return resumed_from_;
  }

  // The first cadence boundary AdvanceTo has yet to cross (meaningless
  // without a cadence).
  common::FrameIndex next_boundary() const { return next_boundary_; }

  // Queues one classified detection; the references must stay valid until
  // the next Assign (which a full queue triggers itself).
  void Enqueue(const video::Detection& detection, const common::FeatureVec& feature,
               const cnn::TopKResult& topk, bool reused) {
    if (items_.size() == kShardBatch) {
      Assign();
    }
    items_.push_back({&detection, &feature, reused});
    topk_.push_back(&topk);
  }

  // Assign+rank step.
  void Assign() {
    if (items_.empty()) {
      return;
    }
    out_.resize(items_.size());
    clusterer_->AssignBatch(items_.data(), items_.size(), pool_, out_.data());
    for (size_t i = 0; i < items_.size(); ++i) {
      const int64_t raw = out_[i];
      finalizer_.Touch(raw);
      const std::vector<std::pair<common::ClassId, float>>& entries = topk_[i]->entries;
      const size_t width = std::min(rank_width_, entries.size());
      for (size_t pos = 0; pos < width; ++pos) {
        ranks_.Update(raw, entries[pos].first, static_cast<int32_t>(pos) + 1);
      }
    }
    detections_ += static_cast<int64_t>(items_.size());
    items_.clear();
    topk_.clear();
  }

  // Boundary step: runs every cadence boundary at or below |frame| — the
  // boundary merge pass and, with a consumer, the snapshot cut whose
  // watermark is the boundary. Everything queued lies below the boundary, so
  // it is assigned first. Boundaries are absolute multiples of
  // finalize_every_frames, so a crash-resumed run crosses the same ones as an
  // uninterrupted run.
  void AdvanceTo(common::FrameIndex frame) {
    if (every_ <= 0 || frame < next_boundary_) {
      return;
    }
    Assign();
    while (frame >= next_boundary_) {
      finalizer_.Publish(next_boundary_, *clusterer_, ranks_, detections_);
      next_boundary_ += every_;
    }
  }

  // Checkpoint step (persistent runs only): durably commits the state at
  // sampled-frame |position|, retrying a transiently failing commit in place
  // (the protocol is re-runnable after any partial failure: the meta rename
  // is the single commit point). |stage_state| is the detection stage's
  // DetectionStage::Encode output cut at the same position — the engine
  // never reads the stage itself, which runs on another thread. Builds still
  // in flight publish first: a same-frame snapshot is observable no later
  // than the checkpoint that captures its post-boundary state.
  common::Result<bool> Checkpoint(common::FrameIndex position, std::string_view stage_state) {
    Assign();
    finalizer_.FlushBuilds();
    const std::string encoded = EncodeState(stage_state);
    return common::RetryWithBackoff(options_.checkpoint_retry, [&] {
      return clusterer_->Checkpoint(position, encoded, pool_);
    });
  }

  // The counters of an abandoned run (no index): |counts| carries the
  // classification accounting.
  IngestResult Partial(IngestResult counts) const {
    counts.detections = detections_;
    counts.resumed_from_frame = resumed_from_;
    return counts;
  }

  // Finish step (IT4): the final boundary merge (the full-pass closure),
  // then one index entry per canonical cluster carrying its ranked class
  // union — the same cut the snapshots publish, taken fresh so every entry is
  // built. |counts| carries the classification accounting.
  IngestResult Finish(IngestResult counts) {
    Assign();
    clusterer_->BoundaryMergePass();
    std::vector<SnapshotBuildItem> items;
    CanonicalCut().Cut(*clusterer_, ranks_, &items);
    IngestResult result = Partial(std::move(counts));
    index::IndexBuilder builder;
    for (const SnapshotBuildItem& item : items) {
      builder.Add(item.entry);
    }
    result.index = builder.Finish();
    result.num_clusters = static_cast<int64_t>(result.index.num_clusters());
    result.clusterer_fast_hit_rate = clusterer_->FastHitRate();
    return result;
  }

 private:
  // The opaque blob checkpointed alongside the clusterer snapshot. Leads with
  // a pipeline options echo validated on resume: continuing a stream with a
  // different top-K width or suppression setting would silently mix two
  // configurations' semantics. The detection stage's part arrives encoded
  // (its thread cut it) and is spliced between the engine's own fields.
  std::string EncodeState(std::string_view stage_state) const {
    storage::Encoder enc;
    enc.PutSignedVarint(k_);
    enc.PutU8(options_.use_pixel_diff ? 1 : 0);
    enc.PutSignedVarint(detections_);
    enc.PutRaw(stage_state);
    ranks_.EncodeTo(enc);
    return enc.TakeBytes();
  }

  bool DecodeState(std::string_view blob, DetectionStage* stage) {
    // Every detection the stage classified was assigned before the
    // checkpoint, so a shard arena exists and fixes the feature dimension.
    size_t feature_dim = 0;
    for (size_t s = 0; s < clusterer_->num_shards() && feature_dim == 0; ++s) {
      feature_dim = clusterer_->shard(s).centroid_store().dim();
    }
    storage::Decoder dec(blob);
    int64_t k = 0;
    uint8_t pixel_diff = 0;
    return dec.GetSignedVarint(&k) && k == k_ && dec.GetU8(&pixel_diff) &&
           (pixel_diff != 0) == options_.use_pixel_diff && dec.GetSignedVarint(&detections_) &&
           stage->DecodeFrom(dec, feature_dim) && ranks_.DecodeFrom(dec) && dec.Done();
  }

  const IngestOptions& options_;
  const int k_;
  const size_t rank_width_;
  const int64_t every_;
  common::FrameIndex next_boundary_;
  std::unique_ptr<cluster::ShardedClusterer> owned_clusterer_;
  cluster::ShardedClusterer* clusterer_ = nullptr;
  std::unique_ptr<runtime::WorkerPool> owned_pool_;
  runtime::WorkerPool* pool_ = nullptr;  // Null at one shard.
  BestRankTable ranks_;
  WindowedFinalizer finalizer_;
  int64_t detections_ = 0;
  common::FrameIndex resumed_from_ = 0;
  // The queued batch: items for AssignBatch, their top-K outputs, and the
  // raw global ids AssignBatch writes back.
  std::vector<cluster::ShardedClusterer::WorkItem> items_;
  std::vector<const cnn::TopKResult*> topk_;
  std::vector<int64_t> out_;
};

// One sampled frame of the live front end, classified by the detection stage
// and not yet consumed by the engine. Slots are reused round the FrameRing:
// detections are copy-assigned into elements that keep their buffers, so the
// steady state allocates nothing.
struct FrameBatch {
  common::FrameIndex frame = 0;
  size_t size = 0;  // The frame's detections: the first |size| elements.
  std::vector<ClassifiedDetection> detections;
  // Set on a checkpoint frame: the stage's state after the frame, for the
  // checkpoint at frame + 1 (IngestEngine::Checkpoint).
  bool checkpoint = false;
  std::string stage_state;

  ClassifiedDetection* Append() {
    if (size == detections.size()) {
      detections.emplace_back();
    }
    return &detections[size++];
  }
};

// The handoff between RunIngestChecked's two stages: a fixed ring of
// FrameBatch slots the detection stage fills in frame order on its own thread
// and the engine drains in the same order on the calling thread. The engine
// sleeps until a frame it must act on promptly is queued (a cadence boundary,
// a checkpoint, the end of the sweep) or kWakeFrames frames are: waking it
// per frame costs more in futex wakes than most frames' work.
class FrameRing {
 public:
  static constexpr size_t kSlots = 256;
  static constexpr size_t kWakeFrames = 32;

  // Detection stage: the slot to fill next (blocks while the ring is full),
  // or null once the engine stopped.
  FrameBatch* Claim() {
    std::unique_lock<std::mutex> lock(mu_);
    sweep_waiting_ = true;
    sweep_cv_.wait(lock, [&] { return stopped() || produced_ - consumed_ < kSlots; });
    sweep_waiting_ = false;
    return stopped() ? nullptr : &slots_[produced_ % kSlots];
  }

  // Detection stage: queues the claimed slot; |urgent| wakes the engine.
  void Push(bool urgent) {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++produced_;
      if (urgent) {
        urgent_through_ = produced_;
      }
      wake = engine_waiting_ && (urgent || produced_ - consumed_ >= kWakeFrames);
    }
    if (wake) {
      engine_cv_.notify_one();
    }
  }

  // Detection stage: the sweep ended; nothing more will be pushed.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    engine_cv_.notify_one();
  }

  // Checked by the detection stage once per frame, without the lock.
  bool stopped() const { return stopped_.load(std::memory_order_relaxed); }

  // Engine: blocks until frames are ready and returns how many; the oldest
  // is Front(). 0 means the sweep closed and every frame was consumed.
  size_t Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    engine_waiting_ = true;
    engine_cv_.wait(lock, [&] {
      return closed_ || urgent_through_ > consumed_ || produced_ - consumed_ >= kWakeFrames;
    });
    engine_waiting_ = false;
    return static_cast<size_t>(produced_ - consumed_);
  }

  FrameBatch& Front() { return slots_[consumed_ % kSlots]; }

  // Engine: frees the Front() slot.
  void Pop() {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++consumed_;
      wake = sweep_waiting_;
    }
    if (wake) {
      sweep_cv_.notify_one();
    }
  }

  // Engine: abandons the run. The detection stage fills no further slot and
  // never blocks again.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_.store(true, std::memory_order_relaxed);
    }
    sweep_cv_.notify_one();
  }

 private:
  std::vector<FrameBatch> slots_ = std::vector<FrameBatch>(kSlots);
  std::mutex mu_;
  std::condition_variable engine_cv_;
  std::condition_variable sweep_cv_;
  // Frames pushed and popped so far; slot i % kSlots holds frame i.
  // consumed_ is also read without the lock by Front(), on the engine's
  // thread, which alone writes it.
  uint64_t produced_ = 0;
  uint64_t consumed_ = 0;
  uint64_t urgent_through_ = 0;  // produced_ as of the last urgent Push.
  bool closed_ = false;
  std::atomic<bool> stopped_{false};  // Written under the lock.
  bool engine_waiting_ = false;
  bool sweep_waiting_ = false;
};

// Runs the calling thread as SCHED_BATCH (best effort; Linux only). The
// detection stage is throughput work, and on a paced (live) stream it sleeps
// and wakes once per frame. A batch thread keeps its nice level, so its share
// of a contended CPU is unchanged, but its wake-ups never preempt a running
// thread — on a serving host, a query being answered; it takes the CPU at the
// next scheduler tick or idle core instead. As an ordinary thread, its
// per-frame wakes preempted 12-29% of the live queries served beside two
// paced streams (varying from run to run); as a batch thread, under 1%.
void RunAsBatchThread() {
#ifdef SCHED_BATCH
  sched_param param{};
  (void)pthread_setschedparam(pthread_self(), SCHED_BATCH, &param);
#endif
}

}  // namespace

// Two stages, one frame loop. The detection stage runs on a spawned thread:
// the frame sweep, pixel differencing and the cheap CNN, each frame copied
// into a FrameRing slot; at a checkpoint frame it also evicts idle reuse
// entries and encodes its own part of the checkpoint into the slot. The
// engine stays on the calling thread — assignment, boundary merges and cuts,
// the synchronous snapshot sink and checkpoint commits (with their fault
// sites) — consuming the slots in frame order, so every result, snapshot and
// checkpoint byte equals a serial run's.
common::Result<IngestResult> RunIngestChecked(const video::StreamRun& run,
                                              const cnn::Cnn& ingest_cnn,
                                              const IngestParams& params,
                                              const IngestOptions& options) {
  const bool persistent = !options.persist_dir.empty();
  IngestEngine engine(params, options, run.fps(), static_cast<size_t>(params.k));
  DetectionStage stage(ingest_cnn, params.k, options.use_pixel_diff);
  common::FrameIndex resume_frame = 0;
  if (persistent) {
    auto opened = engine.Open(&stage);
    if (!opened.ok()) {
      return opened.error();
    }
    resume_frame = *opened;
  }
  const common::FrameIndex limit_frame = LimitFrame(run, options);
  const common::FrameIndex crash_frame = persistent && options.crash_after_frames >= 0
                                             ? resume_frame + options.crash_after_frames
                                             : -1;
  const int64_t every = options.finalize_every_frames;

  FrameRing ring;
  bool crashed = false;  // Written by the detection stage, read after the join.
  video::SweepStats sweep;
  std::thread detection_stage([&, next_boundary = engine.next_boundary()]() mutable {
    RunAsBatchThread();
    int64_t frames_since_checkpoint = 0;
    sweep = run.ForEachFrame([&](common::FrameIndex frame,
                                 const std::vector<video::Detection>& dets) {
      if (crashed || ring.stopped() || frame < resume_frame || frame >= limit_frame) {
        return;
      }
      if (crash_frame >= 0 && frame >= crash_frame) {
        crashed = true;  // Simulated worker crash: abandon mid-stream.
        return;
      }
      FrameBatch* batch = ring.Claim();
      if (batch == nullptr) {
        return;  // The engine failed a checkpoint.
      }
      batch->frame = frame;
      batch->size = 0;
      for (const video::Detection& d : dets) {
        stage.Process(d, frame, batch->Append());
      }
      batch->checkpoint =
          persistent && ++frames_since_checkpoint >= options.checkpoint_every_frames;
      if (batch->checkpoint) {
        frames_since_checkpoint = 0;
        stage.EvictIdle(frame, options.reuse_evict_gap_frames);
        batch->stage_state = stage.Encode();
      }
      // The engine crosses a cadence boundary at this frame (AdvanceTo).
      const bool boundary = every > 0 && frame + 1 >= next_boundary;
      if (boundary) {
        next_boundary = ((frame + 1) / every + 1) * every;
      }
      ring.Push(boundary || batch->checkpoint);
    });
    ring.Close();
  });

  std::optional<common::Error> failure;
  while (!failure.has_value()) {
    size_t ready = ring.Wait();
    if (ready == 0) {
      break;  // The sweep ended and every frame was consumed.
    }
    for (; ready > 0; --ready) {
      const FrameBatch& batch = ring.Front();
      // One frame is one batch: the slot is reused once popped.
      for (size_t i = 0; i < batch.size; ++i) {
        const ClassifiedDetection& c = batch.detections[i];
        engine.Enqueue(c.detection, c.feature, c.topk, c.reused);
      }
      engine.Assign();
      // Publish before the checkpoint so a checkpoint at the same frame
      // captures the post-boundary merge state: a resumed run then restarts
      // past the boundary exactly as the uninterrupted run left it, while a
      // crash before the checkpoint replays the boundary pass from the prior
      // one. Snapshots themselves are volatile — never checkpointed — and are
      // republished from live state after the resumed run crosses its next
      // boundary.
      engine.AdvanceTo(batch.frame + 1);
      if (batch.checkpoint) {
        auto checkpointed = engine.Checkpoint(batch.frame + 1, batch.stage_state);
        if (!checkpointed.ok()) {
          failure = checkpointed.error();
          ring.Stop();
          break;
        }
      }
      ring.Pop();
    }
  }
  detection_stage.join();

  IngestResult counts;
  stage.CopyCounts(&counts);
  if (failure.has_value()) {
    return *failure;
  }
  if (crashed) {
    // Exactly like a crash: whatever the last checkpoint captured is the
    // durable state; this attempt's partial counters are returned for the
    // caller's accounting but nothing further is published.
    return engine.Partial(std::move(counts));
  }
  if (sweep.aborted) {
    // The stream cut out mid-recording (camera flap / uplink loss). A
    // restarted worker resumes from the last checkpoint (persistent) or
    // re-ingests from frame 0 (volatile) once the stream comes back.
    return common::Unavailable("stream delivery aborted mid-recording");
  }
  if (persistent) {
    // Seal the end of the stream, then finalize in memory: a crash during
    // the final merge resumes at the sealed position and re-finalizes. The
    // seal keeps idle reuse entries (no eviction).
    auto sealed = engine.Checkpoint(limit_frame, stage.Encode());
    if (!sealed.ok()) {
      return sealed.error();
    }
  }
  return engine.Finish(std::move(counts));
}

IngestResult RunIngest(const video::StreamRun& run, const cnn::Cnn& ingest_cnn,
                       const IngestParams& params, const IngestOptions& options) {
  auto result = RunIngestChecked(run, ingest_cnn, params, options);
  if (!result.ok()) {
    FOCUS_LOG(kError) << "ingest failed: " << result.error().message;
    FOCUS_CHECK(result.ok());
  }
  return *std::move(result);
}

ClassifiedSample ClassifySample(const video::StreamRun& run, const cnn::Cnn& ingest_cnn,
                                int k, const IngestOptions& options) {
  ClassifiedSample sample;
  sample.k = k;
  sample.fps = run.fps();
  DetectionStage stage(ingest_cnn, k, options.use_pixel_diff);
  const common::FrameIndex limit_frame = LimitFrame(run, options);
  run.ForEachFrame([&](common::FrameIndex frame, const std::vector<video::Detection>& dets) {
    if (frame >= limit_frame) {
      return;
    }
    for (const video::Detection& d : dets) {
      stage.Process(d, frame, &sample.detections.emplace_back());
    }
  });
  stage.CopyCounts(&sample);
  return sample;
}

IngestResult RunIngestClassified(const ClassifiedSample& sample, const IngestParams& params,
                                 const IngestOptions& options,
                                 cluster::ShardedClusterer* scratch,
                                 runtime::WorkerPool* pool) {
  IngestEngine engine(params, options, sample.fps,
                      static_cast<size_t>(std::min(params.k, sample.k)), scratch, pool);
  for (const ClassifiedDetection& entry : sample.detections) {
    // The sample carries no empty frames, so boundaries are discovered from
    // the detections themselves: every one at or below this frame comes first.
    engine.AdvanceTo(entry.detection.frame);
    engine.Enqueue(entry.detection, entry.feature, entry.topk, entry.reused);
  }
  IngestResult counts;
  counts.gpu_millis = sample.gpu_millis;
  counts.cnn_invocations = sample.cnn_invocations;
  counts.suppressed = sample.suppressed;
  return engine.Finish(std::move(counts));
}

}  // namespace focus::core
