#include "src/cluster/sharded_clusterer.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/cluster/cluster_codec.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/runtime/worker_pool.h"
#include "src/storage/arena_file.h"
#include "src/storage/record_log.h"
#include "src/storage/serializer.h"
#include "src/storage/snapshot_store.h"

namespace focus::cluster {

namespace {

// Version tag of the sharded.meta checkpoint snapshot. v3 dropped the
// merge-mode fields from the options echo (boundary merging is the only
// semantics); checkpoints of other versions are refused, not reinterpreted.
constexpr uint32_t kShardedMetaVersion = 3;

}  // namespace

ShardedClusterer::ShardedClusterer(ShardedClustererOptions options) { Reset(options); }

void ShardedClusterer::Reset(ShardedClustererOptions options) {
  FOCUS_CHECK(options.num_shards >= 1);
  FOCUS_CHECK(!persistent());
  options_ = options;
  shards_.resize(options_.num_shards);
  for (std::unique_ptr<IncrementalClusterer>& shard : shards_) {
    if (shard == nullptr) {
      shard = std::make_unique<IncrementalClusterer>(options_.base);
    } else {
      shard->Reset(options_.base);
    }
    if (options_.num_shards > 1) {
      // Cross-shard merges must see retired centroids as targets: a duplicate
      // of a retired cluster can appear in another shard after the retirement
      // (at one shard there is no cross-shard pair, so skip the bookkeeping).
      shard->EnableRetiredMergeTargets();
    }
  }
  parent_.clear();
  merge_scanned_.assign(options_.num_shards, 0);
  merge_considered_.assign(options_.num_shards, {});
  merges_folded_ = 0;
  shard_items_.resize(options_.num_shards);
}

size_t ShardedClusterer::ShardOf(common::ObjectId object) const {
  if (options_.num_shards <= 1) {
    return 0;
  }
  // SplitMix64 rather than object % num_shards: object ids are often assigned
  // sequentially, and a modulo partition of a sequential range correlates with
  // arrival order (bursts land on one shard).
  return static_cast<size_t>(common::SplitMix64(static_cast<uint64_t>(object)) %
                             static_cast<uint64_t>(options_.num_shards));
}

int64_t ShardedClusterer::Add(const video::Detection& detection,
                              const common::FeatureVec& feature) {
  const size_t s = ShardOf(detection.object_id);
  return GlobalId(s, shards_[s]->Add(detection, feature));
}

int64_t ShardedClusterer::AddSuppressed(const video::Detection& detection,
                                        const common::FeatureVec& feature) {
  const size_t s = ShardOf(detection.object_id);
  return GlobalId(s, shards_[s]->AddSuppressed(detection, feature));
}

void ShardedClusterer::AssignBatch(const WorkItem* items, size_t count,
                                   runtime::WorkerPool* pool, int64_t* out) {
  auto assign = [this, items, out](size_t s, size_t i) {
    const WorkItem& item = items[i];
    FOCUS_CHECK(item.detection != nullptr && item.feature != nullptr);
    IncrementalClusterer& shard = *shards_[s];
    const int64_t local = item.suppressed ? shard.AddSuppressed(*item.detection, *item.feature)
                                          : shard.Add(*item.detection, *item.feature);
    out[i] = GlobalId(s, local);
  };
  const size_t num_shards = options_.num_shards;
  if (num_shards == 1) {
    // Stream order is shard order: no partition, no hand-off.
    for (size_t i = 0; i < count; ++i) {
      assign(0, i);
    }
    return;
  }
  for (std::vector<size_t>& v : shard_items_) {
    v.clear();
  }
  for (size_t i = 0; i < count; ++i) {
    shard_items_[ShardOf(items[i].detection->object_id)].push_back(i);
  }

  // One ordered task per shard: assignment order within a shard must follow
  // stream order (the clusterer is stateful), so the shard is the finest safe
  // work item. Out-slots are disjoint per item, so no synchronization beyond
  // the pool's Drain() is needed.
  auto run_shard = [this, &assign](size_t s) {
    for (size_t i : shard_items_[s]) {
      assign(s, i);
    }
  };
  if (pool == nullptr) {
    for (size_t s = 0; s < num_shards; ++s) {
      run_shard(s);
    }
  } else {
    for (size_t s = 0; s < num_shards; ++s) {
      if (shard_items_[s].empty()) {
        continue;
      }
      FOCUS_CHECK(pool->Submit([&run_shard, s] { run_shard(s); }));
    }
    pool->Drain();
  }
}

int64_t ShardedClusterer::Find(int64_t global_id) const {
  const int64_t n = static_cast<int64_t>(parent_.size());
  int64_t root = global_id;
  while (root < n && parent_[static_cast<size_t>(root)] != root) {
    root = parent_[static_cast<size_t>(root)];
  }
  // Path compression toward the root keeps repeated canonical lookups cheap.
  int64_t walk = global_id;
  while (walk < n && parent_[static_cast<size_t>(walk)] != root) {
    const int64_t next = parent_[static_cast<size_t>(walk)];
    parent_[static_cast<size_t>(walk)] = root;
    walk = next;
  }
  return root;
}

void ShardedClusterer::Union(int64_t a, int64_t b) {
  int64_t ra = Find(a);
  int64_t rb = Find(b);
  if (ra == rb) {
    return;
  }
  if (ra > rb) {
    std::swap(ra, rb);
  }
  // Attach the larger root under the smaller so every component's root is its
  // minimum global id (the canonical id).
  if (rb >= static_cast<int64_t>(parent_.size())) {
    const size_t old = parent_.size();
    parent_.resize(static_cast<size_t>(rb) + 1);
    for (size_t g = old; g < parent_.size(); ++g) {
      parent_[g] = static_cast<int64_t>(g);
    }
  }
  parent_[static_cast<size_t>(rb)] = ra;
  ++merges_folded_;
}

void ShardedClusterer::QueryAgainstShards(size_t s, int64_t local_id,
                                          const common::FeatureVec& centroid,
                                          float threshold_sq) {
  for (size_t t = 0; t < s; ++t) {
    // Nearest target within T across the shard's active centroids AND its
    // frozen retired ones: a cluster that retired before this query's
    // cluster even existed is still the same real-world appearance and
    // must fold. Ties between the two stores resolve toward the smaller
    // local id, matching the single-store smallest-id semantics.
    int64_t target = -1;
    float target_dist = 0.0f;
    for (const CentroidStore* store :
         {&shards_[t]->centroid_store(), &shards_[t]->retired_store()}) {
      if (store->empty() || store->dim() != centroid.size()) {
        continue;
      }
      float dist_sq = 0.0f;
      const int64_t found =
          store->FindNearest(centroid.data(), centroid.size(), threshold_sq, &dist_sq);
      if (found < 0) {
        continue;
      }
      if (target < 0 || dist_sq < target_dist ||
          (dist_sq == target_dist && found < target)) {
        target = found;
        target_dist = dist_sq;
      }
    }
    if (target >= 0) {
      Union(GlobalId(s, local_id), GlobalId(t, target));
    }
  }
}

void ShardedClusterer::MergePass() {
  if (options_.num_shards <= 1) {
    return;
  }
  const float threshold_sq =
      static_cast<float>(options_.base.threshold * options_.base.threshold);
  // Fixed scan order (shard ascending, local id ascending, lower shards
  // ascending as targets) plus CentroidStore's smallest-id tie break keep the
  // union-find a pure function of the stream. Targets cover the active working
  // set and the frozen retired centroids (retired_store): a retired cluster
  // can no longer drift, but its appearance can re-arise in another shard
  // after the retirement, and the pair must still fold — each such pair is
  // captured from the later cluster's side when it queries as a new cluster.
  for (size_t s = 0; s < options_.num_shards; ++s) {
    const std::vector<Cluster>& clusters = shards_[s]->clusters();
    std::vector<MergeCandidate>& considered = merge_considered_[s];
    // Previously considered clusters, ascending local id: every one queries
    // at its current position; one that retired since issues that query with
    // its frozen centroid and is then dropped (it stays reachable as a merge
    // *target* through retired_store() forever).
    size_t keep = 0;
    for (size_t i = 0; i < considered.size(); ++i) {
      MergeCandidate& candidate = considered[i];
      const Cluster& c = clusters[candidate.local_id];
      QueryAgainstShards(s, static_cast<int64_t>(candidate.local_id), c.centroid, threshold_sq);
      if (!c.active) {
        continue;
      }
      candidate.snapshot = c.centroid;  // The boundary pass measures moves from here.
      if (keep != i) {  // Guard the self-move: it would empty the snapshot.
        considered[keep] = std::move(candidate);
      }
      ++keep;
    }
    considered.resize(keep);
    // Clusters created since the previous pass. One that already retired
    // still queries once with its frozen centroid — its duplicate may be live
    // in another shard — but is not tracked: frozen centroids never move.
    for (size_t l = merge_scanned_[s]; l < clusters.size(); ++l) {
      const Cluster& c = clusters[l];
      QueryAgainstShards(s, static_cast<int64_t>(l), c.centroid, threshold_sq);
      if (c.active) {
        considered.push_back({l, c.centroid});
      }
    }
    merge_scanned_[s] = clusters.size();
  }
}

void ShardedClusterer::BoundaryMergePass() {
  if (options_.num_shards <= 1) {
    return;
  }
  const float threshold_sq =
      static_cast<float>(options_.base.threshold * options_.base.threshold);

  // A cluster that did not move since its last merge query already holds its
  // exact nearest-within-T edges *unless a neighbour moved*: every dirtied
  // cluster below is therefore also recorded as a "mover" whose old and new
  // positions invalidate the clusters around them. Phase A sweeps every shard
  // first so no mover is missed (a requery in phase B resets a snapshot, which
  // would otherwise mask phase A's own drift detection for that shard), then
  // phase B requeries the invalidated neighbourhoods. Union edges depend only
  // on the stores, which never change mid-pass, so the closure is independent
  // of the phase split.
  struct Mover {
    size_t shard = 0;
    common::FeatureVec old_pos;  // Empty for clusters new since the last pass.
    common::FeatureVec new_pos;
  };
  std::vector<Mover> movers;
  // Per shard: local ids already queried this pass (dedupe only; never iterated).
  std::vector<std::unordered_set<size_t>> queried(options_.num_shards);

  for (size_t s = 0; s < options_.num_shards; ++s) {
    const std::vector<Cluster>& clusters = shards_[s]->clusters();
    std::vector<MergeCandidate>& considered = merge_considered_[s];
    size_t keep = 0;
    for (size_t i = 0; i < considered.size(); ++i) {
      MergeCandidate& candidate = considered[i];
      const Cluster& c = clusters[candidate.local_id];
      if (!c.active) {
        // Retired since the last boundary: the one final query with the frozen
        // centroid, then drop (the full pass does the same). If it also moved
        // between its last query and retirement, its displacement invalidates
        // neighbours exactly like an active mover's.
        QueryAgainstShards(s, static_cast<int64_t>(candidate.local_id), c.centroid,
                           threshold_sq);
        queried[s].insert(candidate.local_id);
        if (c.centroid != candidate.snapshot) {
          movers.push_back(Mover{s, candidate.snapshot, c.centroid});
        }
        continue;
      }
      if (c.centroid != candidate.snapshot) {
        // Any movement requeries — no drift tolerance: the full pass would
        // query this cluster at its new position, and even an epsilon move can
        // change the nearest-within-T answer, so byte-identity needs exact
        // dirty tracking here.
        QueryAgainstShards(s, static_cast<int64_t>(candidate.local_id), c.centroid,
                           threshold_sq);
        queried[s].insert(candidate.local_id);
        movers.push_back(Mover{s, candidate.snapshot, c.centroid});
        candidate.snapshot = c.centroid;
      }
      if (keep != i) {  // Guard the self-move: it would empty the snapshot.
        considered[keep] = std::move(candidate);
      }
      ++keep;
    }
    considered.resize(keep);
    // Clusters created since the previous pass: query (full-pass bound) and
    // invalidate around their position — they are new merge *targets* for
    // unmoved clusters in higher shards.
    for (size_t l = merge_scanned_[s]; l < clusters.size(); ++l) {
      const Cluster& c = clusters[l];
      QueryAgainstShards(s, static_cast<int64_t>(l), c.centroid, threshold_sq);
      queried[s].insert(l);
      movers.push_back(Mover{s, common::FeatureVec{}, c.centroid});
      if (c.active) {
        considered.push_back({l, c.centroid});
      }
    }
    merge_scanned_[s] = clusters.size();
  }

  // Phase B — reverse invalidation. The full pass covers each cross-shard pair
  // from its higher-shard side (queries target lower shards only), so a mover
  // in shard s can only change the answer of clusters in shards t > s. Any
  // cluster within T of the mover's old position (the mover may have been its
  // nearest and left) or new position (the mover may have arrived) re-issues
  // its exact query; everything farther than T was out of range before and
  // after, so its nearest-within-T is untouched. Over-inclusion is harmless —
  // a requery at an unchanged position re-adds existing edges.
  for (const Mover& m : movers) {
    for (size_t t = m.shard + 1; t < options_.num_shards; ++t) {
      const CentroidStore& store = shards_[t]->centroid_store();
      if (store.empty() || store.dim() != m.new_pos.size()) {
        continue;
      }
      auto requery = [&](int64_t local_id) {
        if (!queried[t].insert(static_cast<size_t>(local_id)).second) {
          return;
        }
        const Cluster& c = shards_[t]->clusters()[static_cast<size_t>(local_id)];
        QueryAgainstShards(t, local_id, c.centroid, threshold_sq);
        // The requery re-measured this cluster's neighbourhood at its current
        // position; drift tracking restarts from here (ascending-id order of
        // merge_considered_ makes the entry binary-searchable).
        std::vector<MergeCandidate>& considered = merge_considered_[t];
        auto it = std::lower_bound(
            considered.begin(), considered.end(), static_cast<size_t>(local_id),
            [](const MergeCandidate& a, size_t v) { return a.local_id < v; });
        FOCUS_CHECK(it != considered.end() &&
                    it->local_id == static_cast<size_t>(local_id));
        it->snapshot = c.centroid;
      };
      if (!m.old_pos.empty()) {
        store.ForEachWithin(m.old_pos.data(), m.old_pos.size(), threshold_sq, requery);
      }
      store.ForEachWithin(m.new_pos.data(), m.new_pos.size(), threshold_sq, requery);
    }
  }
}

int64_t ShardedClusterer::CanonicalOf(int64_t global_id) const { return Find(global_id); }

std::vector<Cluster> ShardedClusterer::FinalizeClusters() {
  MergePass();
  const size_t num_shards = options_.num_shards;
  size_t max_locals = 0;
  for (const auto& shard : shards_) {
    max_locals = std::max(max_locals, shard->clusters().size());
  }

  std::vector<Cluster> table;
  std::unordered_map<int64_t, size_t> slot_of_root;
  // Global ids ascend over (local asc, shard asc), and every component's root
  // is its minimum id, so a component's canonical cluster is always created
  // before any cluster folds into it.
  for (size_t l = 0; l < max_locals; ++l) {
    for (size_t s = 0; s < num_shards; ++s) {
      if (l >= shards_[s]->clusters().size()) {
        continue;
      }
      const Cluster& src = shards_[s]->clusters()[l];
      const int64_t g = GlobalId(s, static_cast<int64_t>(l));
      const int64_t root = Find(g);
      if (root == g) {
        table.push_back(src);
        table.back().id = g;
        slot_of_root.emplace(root, table.size() - 1);
        continue;
      }
      Cluster& dst = table[slot_of_root.at(root)];
      const double total = static_cast<double>(dst.size + src.size);
      const double ws = static_cast<double>(src.size) / total;
      for (size_t i = 0; i < dst.centroid.size(); ++i) {
        dst.centroid[i] =
            static_cast<float>(dst.centroid[i] * (1.0 - ws) + src.centroid[i] * ws);
      }
      dst.size += src.size;
      dst.members.insert(dst.members.end(), src.members.begin(), src.members.end());
      dst.active = dst.active || src.active;
    }
  }
  return table;
}

common::Result<bool> ShardedClusterer::Checkpoint(int64_t position,
                                                  std::string_view user_state,
                                                  runtime::WorkerPool* pool) {
  FOCUS_CHECK(persistent());
  const size_t num_shards = options_.num_shards;
  // Step 1: commit every shard's arena (msync + header) and encode its
  // bookkeeping. Shards are independent files and independent state, so with a
  // pool the commits fan out one task per shard; errors are collected into
  // per-shard slots and checked in ascending shard order, so the parallel and
  // inline paths return the same (first) error. Shard arenas may end up a
  // generation ahead of the meta if we crash below — recovery rolls each back
  // to the generation recorded here.
  std::vector<uint64_t> generations(num_shards, 0);
  std::vector<std::string> bookkeeping(num_shards);
  std::vector<std::optional<common::Error>> commit_errors(num_shards);
  auto commit_shard = [&](size_t s) {
    auto generation = shards_[s]->CommitArena();
    if (!generation.ok()) {
      commit_errors[s] = generation.error();
      return;
    }
    generations[s] = *generation;
    bookkeeping[s] = shards_[s]->EncodeBookkeeping();
  };
  const bool parallel = pool != nullptr && num_shards > 1;
  if (parallel) {
    for (size_t s = 0; s < num_shards; ++s) {
      FOCUS_CHECK(pool->Submit([&commit_shard, s] { commit_shard(s); }));
    }
    pool->Drain();
  } else {
    for (size_t s = 0; s < num_shards; ++s) {
      commit_shard(s);
    }
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (commit_errors[s].has_value()) {
      return *commit_errors[s];
    }
  }

  // Step 2: one meta snapshot for every shard's bookkeeping plus the merge
  // state; its atomic rename commits the whole multi-shard checkpoint at once.
  storage::Encoder enc;
  enc.PutU32(kShardedMetaVersion);
  enc.PutVarint(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    enc.PutU64(generations[s]);
    enc.PutString(bookkeeping[s]);
  }
  enc.PutVarint(parent_.size());
  for (int64_t p : parent_) {
    enc.PutSignedVarint(p);
  }
  for (size_t s = 0; s < options_.num_shards; ++s) {
    enc.PutVarint(merge_scanned_[s]);
  }
  for (size_t s = 0; s < options_.num_shards; ++s) {
    enc.PutVarint(merge_considered_[s].size());
    for (const MergeCandidate& candidate : merge_considered_[s]) {
      enc.PutVarint(candidate.local_id);
      EncodeFeatureVec(enc, candidate.snapshot);
    }
  }
  enc.PutSignedVarint(merges_folded_);
  enc.PutSignedVarint(position);
  enc.PutString(user_state);
  enc.PutU32(storage::Crc32(enc.bytes()));
  if (auto wrote = storage::WriteFileAtomic(meta_path_, enc.bytes()); !wrote.ok()) {
    return wrote;
  }

  // Step 3: open every shard's fresh undo window — per-shard files again, so
  // the rotation fans out like step 1.
  std::vector<std::optional<common::Error>> rotate_errors(num_shards);
  auto rotate_shard = [&](size_t s) {
    if (auto rotated = shards_[s]->RotateUndoLog(generations[s]); !rotated.ok()) {
      rotate_errors[s] = rotated.error();
    }
  };
  if (parallel) {
    for (size_t s = 0; s < num_shards; ++s) {
      FOCUS_CHECK(pool->Submit([&rotate_shard, s] { rotate_shard(s); }));
    }
    pool->Drain();
  } else {
    for (size_t s = 0; s < num_shards; ++s) {
      rotate_shard(s);
    }
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (rotate_errors[s].has_value()) {
      return *rotate_errors[s];
    }
  }
  return true;
}

common::Result<ClustererRecovery> ShardedClusterer::OpenOrRecover(const std::string& dir) {
  FOCUS_CHECK(!persistent() && total_assignments() == 0);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return common::Error{common::ErrorCode::kIo,
                         "create persist dir: " + dir + ": " + ec.message()};
  }
  persist_dir_ = dir;
  meta_path_ = dir + "/sharded.meta";
  auto arena_path = [&](size_t s) { return dir + "/shard-" + std::to_string(s) + ".arena"; };
  auto undo_path = [&](size_t s) { return dir + "/shard-" + std::to_string(s) + ".undo"; };

  if (!storage::FileExists(meta_path_)) {
    // No committed checkpoint: fresh persistent state, stale shard files dropped.
    for (size_t s = 0; s < options_.num_shards; ++s) {
      std::filesystem::remove(arena_path(s), ec);
      std::filesystem::remove(undo_path(s), ec);
      auto arena = storage::ArenaFile::Open(arena_path(s));
      if (!arena.ok()) {
        return arena.error();
      }
      if (auto attached =
              shards_[s]->AttachPersistence(std::move(arena).value(), undo_path(s));
          !attached.ok()) {
        return attached.error();
      }
    }
    return ClustererRecovery{};
  }

  auto blob = storage::ReadFile(meta_path_);
  if (!blob.ok()) {
    return blob.error();
  }
  auto corrupt = [&](const std::string& what) {
    return common::Error{common::ErrorCode::kIo,
                         "sharded meta corrupt: " + meta_path_ + ": " + what};
  };
  auto shard_name = [](uint64_t s) { return "shard " + std::to_string(s); };
  // The trailing CRC covers every byte before it; check it first so a torn or
  // scribbled file reads as corrupt, never as a version or options mismatch.
  constexpr size_t kCrcBytes = 4;
  if (blob->size() < kCrcBytes) {
    return corrupt("truncated");
  }
  const std::string_view payload(blob->data(), blob->size() - kCrcBytes);
  storage::Decoder crc_dec(std::string_view(blob->data() + payload.size(), kCrcBytes));
  uint32_t crc = 0;
  if (!crc_dec.GetU32(&crc) || storage::Crc32(payload) != crc) {
    return corrupt("crc mismatch");
  }
  storage::Decoder dec(payload);
  uint32_t version = 0;
  uint64_t num_shards = 0;
  if (!dec.GetU32(&version)) {
    return corrupt("version");
  }
  if (version != kShardedMetaVersion) {
    return common::FailedPrecondition(
        "sharded meta version " + std::to_string(version) + " is not the supported version " +
        std::to_string(kShardedMetaVersion) + ": " + meta_path_);
  }
  if (!dec.GetVarint(&num_shards)) {
    return corrupt("shard count");
  }
  if (num_shards != options_.num_shards) {
    return common::FailedPrecondition(
        "sharded clusterer options do not match the checkpointed run");
  }
  std::vector<uint64_t> generations(options_.num_shards, 0);
  std::vector<std::string> bookkeeping(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    if (!dec.GetU64(&generations[s]) || !dec.GetString(&bookkeeping[s])) {
      return corrupt(shard_name(s) + ": bookkeeping");
    }
  }
  uint64_t parent_len = 0;
  if (!dec.GetVarint(&parent_len) || parent_len > dec.remaining()) {
    return corrupt("union-find length");
  }
  std::vector<int64_t> parent(static_cast<size_t>(parent_len));
  for (size_t g = 0; g < parent.size(); ++g) {
    if (!dec.GetSignedVarint(&parent[g])) {
      return corrupt("union-find");
    }
    // Roots are component minima, so every parent is at or below its child;
    // that also rules out cycles, which would hang Find.
    if (parent[g] < 0 || static_cast<size_t>(parent[g]) > g) {
      return corrupt(shard_name(g % options_.num_shards) + ": global id " + std::to_string(g) +
                     " has parent " + std::to_string(parent[g]));
    }
  }
  std::vector<size_t> merge_scanned(options_.num_shards, 0);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    uint64_t scanned = 0;
    if (!dec.GetVarint(&scanned)) {
      return corrupt(shard_name(s) + ": merge cursor");
    }
    merge_scanned[s] = static_cast<size_t>(scanned);
  }
  std::vector<std::vector<MergeCandidate>> merge_considered(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    uint64_t count = 0;
    if (!dec.GetVarint(&count) || count > dec.remaining()) {
      return corrupt(shard_name(s) + ": merge candidate count");
    }
    merge_considered[s].resize(static_cast<size_t>(count));
    for (MergeCandidate& candidate : merge_considered[s]) {
      uint64_t local = 0;
      if (!dec.GetVarint(&local) || !DecodeFeatureVec(dec, &candidate.snapshot)) {
        return corrupt(shard_name(s) + ": merge candidates");
      }
      candidate.local_id = static_cast<size_t>(local);
    }
  }
  int64_t merges_folded = 0;
  int64_t position = 0;
  std::string user_state;
  if (!dec.GetSignedVarint(&merges_folded) || !dec.GetSignedVarint(&position) ||
      !dec.GetString(&user_state) || !dec.Done()) {
    return corrupt("trailer");
  }

  // Roll every shard arena back to the committed cut (the shared protocol in
  // storage::OpenArenaAtCheckpoint), then hand it to its shard. A shard is
  // re-sealed along with all the others if any of them had to be repaired.
  bool needs_reseal = false;
  for (size_t s = 0; s < options_.num_shards; ++s) {
    bool shard_needs_reseal = false;
    auto arena = storage::OpenArenaAtCheckpoint(arena_path(s), undo_path(s), generations[s],
                                                &shard_needs_reseal);
    if (!arena.ok()) {
      return arena.error();
    }
    needs_reseal = needs_reseal || shard_needs_reseal;
    if (auto restored = shards_[s]->AttachPersistence(std::move(arena).value(), undo_path(s),
                                                      bookkeeping[s]);
        !restored.ok()) {
      common::Error error = restored.error();
      error.message = meta_path_ + ": " + shard_name(s) + ": " + error.message;
      return error;
    }
    // The merge passes index the shard's cluster table with these candidates
    // and binary-search them by local id: every active cluster below the
    // cursor is a candidate, in strictly ascending order, with a snapshot of
    // the store's dimension.
    const std::vector<Cluster>& clusters = shards_[s]->clusters();
    const size_t dim = shards_[s]->centroid_store().dim();
    if (merge_scanned[s] > clusters.size()) {
      return corrupt(shard_name(s) + ": merge cursor " + std::to_string(merge_scanned[s]) +
                     " past " + std::to_string(clusters.size()) + " clusters");
    }
    size_t next = 0;
    for (size_t l = 0; l < merge_scanned[s]; ++l) {
      const std::vector<MergeCandidate>& considered = merge_considered[s];
      if (next < considered.size() && considered[next].local_id == l) {
        if (considered[next].snapshot.size() != dim) {
          return corrupt(shard_name(s) + ": merge candidate " + std::to_string(l) +
                         " has dimension " +
                         std::to_string(considered[next].snapshot.size()));
        }
        ++next;
      } else if (clusters[l].active) {
        return corrupt(shard_name(s) + ": active cluster " + std::to_string(l) +
                       " is not a merge candidate");
      }
    }
    if (next != merge_considered[s].size()) {
      return corrupt(shard_name(s) + ": merge candidate " +
                     std::to_string(merge_considered[s][next].local_id) +
                     " is out of order or past the merge cursor");
    }
  }
  parent_ = std::move(parent);
  merge_scanned_ = std::move(merge_scanned);
  merge_considered_ = std::move(merge_considered);
  merges_folded_ = merges_folded;

  // Re-seal when any shard rolled back (headers, meta, and undo windows must
  // be mutually consistent before any mutation); a clean recovery of every
  // shard skips the rewrite — the on-disk cut already is the checkpoint.
  if (needs_reseal) {
    if (auto sealed = Checkpoint(position, user_state); !sealed.ok()) {
      return sealed.error();
    }
  }
  ClustererRecovery out;
  out.recovered = true;
  out.position = position;
  out.user_state = std::move(user_state);
  return out;
}

int64_t ShardedClusterer::total_assignments() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->total_assignments();
  }
  return total;
}

double ShardedClusterer::FastHitRate() const {
  int64_t hits = 0;
  int64_t lookups = 0;
  for (const auto& shard : shards_) {
    hits += shard->fast_hits();
    lookups += shard->fast_lookups();
  }
  return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
}

}  // namespace focus::cluster
