// The query-time executor: one long-lived service per serving process, shared
// by every query against every camera (docs/fleet_serving.md).
//
// At query time Focus classifies only the centroids of matching clusters with
// the expensive GT-CNN, fanned out over idle GPUs (§5: "We parallelize a
// query's work across many worker processes if resources are idle"). This
// service turns the engine's GPU-millisecond cost into the latency a user
// sees by scheduling that work on a shared virtual GpuCluster, through the
// plan/execute pipeline of query_engine.h:
//
//  - Plan every request (index lookups — free, no GPU work).
//  - A global verdict cache keyed on (camera, epoch, centroid id): a GT-CNN
//    verdict is a pure function of the centroid object, so once any query paid
//    for it, every later query against the same epoch gets it free — across
//    requests, tenants, sessions, and threads. Bounded capacity with LRU
//    eviction; entries of a superseded epoch are retired eagerly the first
//    time a newer epoch of that camera is seen (they can only be re-requested
//    by a pinned stale snapshot, which simply re-pays). Within one admission,
//    duplicate (camera, centroid) items are classified once.
//  - A cost-aware packer that pools work items across cameras AND queries:
//    items group by cnn::ModelPackKey (never mixing models in one launch —
//    launches run one architecture), per-camera instances of the same
//    architecture share launches. Each group is packed parallelism first (at
//    least one launch per idle GPU while work remains), then amortization
//    (launches grow up to QueryServiceOptions::batch_size images, paying the
//    per-launch overhead once: cnn::Cnn::BatchCostMillis); submission is
//    ordered by cnn::BatchCostModel estimates (heaviest first onto the
//    least-loaded device) so heterogeneous GT-CNNs pack by cost, not by count.
//    batch_size = 1 is the per-centroid fan-out: one launch per fresh
//    centroid at full single-inference cost.
//  - One admission path: a single request, a pooled batch, a federated
//    fan-out and a session step each become planned units admitted by the
//    same function — a probe of the striped cache without the service lock
//    answers a fully-cached admission (which then takes the lock only to
//    commit its accounting), anything else is classified under the lock at
//    the cluster's current frontier. Tenants only attribute traffic (the
//    `fleet.tenant.<t>.requests` counter, for the first 64 distinct names);
//    they are never queued.
//
// Identity contract: results are byte-identical to per-camera sequential
// execution (core::FocusFleet::ExecuteFederatedSequential) no matter how work
// was packed or what the cache held.
// Caching and packing change when and at what amortized cost a verdict is
// produced — never its value. QueryResult::gpu_millis stays the
// execution-independent per-centroid figure; the launch-amortized cost the
// cluster actually charged — where cache hits and fuller batches show up — is
// in stats().
#ifndef FOCUS_SRC_RUNTIME_FLEET_QUERY_SERVICE_H_
#define FOCUS_SRC_RUNTIME_FLEET_QUERY_SERVICE_H_

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/core/fleet.h"
#include "src/core/focus_stream.h"
#include "src/core/live_snapshot.h"
#include "src/core/query_engine.h"
#include "src/runtime/gpu_device.h"
#include "src/runtime/metrics.h"

namespace focus::runtime {

// One query: against a built FocusStream, or — live query-over-ingest —
// against a published epoch snapshot of a stream still being ingested. Exactly
// one of |stream| / |snapshot| is set.
struct QueryRequest {
  const core::FocusStream* stream = nullptr;  // Must outlive the service call.
  common::ClassId cls = common::kInvalidClass;
  int kx = -1;                 // Dynamic Kx (§5); negative uses the indexed K.
  common::TimeRange range{};   // Restriction to a time window.

  // --- Live snapshot target (src/core/live_snapshot.h) ---
  // The request's shared_ptr keeps the snapshot — and the index image the
  // engine reads — alive through execution even if the ingest worker
  // publishes a newer epoch mid-query. |ingest_cnn| (label-space mapping) and
  // |gt_cnn| (centroid verdicts) are required with a snapshot; |fps| is the
  // recording rate used for time-range planning (runtime::LiveStreamContext
  // carries all three).
  std::shared_ptr<const core::LiveSnapshot> snapshot;
  const cnn::Cnn* ingest_cnn = nullptr;
  const cnn::Cnn* gt_cnn = nullptr;
  double fps = 30.0;
};

struct QueryExecution {
  core::QueryResult result;
  // Virtual wall-clock times on the shared cluster.
  common::GpuMillis submit_millis = 0.0;
  common::GpuMillis finish_millis = 0.0;
  // Set when a GT-CNN launch carrying this request's verdicts stayed failed
  // past the service's launch retry policy: |result| is then the
  // default-constructed empty answer and must not be served as authoritative
  // (the server layer degrades or errors; docs/robustness.md).
  std::optional<common::Error> error;

  common::GpuMillis latency_millis() const { return finish_millis - submit_millis; }
};

struct QueryServiceOptions {
  int num_gpus = 10;  // The paper's example cluster size.
  // Maximum images per GT-CNN launch. 1 is the per-centroid schedule (every
  // fresh classification its own launch at full single-inference cost);
  // larger values amortize the launch overhead whenever there is more work
  // than idle GPUs.
  int batch_size = 32;
  // Verdict cache capacity in entries. The cache never grows past this; LRU
  // eviction and epoch retirement keep it bounded under any query mix.
  size_t verdict_cache_capacity = 1 << 20;
};

// One request to the fleet service. |camera| is the verdict-cache identity and
// must name the same target across requests (it is the camera's registry name
// in a served deployment); |query| carries the target and the query itself.
// |tenant| only attributes the request (the `fleet.tenant.<t>.requests`
// counter; names past the first 64 share `fleet.tenant_overflow.requests`);
// it never changes when or how the request runs.
struct FleetQueryRequest {
  std::string camera;
  std::string tenant = "default";
  QueryRequest query;
};

// Cumulative (service-lifetime) accounting. All counters only grow; a caller
// measuring one admission diffs two readings.
struct FleetServiceStats {
  int64_t requests = 0;
  int64_t work_items = 0;    // Plan items across all admissions (pre-dedup).
  int64_t cache_hits = 0;    // Items answered from the global verdict cache.
  int64_t cache_misses = 0;  // Items that had to be classified fresh.
  int64_t dedup_hits = 0;    // In-admission duplicates of another item.
  int64_t launches = 0;
  common::GpuMillis gpu_millis = 0.0;  // Launch-amortized cost charged to the cluster.
  int64_t launch_retries = 0;
  int64_t launches_failed = 0;
  common::GpuMillis wasted_gpu_millis = 0.0;
  int64_t cache_evicted = 0;  // Capacity (LRU) evictions.
  int64_t cache_retired = 0;  // Epoch-retirement evictions.
  size_t cache_size = 0;      // Current entries (bounded by capacity).

  double CacheHitRate() const {
    const int64_t looked_up = cache_hits + cache_misses;
    return looked_up == 0 ? 0.0 : static_cast<double>(cache_hits) / looked_up;
  }
};

// A federated execution: the merged fleet result plus the virtual wall-clock
// of the slowest camera. |error| is set if any camera's launches stayed failed
// past the retry policy (the merged result is then not authoritative).
struct FederatedExecution {
  core::FleetQueryResult result;
  common::GpuMillis submit_millis = 0.0;
  common::GpuMillis finish_millis = 0.0;
  std::optional<common::Error> error;

  common::GpuMillis latency_millis() const { return finish_millis - submit_millis; }
};

class FleetQueryService {
 public:
  explicit FleetQueryService(QueryServiceOptions options = {},
                             MetricsRegistry* metrics = nullptr);

  FleetQueryService(const FleetQueryService&) = delete;
  FleetQueryService& operator=(const FleetQueryService&) = delete;

  // Executes one request through the shared cache/cluster. Thread-safe:
  // concurrent callers see each other's verdicts. Cold requests classify one
  // admission at a time under the service lock; a fully-cached request skips
  // classification and launches and holds that lock only to commit counters,
  // check the epoch and read the cluster frontier.
  QueryExecution Execute(const FleetQueryRequest& request);

  // Executes a batch admitted together: work is pooled, deduplicated and
  // packed across all requests (and their cameras). Returns executions in
  // request order.
  std::vector<QueryExecution> ExecuteConcurrently(const std::vector<FleetQueryRequest>& requests);

  // Executes a federated fan-out (core::FocusFleet::PlanFederated) as one
  // pooled admission — all cameras share dedup, cache, and launches — and
  // merges the per-camera results; the merged result is byte-identical to
  // ExecuteFederatedSequential on the same plan. |tenant| attributes the
  // fan-out as one request.
  FederatedExecution ExecuteFederated(const core::FederatedPlan& plan,
                                      const std::string& tenant = "default");

  // QuerySession integration (core::QuerySession::SetClassifier): classifies
  // |plan|'s work items for |stream| (registered as |camera|) through the
  // shared cache, so concurrent sessions over one stream never re-pay a
  // centroid another session (or any past query) already paid. Returns top-1
  // verdicts in plan order, or Unavailable if a launch carrying any of them
  // stayed failed past the retry policy (the verdicts that did land are
  // cached, so a retry re-pays only the failed ones).
  common::Result<std::vector<common::ClassId>> ClassifySessionPlan(
      const std::string& camera, const core::FocusStream& stream, const core::QueryPlan& plan);

  FleetServiceStats stats() const;
  const QueryServiceOptions& options() const { return options_; }

 private:
  struct CacheKey {
    std::string camera;
    uint64_t epoch = 0;
    int64_t cluster_id = -1;

    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& key) const;
  };
  using LruList = std::list<std::pair<CacheKey, common::ClassId>>;

  // The verdict cache is sharded into stripes keyed on hash(camera, centroid)
  // — epoch excluded, so all epochs of a centroid land in one stripe and
  // epoch retirement sweeps exactly one stripe per key. Each stripe has its
  // own mutex and LRU; the configured capacity is split exactly across
  // stripes (global size never exceeds it). Stripe locks are leaves: they are
  // taken one at a time, with or without |mu_|, which is what lets Admit's
  // fully-cached fast path probe every verdict before it takes the
  // service-wide lock, and then hold it only to commit its accounting.
  static constexpr size_t kCacheStripes = 16;
  struct CacheStripe {
    mutable std::mutex mu;
    LruList lru;  // Front = most recently used.
    std::unordered_map<CacheKey, LruList::iterator, CacheKeyHash> map;
    size_t capacity = 0;
  };

  // One planned target inside an admission (a request, a federated camera, or
  // a session expansion step).
  struct Unit {
    std::string camera;
    uint64_t epoch = 0;
    core::QueryPlan plan;
    const cnn::Cnn* gt = nullptr;
    // Resolver target (exactly one set; both null for session units, which
    // consume raw verdicts instead of a resolved QueryResult).
    const core::FocusStream* stream = nullptr;
    std::shared_ptr<const core::LiveSnapshot> snapshot;
    const cnn::Cnn* ingest_cnn = nullptr;
  };
  // Classification outcome of one unit: verdicts parallel to plan.work.
  struct UnitOutcome {
    std::vector<common::ClassId> verdicts;
    common::GpuMillis finish_millis = 0.0;
    bool failed = false;
  };

  // What one admission produced: outcomes parallel to its units, and the
  // cluster instant it was admitted at.
  struct Admission {
    std::vector<UnitOutcome> outcomes;
    common::GpuMillis submit = 0.0;
  };

  static Unit UnitFromRequest(const FleetQueryRequest& request);
  static Unit UnitFromFederated(const core::FederatedCameraPlan& camera);

  // The one admission path. Probes the striped cache without |mu_|; if every
  // work item hits (or duplicates an earlier item) and no unit carries an
  // unseen epoch, the admission finishes at the cluster frontier with no
  // launch, holding |mu_| only to commit stats and read the frontier.
  // Otherwise it runs ExecuteUnitsLocked under |mu_|. |requests| is what the
  // admission adds to stats().requests.
  Admission Admit(const std::vector<Unit>& units, int64_t requests);
  // The classifying core of a cache-missing admission. Requires |mu_| held.
  // Classifies every unit's plan through cache -> dedup -> model-grouped
  // cost-ordered launches, at the cluster's current frontier. |submit|
  // receives the admission instant.
  std::vector<UnitOutcome> ExecuteUnitsLocked(const std::vector<Unit>& units,
                                              common::GpuMillis* submit);
  // Resolves one unit's outcome into the caller-facing execution.
  QueryExecution ResolveUnit(const Unit& unit, const UnitOutcome& outcome,
                             common::GpuMillis submit) const;

  // Striped-cache helpers (each takes its stripe's lock internally; safe with
  // or without |mu_|). Lookup refreshes LRU position. Insert and RetireEpochs
  // additionally require |mu_| (they mutate stats_ counters).
  size_t StripeIndexOf(const CacheKey& key) const;
  std::optional<common::ClassId> CacheLookup(const CacheKey& key);
  void CacheInsert(CacheKey key, common::ClassId top1);
  void RetireEpochs(const std::string& camera, uint64_t newest_epoch);
  size_t CacheSize() const;

  // Counts one request of |tenant| under fleet.tenant.<t>.requests. The first
  // kMaxCountedTenants distinct names get a counter each; requests of any
  // later name count under fleet.tenant_overflow.requests, so a stream of
  // fresh tenant names cannot grow the metrics registry without bound.
  static constexpr size_t kMaxCountedTenants = 64;
  void CountTenantRequest(const std::string& tenant);

  QueryServiceOptions options_;
  MetricsRegistry* metrics_;

  mutable std::mutex mu_;
  GpuCluster cluster_;
  FleetServiceStats stats_;

  std::array<CacheStripe, kCacheStripes> stripes_;
  size_t num_stripes_ = 1;
  std::unordered_map<std::string, uint64_t> newest_epoch_;

  std::mutex tenants_mu_;  // Leaf lock; guards only |counted_tenants_|.
  std::unordered_set<std::string> counted_tenants_;
};

}  // namespace focus::runtime

#endif  // FOCUS_SRC_RUNTIME_FLEET_QUERY_SERVICE_H_
