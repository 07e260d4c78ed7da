#include "src/runtime/fleet_query_service.h"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

#include "src/common/logging.h"
#include "src/common/retry.h"

namespace focus::runtime {

namespace {

// Splitmix-style combine; the camera string dominates, epoch/cluster spread it.
size_t MixHash(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

// Retry policy for GT-CNN launches that fail or time out (injected via the
// "gpu.launch" / "gpu.timeout" fault sites): each retry re-submits at the
// cluster's then-current frontier plus the policy's exponential backoff, all
// in virtual time. A launch that stays failed marks every execution whose
// verdicts it carried with QueryExecution::error.
constexpr common::RetryPolicy kLaunchRetry{};

// The typed error of a verdict whose launch stayed failed past kLaunchRetry.
common::Error LaunchFailed() {
  return common::Unavailable("GT-CNN launch failed after " +
                             std::to_string(std::max(1, kLaunchRetry.max_attempts)) +
                             " attempts");
}

}  // namespace

size_t FleetQueryService::CacheKeyHash::operator()(const CacheKey& key) const {
  size_t h = std::hash<std::string>{}(key.camera);
  h = MixHash(h, std::hash<uint64_t>{}(key.epoch));
  h = MixHash(h, std::hash<int64_t>{}(static_cast<int64_t>(key.cluster_id)));
  return h;
}

FleetQueryService::FleetQueryService(QueryServiceOptions options, MetricsRegistry* metrics)
    : options_(options),
      metrics_(metrics != nullptr ? metrics : &GlobalMetrics()),
      cluster_(options.num_gpus) {
  FOCUS_CHECK(options.batch_size >= 1);
  // Split the capacity exactly across stripes (never more stripes than
  // entries), so the global bound the capacity promises still holds:
  // sum(stripe capacities) == verdict_cache_capacity.
  const size_t capacity = options_.verdict_cache_capacity;
  num_stripes_ = capacity == 0 ? 1 : std::min(kCacheStripes, capacity);
  for (size_t s = 0; s < num_stripes_; ++s) {
    stripes_[s].capacity = capacity / num_stripes_ + (s < capacity % num_stripes_ ? 1 : 0);
  }
}

FleetQueryService::Unit FleetQueryService::UnitFromRequest(const FleetQueryRequest& request) {
  FOCUS_CHECK(!request.camera.empty());
  const QueryRequest& query = request.query;
  FOCUS_CHECK((query.stream != nullptr) != (query.snapshot != nullptr));
  Unit unit;
  unit.camera = request.camera;
  if (query.stream != nullptr) {
    unit.plan = query.stream->Plan(query.cls, query.kx, query.range);
    unit.gt = &query.stream->gt_cnn();
    unit.stream = query.stream;
  } else {
    FOCUS_CHECK(query.ingest_cnn != nullptr && query.gt_cnn != nullptr);
    unit.epoch = query.snapshot->epoch;
    unit.plan = core::QueryEngine(query.snapshot.get(), query.ingest_cnn, query.gt_cnn)
                    .Plan(query.cls, query.kx, query.range, query.fps);
    unit.gt = query.gt_cnn;
    unit.snapshot = query.snapshot;
    unit.ingest_cnn = query.ingest_cnn;
  }
  return unit;
}

FleetQueryService::Unit FleetQueryService::UnitFromFederated(
    const core::FederatedCameraPlan& camera) {
  Unit unit;
  unit.camera = camera.camera;
  unit.epoch = camera.epoch;
  unit.plan = camera.plan;
  if (camera.stream != nullptr) {
    unit.gt = &camera.stream->gt_cnn();
    unit.stream = camera.stream;
  } else {
    FOCUS_CHECK(camera.snapshot != nullptr);
    unit.gt = camera.gt_cnn;
    unit.snapshot = camera.snapshot;
    unit.ingest_cnn = camera.ingest_cnn;
  }
  return unit;
}

size_t FleetQueryService::StripeIndexOf(const CacheKey& key) const {
  // hash(camera, centroid): epoch deliberately excluded, so every epoch of a
  // centroid shares a stripe and retirement stays a single-stripe sweep.
  size_t h = std::hash<std::string>{}(key.camera);
  h = MixHash(h, std::hash<int64_t>{}(key.cluster_id));
  return h % num_stripes_;
}

std::optional<common::ClassId> FleetQueryService::CacheLookup(const CacheKey& key) {
  CacheStripe& stripe = stripes_[StripeIndexOf(key)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.map.find(key);
  if (it == stripe.map.end()) {
    return std::nullopt;
  }
  stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second);  // Refresh.
  return it->second->second;
}

void FleetQueryService::CacheInsert(CacheKey key, common::ClassId top1) {
  if (options_.verdict_cache_capacity == 0) {
    return;
  }
  CacheStripe& stripe = stripes_[StripeIndexOf(key)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  FOCUS_CHECK(!stripe.map.contains(key));  // Only misses are inserted.
  stripe.lru.emplace_front(std::move(key), top1);
  stripe.map.emplace(stripe.lru.front().first, stripe.lru.begin());
  while (stripe.map.size() > stripe.capacity) {
    stripe.map.erase(stripe.lru.back().first);
    stripe.lru.pop_back();
    ++stats_.cache_evicted;
  }
}

void FleetQueryService::RetireEpochs(const std::string& camera, uint64_t newest_epoch) {
  for (size_t s = 0; s < num_stripes_; ++s) {
    CacheStripe& stripe = stripes_[s];
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (auto it = stripe.lru.begin(); it != stripe.lru.end();) {
      if (it->first.camera == camera && it->first.epoch < newest_epoch) {
        stripe.map.erase(it->first);
        it = stripe.lru.erase(it);
        ++stats_.cache_retired;
      } else {
        ++it;
      }
    }
  }
}

size_t FleetQueryService::CacheSize() const {
  size_t total = 0;
  for (size_t s = 0; s < num_stripes_; ++s) {
    std::lock_guard<std::mutex> lock(stripes_[s].mu);
    total += stripes_[s].map.size();
  }
  return total;
}

std::vector<FleetQueryService::UnitOutcome> FleetQueryService::ExecuteUnitsLocked(
    const std::vector<Unit>& units, common::GpuMillis* submit_out) {
  const common::GpuMillis submit = cluster_.EarliestFree();
  *submit_out = submit;
  const int64_t cache_hits_before = stats_.cache_hits;
  const int64_t cache_misses_before = stats_.cache_misses;

  // Epoch advance first, across the whole admission: the first sighting of a
  // newer epoch of a camera retires every cached verdict of its older epochs
  // (a unit still pinning a stale snapshot in this same admission simply
  // re-pays — its entries re-enter the cache under the old epoch and age out
  // by LRU).
  for (const Unit& unit : units) {
    uint64_t& newest = newest_epoch_[unit.camera];
    if (unit.epoch > newest) {
      RetireEpochs(unit.camera, unit.epoch);
      newest = unit.epoch;
    }
  }

  // Phase 1 — resolve every work item against the global cache and deduplicate
  // within the admission. |local| pins this admission's verdict per key so that
  // concurrent duplicates are counted (and paid) once; fresh keys are marked
  // pending until their launch lands.
  struct LocalVerdict {
    common::ClassId top1 = common::kInvalidClass;
    common::GpuMillis finish_millis = 0.0;
    bool failed = false;
    bool pending = false;
  };
  struct FreshItem {
    size_t unit = 0;
    int64_t cluster_id = -1;
    const video::Detection* centroid = nullptr;
  };
  std::unordered_map<CacheKey, LocalVerdict, CacheKeyHash> local;
  std::vector<FreshItem> fresh;
  for (size_t u = 0; u < units.size(); ++u) {
    for (const core::CentroidWorkItem& item : units[u].plan.work) {
      ++stats_.work_items;
      CacheKey key{units[u].camera, units[u].epoch, item.cluster_id};
      if (local.contains(key)) {
        ++stats_.dedup_hits;
        continue;
      }
      if (const std::optional<common::ClassId> hit = CacheLookup(key)) {
        // A cached verdict costs nothing and waits on nothing: it contributes
        // the admission instant as its finish time.
        ++stats_.cache_hits;
        local.emplace(std::move(key), LocalVerdict{*hit, submit, false, false});
        continue;
      }
      ++stats_.cache_misses;
      fresh.push_back(FreshItem{u, item.cluster_id, &item.centroid});
      local.emplace(std::move(key), LocalVerdict{common::kInvalidClass, 0.0, false, true});
    }
  }

  // Phase 2 — group fresh items by model architecture (cnn::ModelPackKey): one
  // launch runs one architecture, but per-camera instances of the same
  // architecture pool freely (each item is still classified through its own
  // Cnn instance — identical outputs to per-element classification). Groups
  // keep first-appearance order; items within a group keep admission order.
  struct PackGroup {
    const cnn::Cnn* cost_rep = nullptr;  // Any member; the key pins the cost curve.
    std::vector<size_t> items;           // Indices into |fresh|.
  };
  std::vector<PackGroup> groups;
  std::map<cnn::ModelPackKey, size_t> group_of;
  for (size_t f = 0; f < fresh.size(); ++f) {
    const cnn::Cnn* gt = units[fresh[f].unit].gt;
    auto [it, inserted] = group_of.try_emplace(gt->pack_key(), groups.size());
    if (inserted) {
      groups.push_back(PackGroup{gt, {}});
    }
    groups[it->second].items.push_back(f);
  }

  // Phase 3 — pack each group into launches, then order submission across
  // groups by estimated launch cost, heaviest first: longest-processing-time
  // onto the least-loaded device keeps heterogeneous GT-CNN mixes balanced.
  // Submission order affects the schedule (latency) only — verdict values are
  // launch-order independent. Within a group the packer is parallelism first:
  // while there is less work than idle GPUs every centroid gets its own launch
  // (the §5 fan-out; at batch_size = 1 always). Beyond that it takes the
  // fewest launches the batch cap allows, rounded up to whole rounds of
  // num_gpus so the rounds stay balanced: 21 launches on 10 GPUs would leave
  // one GPU a third round while nine idle, whereas 30 finish in three even
  // rounds.
  struct Launch {
    size_t group = 0;
    int64_t offset = 0;
    int64_t count = 0;
    common::GpuMillis estimate = 0.0;
  };
  std::vector<Launch> launches;
  for (size_t g = 0; g < groups.size(); ++g) {
    const int64_t n = static_cast<int64_t>(groups[g].items.size());
    const cnn::BatchCostModel cost_model = groups[g].cost_rep->batch_cost_model();
    const int64_t by_amortization =
        (n + options_.batch_size - 1) / static_cast<int64_t>(options_.batch_size);
    const int64_t rounds =
        (by_amortization + options_.num_gpus - 1) / static_cast<int64_t>(options_.num_gpus);
    const int64_t num_launches =
        std::min<int64_t>(n, rounds * static_cast<int64_t>(options_.num_gpus));
    const int64_t base = n / num_launches;
    const int64_t remainder = n % num_launches;
    int64_t offset = 0;
    for (int64_t launch = 0; launch < num_launches; ++launch) {
      const int64_t count = base + (launch < remainder ? 1 : 0);
      launches.push_back(Launch{g, offset, count, cost_model.EstimateMillis(count)});
      offset += count;
    }
  }
  std::stable_sort(launches.begin(), launches.end(),
                   [](const Launch& a, const Launch& b) { return a.estimate > b.estimate; });

  std::vector<const video::Detection*> crops;
  std::vector<cnn::TopKResult> classified;
  std::vector<common::ClassId> launch_verdicts;
  for (const Launch& launch : launches) {
    const PackGroup& group = groups[launch.group];
    // Classify the launch's items. Members may come from different cameras
    // (different Cnn instances of the one architecture): classify each
    // consecutive same-instance segment through its own instance.
    launch_verdicts.clear();
    int64_t seg_begin = launch.offset;
    while (seg_begin < launch.offset + launch.count) {
      const cnn::Cnn* gt = units[fresh[group.items[static_cast<size_t>(seg_begin)]].unit].gt;
      int64_t seg_end = seg_begin;
      crops.clear();
      while (seg_end < launch.offset + launch.count &&
             units[fresh[group.items[static_cast<size_t>(seg_end)]].unit].gt == gt) {
        crops.push_back(fresh[group.items[static_cast<size_t>(seg_end)]].centroid);
        ++seg_end;
      }
      gt->ClassifyBatch(crops, /*k=*/1, &classified);
      for (const cnn::TopKResult& result : classified) {
        launch_verdicts.push_back(result.Top1());
      }
      seg_begin = seg_end;
    }
    const common::GpuMillis cost = group.cost_rep->BatchCostMillis(launch.count);
    // Bounded-retry launch (docs/robustness.md): a rejected or timed-out
    // launch is re-submitted at the cluster's then-current frontier plus the
    // policy's exponential backoff — all virtual time, nothing sleeps. A
    // timeout occupied a device for the full cost (wasted and accounted); a
    // rejection never reached a device.
    const common::RetryPolicy& policy = kLaunchRetry;
    const int max_attempts = std::max(1, policy.max_attempts);
    double backoff = policy.initial_backoff_millis;
    common::GpuMillis at = submit;
    common::Result<GpuJobTicket> ticket = cluster_.TrySubmit(at, cost);
    for (int attempt = 1; !ticket.ok(); ++attempt) {
      if (ticket.error().code == common::ErrorCode::kTimeout) {
        stats_.wasted_gpu_millis += cost;
      }
      if (attempt >= max_attempts || !common::IsRetryable(ticket.error().code)) {
        break;
      }
      ++stats_.launch_retries;
      at = std::max(at, cluster_.EarliestFree()) + backoff;
      backoff = std::min(backoff * policy.backoff_multiplier, policy.max_backoff_millis);
      ticket = cluster_.TrySubmit(at, cost);
    }
    for (int64_t i = 0; i < launch.count; ++i) {
      const FreshItem& item = fresh[group.items[static_cast<size_t>(launch.offset + i)]];
      CacheKey key{units[item.unit].camera, units[item.unit].epoch, item.cluster_id};
      LocalVerdict& verdict = local.at(key);
      FOCUS_CHECK(verdict.pending);
      verdict.pending = false;
      if (ticket.ok()) {
        verdict.top1 = launch_verdicts[static_cast<size_t>(i)];
        verdict.finish_millis = ticket->finish_millis;
        // Only successful verdicts enter the global cache; a failure is not a
        // fact about the centroid.
        CacheInsert(std::move(key), verdict.top1);
      } else {
        verdict.failed = true;
        verdict.finish_millis = at;
      }
    }
    if (ticket.ok()) {
      ++stats_.launches;
      stats_.gpu_millis += cost;
    } else {
      ++stats_.launches_failed;
    }
  }

  // Phase 4 — fold verdicts back per unit, in plan order. A unit finishes when
  // the last launch carrying one of its verdicts finishes; a fully-cached (or
  // empty) unit finishes at the admission instant — zero added latency.
  std::vector<UnitOutcome> outcomes;
  outcomes.reserve(units.size());
  for (const Unit& unit : units) {
    UnitOutcome outcome;
    outcome.verdicts.reserve(unit.plan.work.size());
    outcome.finish_millis = submit;
    for (const core::CentroidWorkItem& item : unit.plan.work) {
      const LocalVerdict& verdict = local.at(CacheKey{unit.camera, unit.epoch, item.cluster_id});
      outcome.verdicts.push_back(verdict.top1);
      outcome.finish_millis = std::max(outcome.finish_millis, verdict.finish_millis);
      outcome.failed = outcome.failed || verdict.failed;
    }
    outcomes.push_back(std::move(outcome));
  }

  stats_.cache_size = CacheSize();
  metrics_->IncrementCounter("fleet.admissions");
  metrics_->IncrementCounter("fleet.cache_hits", stats_.cache_hits - cache_hits_before);
  metrics_->IncrementCounter("fleet.cache_misses", stats_.cache_misses - cache_misses_before);
  metrics_->Observe("fleet.admission_launches", static_cast<double>(launches.size()));
  return outcomes;
}

QueryExecution FleetQueryService::ResolveUnit(const Unit& unit, const UnitOutcome& outcome,
                                              common::GpuMillis submit) const {
  QueryExecution execution;
  execution.submit_millis = submit;
  execution.finish_millis = outcome.finish_millis;
  if (outcome.failed) {
    execution.error = LaunchFailed();
    return execution;
  }
  execution.result = unit.stream != nullptr
                         ? unit.stream->Resolve(unit.plan, outcome.verdicts)
                         : core::QueryEngine(unit.snapshot.get(), unit.ingest_cnn, unit.gt)
                               .Resolve(unit.plan, outcome.verdicts);
  return execution;
}

FleetQueryService::Admission FleetQueryService::Admit(const std::vector<Unit>& units,
                                                      int64_t requests) {
  // Fully-cached fast path: probe the striped cache without |mu_|. If every
  // work item of the admission hits (or duplicates an earlier item), nothing
  // launches — the admission finishes at the cluster's current frontier — so
  // concurrent warm HandleLine calls skip classification and launches, and
  // hold |mu_| only briefly below to commit counters, check the epoch and
  // read the frontier. Any miss falls through to the pooled slow path;
  // verdicts are pure functions of the centroid, so the two paths are
  // byte-identical and differ only in stats/latency accounting, which this
  // path replicates (same hit/dedup counting as phase 1 of the slow path).
  struct FastProbe {
    std::vector<std::vector<common::ClassId>> verdicts;
    int64_t items = 0;
    int64_t hits = 0;
    int64_t dups = 0;
    bool complete = true;
  };
  FastProbe probe;
  probe.verdicts.resize(units.size());
  std::unordered_map<CacheKey, common::ClassId, CacheKeyHash> probed;
  for (size_t u = 0; u < units.size() && probe.complete; ++u) {
    probe.verdicts[u].reserve(units[u].plan.work.size());
    for (const core::CentroidWorkItem& item : units[u].plan.work) {
      ++probe.items;
      CacheKey key{units[u].camera, units[u].epoch, item.cluster_id};
      if (auto it = probed.find(key); it != probed.end()) {
        ++probe.dups;
        probe.verdicts[u].push_back(it->second);
        continue;
      }
      const std::optional<common::ClassId> hit = CacheLookup(key);
      if (!hit.has_value()) {
        probe.complete = false;
        break;
      }
      ++probe.hits;
      probe.verdicts[u].push_back(*hit);
      probed.emplace(std::move(key), *hit);
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  stats_.requests += requests;
  bool fast = probe.complete;
  if (fast) {
    // Commit requires that no unit carries an epoch the service hasn't seen:
    // the first sighting of a newer epoch must retire its camera's older
    // verdicts, which is the slow path's job.
    for (const Unit& unit : units) {
      const auto newest = newest_epoch_.find(unit.camera);
      if (unit.epoch > (newest != newest_epoch_.end() ? newest->second : 0)) {
        fast = false;
        break;
      }
    }
  }
  Admission admission;
  if (!fast) {
    admission.outcomes = ExecuteUnitsLocked(units, &admission.submit);
    return admission;
  }
  stats_.work_items += probe.items;
  stats_.cache_hits += probe.hits;
  stats_.dedup_hits += probe.dups;
  admission.submit = cluster_.EarliestFree();
  stats_.cache_size = CacheSize();
  metrics_->IncrementCounter("fleet.admissions");
  metrics_->IncrementCounter("fleet.cache_hits", probe.hits);
  metrics_->Observe("fleet.admission_launches", 0.0);
  admission.outcomes.reserve(units.size());
  for (size_t u = 0; u < units.size(); ++u) {
    admission.outcomes.push_back(
        UnitOutcome{std::move(probe.verdicts[u]), admission.submit, false});
  }
  return admission;
}

QueryExecution FleetQueryService::Execute(const FleetQueryRequest& request) {
  return ExecuteConcurrently({request})[0];
}

std::vector<QueryExecution> FleetQueryService::ExecuteConcurrently(
    const std::vector<FleetQueryRequest>& requests) {
  // Plan outside the service lock: planning only reads immutable indexes and
  // pinned snapshots.
  std::vector<Unit> units;
  units.reserve(requests.size());
  for (const FleetQueryRequest& request : requests) {
    units.push_back(UnitFromRequest(request));
  }
  const Admission admission = Admit(units, static_cast<int64_t>(requests.size()));

  std::vector<QueryExecution> executions;
  executions.reserve(units.size());
  for (size_t u = 0; u < units.size(); ++u) {
    QueryExecution execution = ResolveUnit(units[u], admission.outcomes[u], admission.submit);
    metrics_->IncrementCounter("fleet.requests");
    CountTenantRequest(requests[u].tenant);
    if (execution.error.has_value()) {
      metrics_->IncrementCounter("fleet.requests_failed");
    } else {
      metrics_->Observe("fleet.latency_millis", execution.latency_millis());
    }
    executions.push_back(std::move(execution));
  }
  return executions;
}

FederatedExecution FleetQueryService::ExecuteFederated(const core::FederatedPlan& plan,
                                                       const std::string& tenant) {
  // The fan-out is one admission of one unit per camera: its cameras share
  // dedup, cache, and launches, and it counts as one request.
  std::vector<Unit> units;
  units.reserve(plan.cameras.size());
  for (const core::FederatedCameraPlan& camera : plan.cameras) {
    units.push_back(UnitFromFederated(camera));
  }
  const Admission admission = Admit(units, /*requests=*/1);

  FederatedExecution federated;
  federated.submit_millis = admission.submit;
  federated.finish_millis = admission.submit;
  std::vector<core::QueryResult> per_camera;
  per_camera.reserve(units.size());
  for (size_t u = 0; u < units.size(); ++u) {
    QueryExecution execution = ResolveUnit(units[u], admission.outcomes[u], admission.submit);
    federated.finish_millis = std::max(federated.finish_millis, execution.finish_millis);
    if (execution.error.has_value() && !federated.error.has_value()) {
      federated.error = execution.error;
    }
    per_camera.push_back(std::move(execution.result));
  }
  federated.result = core::MergeFederatedResults(plan, std::move(per_camera));
  CountTenantRequest(tenant);
  metrics_->IncrementCounter("fleet.federated_queries");
  metrics_->IncrementCounter("fleet.federated_cameras", static_cast<int64_t>(units.size()));
  if (federated.error.has_value()) {
    metrics_->IncrementCounter("fleet.requests_failed");
  } else {
    metrics_->Observe("fleet.latency_millis", federated.latency_millis());
  }
  return federated;
}

common::Result<std::vector<common::ClassId>> FleetQueryService::ClassifySessionPlan(
    const std::string& camera, const core::FocusStream& stream, const core::QueryPlan& plan) {
  Unit unit;
  unit.camera = camera;
  unit.plan = plan;
  unit.gt = &stream.gt_cnn();
  Admission admission = Admit({std::move(unit)}, /*requests=*/1);
  metrics_->IncrementCounter("fleet.session_expansions");
  if (admission.outcomes[0].failed) {
    return LaunchFailed();
  }
  return std::move(admission.outcomes[0].verdicts);
}

void FleetQueryService::CountTenantRequest(const std::string& tenant) {
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    if (!counted_tenants_.contains(tenant)) {
      if (counted_tenants_.size() >= kMaxCountedTenants) {
        metrics_->IncrementCounter("fleet.tenant_overflow.requests");
        return;
      }
      counted_tenants_.insert(tenant);
    }
  }
  metrics_->IncrementCounter("fleet.tenant." + tenant + ".requests");
}

FleetServiceStats FleetQueryService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetServiceStats snapshot = stats_;
  snapshot.cache_size = CacheSize();
  return snapshot;
}

}  // namespace focus::runtime
