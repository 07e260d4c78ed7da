#include "src/runtime/fleet_query_service.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/common/logging.h"

namespace focus::runtime {

namespace {

// Splitmix-style combine; the camera string dominates, epoch/cluster spread it.
size_t MixHash(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

// The typed error of a verdict whose launch stayed failed past |policy|.
common::Error LaunchFailed(const common::RetryPolicy& policy) {
  return common::Unavailable("GT-CNN launch failed after " +
                             std::to_string(std::max(1, policy.max_attempts)) + " attempts");
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
    const common::RetryPolicy& policy = options_.launch_retry;
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
    execution.error = LaunchFailed(options_.launch_retry);
    return execution;
  }
  execution.result = unit.stream != nullptr
                         ? unit.stream->Resolve(unit.plan, outcome.verdicts)
                         : core::QueryEngine(unit.snapshot.get(), unit.ingest_cnn, unit.gt)
                               .Resolve(unit.plan, outcome.verdicts);
  return execution;
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

  // Fully-cached fast path: probe the striped cache without |mu_|. If every
  // work item of the admission hits (or duplicates an earlier item), nothing
  // launches — the admission finishes at the cluster's current frontier — so
  // concurrent warm HandleLine calls contend only on their verdicts' stripes,
  // never on the service-wide lock. Any miss falls through to the pooled slow
  // path; verdicts are pure functions of the centroid, so the two paths are
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

  std::unique_lock<std::mutex> lock(mu_);
  common::GpuMillis submit = 0.0;
  std::vector<UnitOutcome> outcomes;
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
  stats_.requests += static_cast<int64_t>(requests.size());
  if (fast) {
    stats_.work_items += probe.items;
    stats_.cache_hits += probe.hits;
    stats_.dedup_hits += probe.dups;
    submit = cluster_.EarliestFree();
    stats_.cache_size = CacheSize();
    metrics_->IncrementCounter("fleet.admissions");
    metrics_->IncrementCounter("fleet.cache_hits", probe.hits);
    metrics_->Observe("fleet.admission_launches", 0.0);
    outcomes.reserve(units.size());
    for (size_t u = 0; u < units.size(); ++u) {
      outcomes.push_back(UnitOutcome{std::move(probe.verdicts[u]), submit, false});
    }
    lock.unlock();  // Resolution reads only the units and outcomes.
  } else {
    outcomes = ExecuteUnitsLocked(units, &submit);
  }

  std::vector<QueryExecution> executions;
  executions.reserve(units.size());
  for (size_t u = 0; u < units.size(); ++u) {
    QueryExecution execution = ResolveUnit(units[u], outcomes[u], submit);
    metrics_->IncrementCounter("fleet.requests");
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
  // Routed through the tenant DRR queues, not executed immediately: the plan
  // enqueues as one entry under |tenant| and the drain admits it in
  // weighted-fair rounds against whatever other tenants already have queued —
  // a federated caller waits its turn exactly like queued single-camera
  // traffic. Other entries the drain completes along the way stay buffered
  // for their own DrainAdmitted/TakeFederated callers.
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t ticket = EnqueueLocked(tenant, PendingEntry{std::nullopt, plan, nullptr});
  DrainRoundsLocked();
  auto it = completed_federated_.find(ticket);
  // The drain runs until every queue is empty: an entry over the round budget
  // is split, never parked.
  FOCUS_CHECK(it != completed_federated_.end());
  FederatedExecution execution = std::move(it->second);
  completed_federated_.erase(it);
  return execution;
}

common::Result<std::vector<common::ClassId>> FleetQueryService::ClassifySessionPlan(
    const std::string& camera, const core::FocusStream& stream, const core::QueryPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  Unit unit;
  unit.camera = camera;
  unit.plan = plan;
  unit.gt = &stream.gt_cnn();
  stats_.requests += 1;
  common::GpuMillis submit = 0.0;
  std::vector<UnitOutcome> outcomes = ExecuteUnitsLocked({std::move(unit)}, &submit);
  metrics_->IncrementCounter("fleet.session_expansions");
  if (outcomes[0].failed) {
    return LaunchFailed(options_.launch_retry);
  }
  return std::move(outcomes[0].verdicts);
}

void FleetQueryService::SetTenantWeight(const std::string& tenant, double weight) {
  FOCUS_CHECK(weight > 0.0);
  std::lock_guard<std::mutex> lock(mu_);
  tenant_weights_[tenant] = weight;
}

uint64_t FleetQueryService::EnqueueLocked(const std::string& tenant, PendingEntry entry) {
  const uint64_t ticket = next_ticket_++;
  auto& queue = queues_[tenant];
  queue.emplace_back(ticket, std::move(entry));
  metrics_->IncrementCounter("fleet.enqueued");
  metrics_->IncrementCounter("fleet.tenant." + tenant + ".enqueued");
  metrics_->SetGauge("fleet.tenant." + tenant + ".queue_depth",
                     static_cast<double>(queue.size()));
  return ticket;
}

uint64_t FleetQueryService::Enqueue(FleetQueryRequest request) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string tenant = request.tenant;
  return EnqueueLocked(tenant, PendingEntry{std::move(request), std::nullopt, nullptr});
}

uint64_t FleetQueryService::EnqueueFederated(core::FederatedPlan plan,
                                             const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  return EnqueueLocked(tenant, PendingEntry{std::nullopt, std::move(plan), nullptr});
}

void FleetQueryService::DrainRoundsLocked() {
  // Deficit round robin over tenants in name order: each round a tenant earns
  // its weight in credits and dequeues one entry per whole credit (FIFO
  // within the tenant; a federated plan is one entry however many cameras it
  // fans out to). Every round executes as ONE pooled admission — all its
  // entries' units share dedup, cache, and launches, and later rounds submit
  // at the advanced cluster frontier with earlier rounds' verdicts already
  // cached. Completions land in |completed_| / |completed_federated_|.
  //
  // With |round_cost_budget_millis| set, a tenant's round additionally admits
  // only while the estimated GT-CNN cost fits the budget. An entry whose cost
  // alone exceeds a whole round's budget can never be admitted in one piece;
  // the packer splits it into budget-sized slices executed across consecutive
  // rounds (one credit per slice, queue-front slot held until the final
  // slice). Verdicts are pure functions of their centroids, so accumulating
  // them per unit across slices and resolving against the full plan is
  // byte-identical to unsplit execution.
  const double budget = options_.round_cost_budget_millis;
  auto materialize = [this](PendingEntry& entry) -> SplitProgress& {
    if (entry.progress == nullptr) {
      auto progress = std::make_shared<SplitProgress>();
      if (entry.request.has_value()) {
        progress->units.push_back(UnitFromRequest(*entry.request));
      } else {
        progress->units.reserve(entry.federated->cameras.size());
        for (const core::FederatedCameraPlan& camera : entry.federated->cameras) {
          progress->units.push_back(UnitFromFederated(camera));
        }
      }
      entry.progress = std::move(progress);
    }
    return *entry.progress;
  };
  auto item_cost = [](const Unit& unit) -> double {
    return unit.gt != nullptr ? unit.gt->batch_cost_model().EstimateMillis(1) : 0.0;
  };
  auto remaining_cost = [&item_cost](const SplitProgress& progress) -> double {
    double cost = 0.0;
    for (size_t u = progress.next_unit; u < progress.units.size(); ++u) {
      const size_t done = u == progress.next_unit ? progress.next_item : 0;
      cost += static_cast<double>(progress.units[u].plan.work.size() - done) *
              item_cost(progress.units[u]);
    }
    return cost;
  };
  std::map<std::string, double> credit;
  bool work_left = true;
  while (work_left) {
    struct Admitted {
      uint64_t ticket = 0;
      PendingEntry entry;
      size_t unit_begin = 0;
      size_t unit_count = 0;
    };
    // One budget-sized span of items cut from a split entry's unit this round.
    struct Slice {
      std::shared_ptr<SplitProgress> progress;
      size_t prog_unit = 0;
      size_t item_begin = 0;
      size_t item_count = 0;
      size_t exec_index = 0;
    };
    // Split entries whose final slice runs this round: they complete after it.
    struct Finishing {
      uint64_t ticket = 0;
      PendingEntry entry;
    };
    std::vector<Admitted> round;
    std::vector<Slice> slices;
    std::vector<Finishing> finishing;
    work_left = false;
    for (auto& [tenant, queue] : queues_) {
      if (queue.empty()) {
        continue;
      }
      auto weight_it = tenant_weights_.find(tenant);
      credit[tenant] += weight_it != tenant_weights_.end() ? weight_it->second : 1.0;
      int64_t admitted = 0;
      double spent = 0.0;
      while (credit[tenant] >= 1.0 && !queue.empty()) {
        PendingEntry& front = queue.front().second;
        // |resumed| = at least one slice of this entry already executed; its
        // accumulated verdicts force it through the slice path regardless of
        // what its remaining cost would fit.
        const bool resumed = front.progress != nullptr && !front.progress->partial.empty();
        if (budget <= 0.0) {
          // Unbudgeted: admit the whole entry (the historical behavior).
          credit[tenant] -= 1.0;
          ++admitted;
          round.push_back(Admitted{queue.front().first, std::move(front), 0, 0});
          queue.pop_front();
          continue;
        }
        if (!resumed) {
          const double cost = remaining_cost(materialize(front));
          if (spent + cost <= budget) {
            credit[tenant] -= 1.0;
            ++admitted;
            spent += cost;
            round.push_back(Admitted{queue.front().first, std::move(front), 0, 0});
            queue.pop_front();
            continue;
          }
          if (cost <= budget) {
            break;  // Fits a fresh round's budget; resume next round.
          }
        }
        if (spent > 0.0) {
          break;  // A slice always starts on a fresh round's whole budget.
        }
        // Cut one budget-sized slice off the front entry. The entry keeps its
        // queue-front slot until the final slice.
        SplitProgress& progress = materialize(front);
        if (!resumed) {
          stats_.plans_split += 1;
          metrics_->IncrementCounter("fleet.plans_split");
          stats_.requests += 1;  // A split entry is still one request.
        }
        credit[tenant] -= 1.0;
        ++admitted;
        metrics_->IncrementCounter("fleet.plan_slices");
        bool took = false;
        double slice_cost = 0.0;
        while (progress.next_unit < progress.units.size()) {
          const Unit& unit = progress.units[progress.next_unit];
          if (progress.next_item >= unit.plan.work.size()) {
            ++progress.next_unit;
            progress.next_item = 0;
            continue;
          }
          const size_t remaining = unit.plan.work.size() - progress.next_item;
          size_t take = remaining;
          const double per_item = item_cost(unit);
          if (per_item > 0.0) {
            const double room = (budget - slice_cost) / per_item;
            if (room < 1.0) {
              if (took) {
                break;
              }
              take = 1;  // Liveness: every slice moves at least one item.
            } else {
              take = std::min(remaining, static_cast<size_t>(room));
            }
          }
          slices.push_back(
              Slice{front.progress, progress.next_unit, progress.next_item, take, 0});
          slice_cost += static_cast<double>(take) * per_item;
          progress.next_item += take;
          took = true;
          if (slice_cost >= budget) {
            break;
          }
        }
        spent += slice_cost;
        while (progress.next_unit < progress.units.size() &&
               progress.next_item >= progress.units[progress.next_unit].plan.work.size()) {
          ++progress.next_unit;
          progress.next_item = 0;
        }
        if (progress.next_unit >= progress.units.size()) {
          finishing.push_back(Finishing{queue.front().first, std::move(front)});
          queue.pop_front();
        }
        break;  // The slice consumed this tenant's round.
      }
      if (admitted > 0) {
        metrics_->IncrementCounter("fleet.tenant." + tenant + ".admitted", admitted);
        metrics_->SetGauge("fleet.tenant." + tenant + ".queue_depth",
                           static_cast<double>(queue.size()));
      }
      work_left = work_left || !queue.empty();
    }
    if (round.empty() && slices.empty() && finishing.empty()) {
      // Nothing admitted: every non-empty tenant is still accruing fractional
      // credit (a tenant holding a whole credit always admits an entry or a
      // slice of one).
      continue;
    }
    std::vector<Unit> units;
    for (Admitted& admitted : round) {
      admitted.unit_begin = units.size();
      if (admitted.entry.progress != nullptr) {
        // Cost estimation already planned this entry; reuse its units.
        for (Unit& unit : admitted.entry.progress->units) {
          units.push_back(std::move(unit));
        }
        admitted.entry.progress.reset();
      } else if (admitted.entry.request.has_value()) {
        units.push_back(UnitFromRequest(*admitted.entry.request));
      } else {
        for (const core::FederatedCameraPlan& camera : admitted.entry.federated->cameras) {
          units.push_back(UnitFromFederated(camera));
        }
      }
      admitted.unit_count = units.size() - admitted.unit_begin;
    }
    for (Slice& slice : slices) {
      // Classification-only sub-unit: ExecuteUnitsLocked reads camera, epoch,
      // plan.work, and gt; resolution happens against the full unit at the
      // final slice, so stream/snapshot stay null here.
      const Unit& source = slice.progress->units[slice.prog_unit];
      Unit exec;
      exec.camera = source.camera;
      exec.epoch = source.epoch;
      exec.gt = source.gt;
      exec.plan = source.plan;
      exec.plan.work.assign(
          source.plan.work.begin() + static_cast<ptrdiff_t>(slice.item_begin),
          source.plan.work.begin() + static_cast<ptrdiff_t>(slice.item_begin + slice.item_count));
      slice.exec_index = units.size();
      units.push_back(std::move(exec));
    }
    stats_.requests += static_cast<int64_t>(round.size());
    common::GpuMillis submit = 0.0;
    const std::vector<UnitOutcome> outcomes = ExecuteUnitsLocked(units, &submit);
    for (const Slice& slice : slices) {
      SplitProgress& progress = *slice.progress;
      if (progress.partial.empty()) {
        progress.partial.resize(progress.units.size());
        for (size_t u = 0; u < progress.units.size(); ++u) {
          progress.partial[u].verdicts.assign(progress.units[u].plan.work.size(),
                                              common::ClassId{});
          progress.partial[u].finish_millis = submit;
        }
        progress.first_submit = submit;
      }
      const UnitOutcome& outcome = outcomes[slice.exec_index];
      UnitOutcome& into = progress.partial[slice.prog_unit];
      into.failed = into.failed || outcome.failed;
      into.finish_millis = std::max(into.finish_millis, outcome.finish_millis);
      const size_t copied = std::min(slice.item_count, outcome.verdicts.size());
      for (size_t i = 0; i < copied; ++i) {
        into.verdicts[slice.item_begin + i] = outcome.verdicts[i];
      }
    }
    auto complete = [this](uint64_t ticket, PendingEntry& entry, const Unit* entry_units,
                           const UnitOutcome* entry_outcomes, size_t count,
                           common::GpuMillis entry_submit) {
      if (entry.request.has_value()) {
        QueryExecution execution = ResolveUnit(entry_units[0], entry_outcomes[0], entry_submit);
        metrics_->IncrementCounter("fleet.requests");
        if (execution.error.has_value()) {
          metrics_->IncrementCounter("fleet.requests_failed");
        } else {
          metrics_->Observe("fleet.latency_millis", execution.latency_millis());
        }
        completed_.emplace_back(ticket, std::move(execution));
        return;
      }
      const core::FederatedPlan& plan = *entry.federated;
      FederatedExecution federated;
      federated.submit_millis = entry_submit;
      federated.finish_millis = entry_submit;
      std::vector<core::QueryResult> per_camera;
      per_camera.reserve(count);
      for (size_t u = 0; u < count; ++u) {
        QueryExecution execution = ResolveUnit(entry_units[u], entry_outcomes[u], entry_submit);
        federated.finish_millis = std::max(federated.finish_millis, execution.finish_millis);
        if (execution.error.has_value() && !federated.error.has_value()) {
          federated.error = execution.error;
        }
        per_camera.push_back(std::move(execution.result));
      }
      federated.result = core::MergeFederatedResults(plan, std::move(per_camera));
      metrics_->IncrementCounter("fleet.federated_queries");
      metrics_->IncrementCounter("fleet.federated_cameras", static_cast<int64_t>(count));
      if (federated.error.has_value()) {
        metrics_->IncrementCounter("fleet.requests_failed");
      } else {
        metrics_->Observe("fleet.latency_millis", federated.latency_millis());
      }
      completed_federated_.emplace(ticket, std::move(federated));
    };
    for (Admitted& admitted : round) {
      complete(admitted.ticket, admitted.entry, units.data() + admitted.unit_begin,
               outcomes.data() + admitted.unit_begin, admitted.unit_count, submit);
    }
    for (Finishing& fin : finishing) {
      SplitProgress& progress = *fin.entry.progress;
      complete(fin.ticket, fin.entry, progress.units.data(), progress.partial.data(),
               progress.units.size(), progress.first_submit);
    }
  }
  for (auto it = queues_.begin(); it != queues_.end();) {
    it = it->second.empty() ? queues_.erase(it) : std::next(it);
  }
}

std::vector<std::pair<uint64_t, QueryExecution>> FleetQueryService::DrainAdmitted() {
  std::lock_guard<std::mutex> lock(mu_);
  DrainRoundsLocked();
  return std::exchange(completed_, {});
}

std::optional<FederatedExecution> FleetQueryService::TakeFederated(uint64_t ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = completed_federated_.find(ticket);
  if (it == completed_federated_.end()) {
    return std::nullopt;
  }
  FederatedExecution execution = std::move(it->second);
  completed_federated_.erase(it);
  return execution;
}

std::map<std::string, size_t> FleetQueryService::QueueDepths() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, size_t> depths;
  for (const auto& [tenant, queue] : queues_) {
    if (!queue.empty()) {
      depths[tenant] = queue.size();
    }
  }
  return depths;
}

FleetServiceStats FleetQueryService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetServiceStats snapshot = stats_;
  snapshot.cache_size = CacheSize();
  return snapshot;
}

}  // namespace focus::runtime
