#include "src/runtime/supervised_worker_pool.h"

#include <algorithm>
#include <cmath>

#include "src/runtime/metrics.h"

namespace focus::runtime {

namespace {

// Virtual backoff a production supervisor would sleep before the |restart|th
// (0-based) respawn of a slot: initial * multiplier^restart, capped.
double BackoffForRestart(const common::RetryPolicy& policy, int restart) {
  double backoff = policy.initial_backoff_millis;
  for (int i = 0; i < restart; ++i) {
    backoff = std::min(backoff * policy.backoff_multiplier, policy.max_backoff_millis);
  }
  return std::min(backoff, policy.max_backoff_millis);
}

}  // namespace

const char* WorkerStateName(WorkerState state) {
  switch (state) {
    case WorkerState::kHealthy:
      return "Healthy";
    case WorkerState::kRestarting:
      return "Restarting";
    case WorkerState::kDown:
      return "Down";
  }
  return "Unknown";
}

SupervisedWorkerPool::SupervisedWorkerPool(SupervisedPoolOptions options,
                                           MetricsRegistry* metrics)
    : options_(std::move(options)),
      metrics_(metrics != nullptr ? metrics : &GlobalMetrics()) {}

common::Result<std::monostate> SupervisedWorkerPool::Start(Handler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  auto started = pool_.Start(options_.num_workers, std::move(handler));
  if (!started.ok()) {
    return started;
  }
  health_.assign(static_cast<size_t>(options_.num_workers), WorkerHealth{});
  stats_ = SupervisedPoolStats{};
  cursor_ = 0;
  return std::monostate{};
}

int SupervisedWorkerPool::PickWorkerLocked(int exclude) {
  const int n = pool_.size();
  if (n == 0) {
    return -1;
  }
  // One round-robin pass over live slots: Restarting serves alongside Healthy
  // (its next success is what redeems it), Down never serves. |exclude| is
  // only a preference — with one live slot left, retrying the respawned
  // worker itself is still better than surfacing the error.
  for (int step = 0; step < n; ++step) {
    const int slot = (cursor_ + step) % n;
    if (slot == exclude || health_[slot].state == WorkerState::kDown) {
      continue;
    }
    cursor_ = (slot + 1) % n;
    return slot;
  }
  if (exclude >= 0 && exclude < n && health_[exclude].state != WorkerState::kDown) {
    return exclude;
  }
  return -1;
}

void SupervisedWorkerPool::NoteFailureLocked(int slot, const common::Error& error) {
  WorkerHealth& health = health_[slot];
  ++health.consecutive_failures;
  health.last_error = error.message;
  health.last_code = error.code;
  if (error.code == common::ErrorCode::kTimeout) {
    ++stats_.timeouts;
    metrics_->IncrementCounter("proc.pool.timeouts");
  }
  // Whatever the failure was — died, torn frame, hung past deadline — the
  // slot's conversation is unusable: SIGKILL and reap (no-op if already dead).
  pool_.Kill(slot);
  if (health.restarts >= options_.max_worker_restarts) {
    if (health.state != WorkerState::kDown) {
      health.state = WorkerState::kDown;
      metrics_->IncrementCounter("proc.pool.workers_down");
    }
    return;
  }
  health.state = WorkerState::kRestarting;
  const double backoff = BackoffForRestart(options_.restart_backoff, health.restarts);
  stats_.backoff_millis += backoff;
  metrics_->Observe("proc.pool.restart_backoff_millis", backoff);
  ++health.restarts;
  ++stats_.restarts;
  metrics_->IncrementCounter("proc.pool.restarts");
  auto respawned = pool_.Respawn(slot);
  if (!respawned.ok()) {
    ++stats_.respawn_failures;
    metrics_->IncrementCounter("proc.pool.respawn_failures");
    health.last_error = respawned.error().message;
    health.last_code = respawned.error().code;
    if (health.restarts >= options_.max_worker_restarts) {
      health.state = WorkerState::kDown;
      metrics_->IncrementCounter("proc.pool.workers_down");
    }
    // Budget permitting, the slot stays Restarting: its empty seat fails the
    // next call it is picked for, which burns another restart on a respawn.
  }
}

common::Result<std::string> SupervisedWorkerPool::CallOnceLocked(int slot,
                                                                 const std::string& request) {
  auto reply = pool_.Call(slot, request, options_.call_deadline_millis);
  if (reply.ok()) {
    health_[slot].state = WorkerState::kHealthy;
    health_[slot].consecutive_failures = 0;
    return reply;
  }
  if (common::IsRetryable(reply.error().code)) {
    NoteFailureLocked(slot, reply.error());
  }
  return reply;
}

common::Result<std::string> SupervisedWorkerPool::Call(const std::string& request) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.calls;
  metrics_->IncrementCounter("proc.pool.calls");
  if (pool_.size() == 0) {
    ++stats_.failed_calls;
    return common::FailedPrecondition("supervised worker pool is not running");
  }
  const int first = PickWorkerLocked(-1);
  if (first < 0) {
    ++stats_.failed_calls;
    metrics_->IncrementCounter("proc.pool.rejected_all_down");
    return common::Unavailable("all " + std::to_string(pool_.size()) +
                               " workers are down (restart budgets exhausted)");
  }
  auto attempt = CallOnceLocked(first, request);
  if (attempt.ok()) {
    return attempt;
  }
  // A retryable failure is re-dispatched once to a healthy sibling.
  if (!common::IsRetryable(attempt.error().code)) {
    ++stats_.failed_calls;
    metrics_->IncrementCounter("proc.pool.failed_calls");
    return attempt;
  }
  const int second = PickWorkerLocked(first);
  if (second < 0) {
    ++stats_.failed_calls;
    metrics_->IncrementCounter("proc.pool.failed_calls");
    return attempt;
  }
  ++stats_.sibling_retries;
  metrics_->IncrementCounter("proc.pool.sibling_retries");
  auto retried = CallOnceLocked(second, request);
  if (!retried.ok()) {
    ++stats_.failed_calls;
    metrics_->IncrementCounter("proc.pool.failed_calls");
  }
  return retried;
}

void SupervisedWorkerPool::KillWorker(int slot) {
  std::lock_guard<std::mutex> lock(mu_);
  pool_.Kill(slot);
}

WorkerHealth SupervisedWorkerPool::Health(int slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (slot < 0 || slot >= static_cast<int>(health_.size())) {
    return WorkerHealth{};
  }
  return health_[slot];
}

std::vector<WorkerHealth> SupervisedWorkerPool::FleetHealth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return health_;
}

bool SupervisedWorkerPool::AllDown() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (health_.empty()) {
    return false;
  }
  return std::all_of(health_.begin(), health_.end(), [](const WorkerHealth& h) {
    return h.state == WorkerState::kDown;
  });
}

int SupervisedWorkerPool::live_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  int live = 0;
  for (const WorkerHealth& h : health_) {
    if (h.state != WorkerState::kDown) {
      ++live;
    }
  }
  return live;
}

int SupervisedWorkerPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_.size();
}

SupervisedPoolStats SupervisedWorkerPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SupervisedWorkerPool::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  pool_.Shutdown();
  health_.clear();
}

}  // namespace focus::runtime
