// Supervision policy over WorkerProcessPool: deadline-bounded calls, restart
// budgets, sibling retry, and a health registry — the serving-side twin of
// IngestService's per-stream worker supervision (docs/robustness.md).
//
// WorkerProcessPool is mechanism: typed errors, Respawn. This layer is policy:
//
//   - Every Call carries the configured deadline; a hung worker surfaces as a
//     typed kTimeout, is SIGKILLed, and reaped — it can never occupy a server
//     thread past the deadline.
//   - A worker whose call fails retryably (died, torn frame, timeout) is
//     respawned up to |max_worker_restarts| times per slot, with the wait a
//     production system would impose between restarts accounted in virtual
//     time through RetryPolicy (accounted, not slept — the same discipline as
//     src/common/retry.h).
//   - The failed request is re-dispatched once to a healthy sibling before an
//     error reaches the caller; because every worker answers from the same
//     pinned shm epoch, the retried answer is byte-identical (property-tested
//     in tests/proc_serving_chaos_test.cc).
//   - A slot whose budget is exhausted is Down. When every slot is Down the
//     pool refuses calls with kUnavailable and AllDown() reads true — the
//     server uses that to fall back to its in-process reader and frame the
//     answer DEGRADED INPROC (docs/shm_serving.md).
//
// Thread-safe: calls are serialized through one mutex (one request in flight
// per pool — the underlying sockets carry one frame at a time anyway).
#ifndef FOCUS_SRC_RUNTIME_SUPERVISED_WORKER_POOL_H_
#define FOCUS_SRC_RUNTIME_SUPERVISED_WORKER_POOL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/retry.h"
#include "src/runtime/worker_process_pool.h"

namespace focus::runtime {

class MetricsRegistry;

// Supervision state of one worker slot, mirroring ingest's StreamState.
enum class WorkerState {
  kHealthy,     // Serving clean (or not yet asked).
  kRestarting,  // Failed and was respawned; healthy again on its next success.
  kDown,        // Restart budget exhausted.
};

const char* WorkerStateName(WorkerState state);

struct WorkerHealth {
  WorkerState state = WorkerState::kHealthy;
  // Failures since the last successful call (reset on success).
  int consecutive_failures = 0;
  // Respawns consumed from this slot's restart budget.
  int restarts = 0;
  std::string last_error;  // Message of the most recent failure; empty if none.
  common::ErrorCode last_code = common::ErrorCode::kInternal;  // Valid when last_error set.
};

struct SupervisedPoolOptions {
  int num_workers = 2;
  // Per-call send+recv budget; < 0 disables the deadline (not recommended —
  // a hung worker then blocks its caller, which is the bug this layer fixes).
  int call_deadline_millis = 2000;
  // Respawns allowed per slot before it is marked Down.
  int max_worker_restarts = 3;
  // Virtual-time backoff accounted per respawn (max_attempts is ignored here;
  // the budget above bounds attempts).
  common::RetryPolicy restart_backoff;
};

struct SupervisedPoolStats {
  int64_t calls = 0;
  int64_t failed_calls = 0;      // Calls that surfaced an error to the caller.
  int64_t timeouts = 0;          // Worker-level deadline expiries.
  int64_t restarts = 0;          // Respawns attempted (budget consumed).
  int64_t respawn_failures = 0;  // Respawns that themselves failed.
  int64_t sibling_retries = 0;   // Re-dispatches to a sibling.
  double backoff_millis = 0.0;   // Virtual restart backoff accounted.
};

class SupervisedWorkerPool {
 public:
  using Handler = WorkerProcessPool::Handler;

  explicit SupervisedWorkerPool(SupervisedPoolOptions options,
                                MetricsRegistry* metrics = nullptr);
  ~SupervisedWorkerPool() = default;

  SupervisedWorkerPool(const SupervisedWorkerPool&) = delete;
  SupervisedWorkerPool& operator=(const SupervisedWorkerPool&) = delete;

  common::Result<std::monostate> Start(Handler handler);

  // Dispatches |request| to a live worker (round-robin over Healthy and
  // Restarting slots) under the configured deadline, supervising any failure: the worker
  // is killed and respawned within its budget, and the request retried once on
  // a sibling. Errors reaching the caller are typed; kUnavailable with every
  // slot Down is the signal to degrade (AllDown() confirms).
  common::Result<std::string> Call(const std::string& request);

  // SIGKILLs the worker in |slot| without telling supervision — the chaos
  // suite's crash injection. Supervision notices on the next call it serves.
  void KillWorker(int slot);

  // Out-of-range slots read a default (Healthy, untouched) record.
  WorkerHealth Health(int slot) const;
  std::vector<WorkerHealth> FleetHealth() const;

  // True when every slot has exhausted its restart budget.
  bool AllDown() const;
  // Slots currently not Down (Healthy or Restarting).
  int live_workers() const;
  int size() const;

  SupervisedPoolStats stats() const;

  void Shutdown();

 private:
  // Picks the next live slot to try round-robin (Restarting serves alongside
  // Healthy), skipping Down slots and |exclude|; -1 when none qualify.
  int PickWorkerLocked(int exclude);
  // One supervised call: pool call + failure bookkeeping + kill/respawn.
  common::Result<std::string> CallOnceLocked(int slot, const std::string& request);
  void NoteFailureLocked(int slot, const common::Error& error);

  const SupervisedPoolOptions options_;
  MetricsRegistry* const metrics_;

  mutable std::mutex mu_;
  WorkerProcessPool pool_;
  std::vector<WorkerHealth> health_;
  SupervisedPoolStats stats_;
  int cursor_ = 0;  // Round-robin position.
};

}  // namespace focus::runtime

#endif  // FOCUS_SRC_RUNTIME_SUPERVISED_WORKER_POOL_H_
