// Multi-stream ingest service: the §5 worker fleet around the core ingest pipeline.
//
// "Focus's ingest-time work is distributed across many machines, with each machine
// running one worker process for each video stream's ingestion." This service runs
// one ingest worker per registered stream on a thread pool, accounts each stream's
// inference workload on a shared virtual GPU cluster, and answers the provisioning
// question behind the paper's cost claims: how many GPUs does it take to ingest all
// streams in real time, and what does each stream cost per month.
//
// Determinism: the per-stream ingest itself is deterministic; GPU-cluster accounting
// is applied after the parallel phase in stream registration order, so the reported
// schedule does not depend on thread interleaving.
#ifndef FOCUS_SRC_RUNTIME_INGEST_SERVICE_H_
#define FOCUS_SRC_RUNTIME_INGEST_SERVICE_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/cnn/cnn.h"
#include "src/core/config.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/live_snapshot.h"
#include "src/runtime/gpu_device.h"
#include "src/runtime/metrics.h"
#include "src/video/stream_generator.h"

namespace focus::runtime {

// One registered stream with its tuned ingest configuration.
struct IngestJob {
  std::string name;
  const video::StreamRun* run = nullptr;  // Must outlive the service.
  core::IngestParams params;
  core::IngestOptions options;
};

// Supervision state of one stream's ingest worker.
enum class StreamState {
  kHealthy,   // Running (or finished) clean.
  kDegraded,  // Failed at least once; restarted and currently retrying.
  kDown,      // Restart budget exhausted, or the failure is not retryable.
};

const char* StreamStateName(StreamState state);

struct StreamHealth {
  StreamState state = StreamState::kHealthy;
  // Failures since the last successful completion (reset on success).
  int consecutive_failures = 0;
  // Worker restarts consumed by supervision.
  int restarts = 0;
  std::string last_error;  // Message of the most recent failure; empty if none.
  common::ErrorCode last_code = common::ErrorCode::kInternal;  // Valid when last_error set.
};

// Per-stream outcome.
struct IngestReport {
  std::string name;
  core::IngestResult result;
  // GPU-seconds of cheap-CNN work per second of video: < 1.0 / num_streams_per_gpu
  // means the stream ingests in real time on its share of a device.
  double gpu_occupancy = 0.0;
  // Virtual wall time to replay the whole recording's inference workload on the
  // shared cluster (includes queueing behind other streams).
  common::GpuMillis cluster_finish_millis = 0.0;
  // Final supervision state. kDown carries |error| and a default-constructed
  // (empty) result — the stream's last-good epoch snapshot, if any, remains
  // queryable through LatestSnapshot (degraded serving, docs/robustness.md).
  StreamHealth health;
  std::optional<common::Error> error;
};

// Query-side context of one live (still-ingesting) stream: the RCU slot its
// ingest worker publishes epoch snapshots through, plus everything a snapshot
// query needs — the ingest model (label-space mapping), the GT-CNN (centroid
// verdicts), and the recording fps (time-range planning). Stable from
// AddStream() on; the slot is safe to read concurrently with RunAll().
struct LiveStreamContext {
  core::SnapshotSlot slot;
  std::unique_ptr<cnn::Cnn> ingest_cnn;
  std::unique_ptr<cnn::Cnn> gt_cnn;
  double fps = 30.0;
};

struct IngestServiceOptions {
  // Streams ingested at once. Each running worker also spawns its stream's
  // detection-stage thread (core::RunIngestChecked), so a busy service runs
  // two threads per worker.
  int num_worker_threads = 4;
  int num_gpus = 1;
  // Intra-stream clustering shards (core::IngestOptions::num_shards): > 0
  // overrides every registered job so a hot deployment can be re-sharded in
  // one place; 0 leaves each job's own setting untouched.
  int num_shards = 0;
  // Root directory for durable per-stream clustering state (mmap'd centroid
  // arenas + checkpoints, docs/persistence.md). Non-empty gives every
  // registered stream the subdirectory <persist_dir>/<job name> and routes its
  // ingest through the resumable path: a crashed/restarted worker resumes the
  // stream from its recovered frame position instead of frame 0 (see
  // IngestResult::resumed_from_frame in each report). Empty (default) keeps
  // ingest volatile. Stream names must be unique and filesystem-safe.
  std::string persist_dir;
  // Dollars per GPU-month used by CostPerStreamMonthly (the paper quotes Azure
  // pricing where Ingest-all costs ~$250/month/stream).
  double dollars_per_gpu_month = 250.0;
  // Windowed streaming finalize cadence
  // (core::IngestOptions::finalize_every_frames): > 0 overrides every
  // registered job, gives each stream a LiveStreamContext, and publishes an
  // epoch-numbered canonical snapshot every N sampled frames so queries can
  // run against the stream while RunAll() is still ingesting it
  // (LatestSnapshot). 0 leaves each job's own setting untouched (jobs that
  // set their own cadence still get a context).
  int64_t finalize_every_frames = 0;
  // Worker supervision (docs/robustness.md): a worker that fails with a
  // retryable error (common::IsRetryable) is restarted up to this many times
  // per stream — resuming from its checkpoint on the persistent path, from
  // frame 0 otherwise — before the stream is marked Down.
  int max_worker_restarts = 3;
};

struct FleetIngestSummary {
  std::vector<IngestReport> reports;  // In registration order.
  GpuClusterStats cluster;
  // Sum of per-stream occupancies: total GPUs needed for real-time ingest.
  double total_gpu_occupancy = 0.0;
  int min_gpus_for_realtime = 0;

  common::GpuMillis total_gpu_millis() const {
    common::GpuMillis total = 0;
    for (const IngestReport& r : reports) {
      total += r.result.gpu_millis;
    }
    return total;
  }
};

class IngestService {
 public:
  explicit IngestService(IngestServiceOptions options, MetricsRegistry* metrics = nullptr);

  // Registers a stream; returns its job index. |job.run| must stay valid until
  // RunAll() returns.
  size_t AddStream(IngestJob job);

  // Ingests every registered stream (parallel across |num_worker_threads|), then
  // replays the combined inference workload on a fresh |num_gpus| cluster.
  FleetIngestSummary RunAll();

  // Monthly cost of one stream whose ingest occupies |gpu_occupancy| of a device.
  double CostPerStreamMonthly(double gpu_occupancy) const;

  // --- Live query-over-ingest (docs/live_query.md) ---
  //
  // The newest published canonical snapshot of |name|, or null before the
  // first epoch / for streams without a live context. Thread-safe and safe to
  // call concurrently with RunAll(): snapshots publish through an RCU pointer
  // swap, and the returned shared_ptr keeps the epoch alive for as long as the
  // caller's query runs.
  std::shared_ptr<const core::LiveSnapshot> LatestSnapshot(const std::string& name) const;

  // The live-query context of |name| (slot + models + fps), or null. Stable
  // once AddStream returned; the server's QUERY verb uses it to execute
  // snapshot queries.
  const LiveStreamContext* LiveContext(const std::string& name) const;

  // Current supervision state of |name|; a stream that never failed (or was
  // never registered) reads Healthy. Thread-safe and safe to call while
  // RunAll() is ingesting — the query side uses it to decide STALE framing.
  StreamHealth Health(const std::string& name) const;

  // Health of every stream that has registered at least one failure or
  // restart. Streams running clean are omitted (they read Healthy).
  std::map<std::string, StreamHealth> FleetHealth() const;

  const IngestServiceOptions& options() const { return options_; }

 private:
  // Cadence for |job| under the service-wide override.
  int64_t FinalizeCadenceFor(const IngestJob& job) const;

  void RecordFailure(const std::string& name, const common::Error& error, bool down);
  void RecordRestart(const std::string& name);
  void RecordSuccess(const std::string& name);

  IngestServiceOptions options_;
  MetricsRegistry* metrics_;
  std::vector<IngestJob> jobs_;
  // One context per live stream (jobs whose effective finalize cadence > 0),
  // keyed by stream name. Built in AddStream — before RunAll's workers start —
  // and never mutated afterwards, so concurrent lookups need no locking.
  std::map<std::string, std::unique_ptr<LiveStreamContext>> live_;
  // Supervision registry: mutated by worker threads, readable concurrently by
  // the query side.
  mutable std::mutex health_mu_;
  std::map<std::string, StreamHealth> health_;
};

}  // namespace focus::runtime

#endif  // FOCUS_SRC_RUNTIME_INGEST_SERVICE_H_
