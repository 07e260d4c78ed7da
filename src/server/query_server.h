// The Focus query frontend: serves protocol requests against a camera fleet.
//
// Transport-agnostic by design — HandleLine(request) -> response string — so the
// same server backs a REPL, a pipe, or a socket loop. The fleet's indexes and
// models are read-only at query time; the one mutable piece is the process-wide
// runtime::FleetQueryService every QUERY executes through (internally locked),
// so concurrent HandleLine calls are safe — and share its global verdict cache:
// a centroid any request classified is never re-paid by a later request
// against the same camera, at any Kx or live epoch (docs/fleet_serving.md).
// §5's dynamic Kx is therefore a repeat of QUERY with a larger KX: it pays
// only for the centroids the larger Kx newly admits.
//
// QUERY requests execute through the batched plan/execute path (§5,
// query_engine.h / fleet_query_service.h): the plan's centroid classifications
// are packed into GT-CNN launches on the shared virtual GPU cluster. The
// result payload (FRAMES/RUNS/CENTROIDS/GPU_MS) is byte-identical to
// per-camera sequential execution regardless of packing, caching, or who
// queried before; LATENCY_MS is the request's wall-clock on the shared
// cluster — a warm-cache repeat reports 0 (nothing left to launch).
//
// Federated QUERY (comma-separated cameras, or REGION <r>): fans out through
// core::FocusFleet::PlanFederated and executes all cameras as one pooled
// admission — cross-camera work shares launches and the cache — answering
// with per-camera provenance lines.
//
// Live query-over-ingest: with a |live| runtime::IngestService attached, a
// QUERY for a camera not (yet) in the fleet is answered from the stream's
// newest published canonical snapshot while its ingest is still running — the
// response carries EPOCH and WATERMARK, and the frame runs are byte-identical
// to what halting ingest at that watermark and finalizing would return
// (docs/live_query.md). A centroid an earlier epoch already classified keeps
// its cached verdict in every later epoch.
//
// Degraded serving (docs/robustness.md): a live stream whose ingest worker is
// Degraded or Down still answers from its last-good epoch snapshot, framed
// "STALE EPOCH <e> WATERMARK <w>" instead of "LIVE ..." so the client knows
// the answer lags the recording. A Down stream with no published snapshot
// errs Unavailable. The HEALTH verb reports per-stream supervision state;
// bare STATS reports the shared service (requests, hit rate, dedup, launches).
// A QUERY's TENANT only attributes it (fleet.tenant.<t>.requests); every
// tenant's requests run on the one admission path.
//
// Supervised shm serving (docs/shm_serving.md): SHM SERVE starts a
// runtime::SupervisedWorkerPool of crash-isolated worker processes over an
// attached plane; SHM QUERY then answers from a worker under a call deadline,
// with hung/dead workers killed and respawned within a restart budget and the
// request retried once on a sibling. When the whole pool is Down the server
// falls back to its own in-process reader and frames the answer
// "DEGRADED INPROC" (counted in server.degraded_queries) — the process-pool
// twin of the STALE discipline above. Worker health joins HEALTH and
// SHM STATUS.
#ifndef FOCUS_SRC_SERVER_QUERY_SERVER_H_
#define FOCUS_SRC_SERVER_QUERY_SERVER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/core/fleet.h"
#include "src/runtime/fleet_query_service.h"
#include "src/runtime/ingest_service.h"
#include "src/runtime/metrics.h"
#include "src/runtime/supervised_worker_pool.h"
#include "src/server/protocol.h"
#include "src/shm/epoch_plane.h"
#include "src/video/class_catalog.h"

namespace focus::server {

class QueryServer {
 public:
  // |fleet| and |catalog| must outlive the server; |metrics| may be null
  // (global). |service_options| configures the shared service (defaults: 10
  // GPUs, batch_size 32); the server hands it to the ONE FleetQueryService it
  // runs for its whole lifetime. |live| (optional,
  // must outlive the server) serves QUERYs on cameras whose ingest is still
  // running, from their published live snapshots; fleet cameras win on a name
  // collision (a finalized index covers the whole recording).
  QueryServer(const core::FocusFleet* fleet, const video::ClassCatalog* catalog,
              runtime::MetricsRegistry* metrics = nullptr,
              runtime::QueryServiceOptions service_options = {},
              const runtime::IngestService* live = nullptr);

  // Parses and executes one request line; always returns a framed response
  // ("OK ..." or "ERR <code> ...") and never throws. Thread-safe.
  std::string HandleLine(const std::string& line);

  // Structured entry point (for callers that already hold a Request).
  std::string Handle(const Request& request);

  // The shared query service (e.g., to read its stats).
  runtime::FleetQueryService& service() { return service_; }

  // Supervision knobs for pools started by SHM SERVE (deadline, restart
  // budget, restart backoff). Takes effect for pools started after the call;
  // a SERVE's WORKERS argument overrides num_workers per pool, and SERVE
  // refuses (InvalidArgument, nothing forked) a count above
  // shm::kShmMaxReaders - 1, the slots left beside the server's own reader.
  void set_shm_serve_options(runtime::SupervisedPoolOptions options) {
    std::lock_guard<std::mutex> lock(shm_mu_);
    shm_serve_options_ = options;
  }

 private:
  // One attached shared-memory epoch plane: the server's own reader (degraded
  // / unserved fallback path), models rebuilt lazily from the plane's
  // provenance, and — after SHM SERVE — the supervised worker pool.
  struct ShmPlane {
    std::unique_ptr<shm::ShmSnapshotReader> reader;
    std::unique_ptr<video::ClassCatalog> catalog;
    std::unique_ptr<cnn::Cnn> cheap;
    std::unique_ptr<cnn::Cnn> gt;
    std::unique_ptr<runtime::SupervisedWorkerPool> pool;
  };

  std::string HandleQuery(const Request& request);
  // QUERY against a camera whose ingest is still running: plans over the
  // newest published epoch snapshot.
  std::string HandleLiveQuery(const Request& request, common::ClassId cls);
  // Federated QUERY (camera list or REGION): one pooled admission.
  std::string HandleFederatedQuery(const Request& request, common::ClassId cls);
  std::string HandleCameras();
  std::string HandleClasses(const std::string& filter);
  // STATS <camera>: the stream's ingest figures. Bare STATS: the shared
  // service's request/cache/dedup/launch counters.
  std::string HandleStats(const std::string& camera);
  // HEALTH [camera]: supervision state of one stream, or of every stream that
  // has registered a failure or restart (clean streams read Healthy and are
  // omitted from the fleet listing).
  std::string HandleHealth(const std::string& camera);
  // SHM ATTACH <segment>: attaches a ShmSnapshotReader to a shared-memory
  // epoch plane (docs/shm_serving.md) and reports its newest epoch. SHM
  // STATUS [segment]: plane stats of one (or every) attached segment, plus
  // worker-pool health when serving. SHM SERVE: starts the supervised pool.
  // SHM QUERY: answers from a worker (or degrades to in-process).
  std::string HandleShm(const Request& request);
  std::string HandleShmServe(const Request& request, ShmPlane& plane);
  std::string HandleShmQuery(const Request& request, ShmPlane& plane);
  // Rebuilds the plane's catalog/CNNs from its mapped provenance (lazy; needs
  // at least one published epoch).
  common::Result<std::monostate> EnsurePlaneModels(ShmPlane& plane);

  const core::FocusFleet* fleet_;
  const video::ClassCatalog* catalog_;
  runtime::MetricsRegistry* metrics_;
  const runtime::IngestService* live_;
  runtime::FleetQueryService service_;  // One per server; internally locked.

  // Attached shm planes, by segment name (SHM verb). The reader objects hold
  // one reader slot each in their plane for the server's lifetime.
  std::mutex shm_mu_;
  std::map<std::string, ShmPlane> shm_planes_;
  runtime::SupervisedPoolOptions shm_serve_options_;
};

}  // namespace focus::server

#endif  // FOCUS_SRC_SERVER_QUERY_SERVER_H_
