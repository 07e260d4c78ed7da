#include "src/server/query_server.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <utility>

#include "src/cnn/ground_truth.h"
#include "src/cnn/model_zoo.h"

namespace focus::server {

namespace {

// --- Supervised shm serving: the server <-> worker wire -----------------
//
//   request:   Q <cls> <kx> <begin> <end>          (range bounds in hexfloat)
//   reply ok:  R <epoch> <watermark> <centroids> <matched> <frames> <gpu>
//              [<first>:<last> ...]                (gpu in hexfloat)
//   reply err: E <CodeName> <message...>
//
// Floating fields cross as hexfloat so the answer the parent frames is
// bit-exact against an in-process query of the same epoch. Decoding
// tokenizes and converts with strtod — istream extraction does not accept
// hexfloat, so a stream-based parse would silently read 0.

// Reverse of common::ErrorCodeName, so a worker-side typed error survives
// the trip as the same code instead of collapsing to a generic failure.
common::ErrorCode ErrorCodeFromName(const std::string& name) {
  static constexpr common::ErrorCode kCodes[] = {
      common::ErrorCode::kInvalidArgument, common::ErrorCode::kNotFound,
      common::ErrorCode::kFailedPrecondition, common::ErrorCode::kOutOfRange,
      common::ErrorCode::kInternal,        common::ErrorCode::kIo,
      common::ErrorCode::kUnavailable,     common::ErrorCode::kTimeout,
      common::ErrorCode::kDataLoss,
  };
  for (common::ErrorCode code : kCodes) {
    if (name == common::ErrorCodeName(code)) {
      return code;
    }
  }
  return common::ErrorCode::kInternal;
}

bool ParseI64(const std::string& token, int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(token.c_str(), &end, 10);
  return end != token.c_str() && *end == '\0';
}

// strtod accepts hexfloat ("0x1.8p+3"), which the wire relies on.
bool ParseF64(const std::string& token, double* out) {
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end != token.c_str() && *end == '\0';
}

// A shm query answer plus the epoch provenance the response frames.
struct ShmAnswer {
  uint64_t epoch = 0;
  int64_t watermark = 0;
  core::QueryResult result;
};

std::string EncodeWorkerRequest(common::ClassId cls, int kx, common::TimeRange range) {
  std::ostringstream out;
  out << "Q " << cls << ' ' << kx << ' ' << std::hexfloat << range.begin_sec << ' '
      << range.end_sec;
  return out.str();
}

std::string EncodeWorkerError(const common::Error& error) {
  return std::string("E ") + common::ErrorCodeName(error.code) + " " + error.message;
}

std::string EncodeWorkerReply(const ShmAnswer& answer) {
  std::ostringstream out;
  out << "R " << answer.epoch << ' ' << answer.watermark << ' '
      << answer.result.centroids_classified << ' ' << answer.result.clusters_matched << ' '
      << answer.result.frames_returned << ' ' << std::hexfloat << answer.result.gpu_millis;
  for (const auto& [first, last] : answer.result.frame_runs) {
    out << ' ' << first << ':' << last;
  }
  return out.str();
}

common::Result<ShmAnswer> DecodeWorkerReply(const std::string& reply,
                                            common::ClassId queried) {
  const std::vector<std::string> tokens = Tokenize(reply);
  if (tokens.empty()) {
    return common::IoError("empty worker reply");
  }
  if (tokens[0] == "E") {
    if (tokens.size() < 2) {
      return common::IoError("malformed worker error frame: " + reply);
    }
    std::string message;
    for (size_t i = 2; i < tokens.size(); ++i) {
      if (i > 2) {
        message += ' ';
      }
      message += tokens[i];
    }
    return common::Error{ErrorCodeFromName(tokens[1]), std::move(message)};
  }
  if (tokens[0] != "R" || tokens.size() < 7) {
    return common::IoError("malformed worker reply frame: " + reply);
  }
  ShmAnswer answer;
  answer.result.queried = queried;
  int64_t epoch = 0;
  int64_t centroids = 0;
  int64_t matched = 0;
  int64_t frames = 0;
  if (!ParseI64(tokens[1], &epoch) || !ParseI64(tokens[2], &answer.watermark) ||
      !ParseI64(tokens[3], &centroids) || !ParseI64(tokens[4], &matched) ||
      !ParseI64(tokens[5], &frames) || !ParseF64(tokens[6], &answer.result.gpu_millis)) {
    return common::IoError("bad number in worker reply frame: " + reply);
  }
  answer.epoch = static_cast<uint64_t>(epoch);
  answer.result.centroids_classified = centroids;
  answer.result.clusters_matched = matched;
  answer.result.frames_returned = frames;
  for (size_t i = 7; i < tokens.size(); ++i) {
    const size_t colon = tokens[i].find(':');
    int64_t first = 0;
    int64_t last = 0;
    if (colon == std::string::npos || !ParseI64(tokens[i].substr(0, colon), &first) ||
        !ParseI64(tokens[i].substr(colon + 1), &last)) {
      return common::IoError("bad frame run in worker reply: " + tokens[i]);
    }
    answer.result.frame_runs.emplace_back(first, last);
  }
  return answer;
}

// Acquire + QueryChecked under a short in-place retry budget: a pin evicted
// mid-scan, or a plane outpacing the reader, is retryable right here — the
// next Acquire pins the newer epoch.
common::Result<ShmAnswer> QueryPinned(shm::ShmSnapshotReader& reader, common::ClassId cls,
                                      int kx, common::TimeRange range, const cnn::Cnn& cheap,
                                      const cnn::Cnn& gt) {
  constexpr int kAttempts = 3;
  common::Error last = common::Unavailable("no epoch acquired");
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    auto view = reader.Acquire();
    if (!view.ok()) {
      last = view.error();
      if (!common::IsRetryable(last.code)) {
        break;
      }
      continue;
    }
    auto result = view->QueryChecked(cls, kx, range, cheap, gt);
    if (!result.ok()) {
      last = result.error();
      if (!common::IsRetryable(last.code)) {
        break;
      }
      continue;
    }
    ShmAnswer answer;
    answer.epoch = view->epoch();
    answer.watermark = view->watermark();
    answer.result = std::move(*result);
    return answer;
  }
  return last;
}

// Everything a forked query worker owns, built lazily on its first request:
// its own reader slot and the models rebuilt from the plane's seed provenance.
// Nothing crosses the fork but the segment name — the same cold-process
// discipline the focus_shm_query CLI follows.
struct ShmWorkerState {
  explicit ShmWorkerState(std::string name) : segment(std::move(name)) {}

  std::string segment;
  runtime::MetricsRegistry metrics;
  std::unique_ptr<shm::ShmSnapshotReader> reader;
  std::unique_ptr<video::ClassCatalog> catalog;
  std::unique_ptr<cnn::Cnn> cheap;
  std::unique_ptr<cnn::Cnn> gt;

  common::Result<std::monostate> EnsureAttached() {
    if (reader != nullptr) {
      return std::monostate{};
    }
    auto attached = shm::ShmSnapshotReader::Attach(segment, &metrics);
    if (!attached.ok()) {
      return attached.error();
    }
    auto provenance = (*attached)->Provenance();
    if (!provenance.ok()) {
      return provenance.error();
    }
    auto candidates = cnn::GenericCheapCandidates(provenance->cheap_weights_seed);
    if (provenance->cheap_candidate_index >= candidates.size()) {
      return common::FailedPrecondition("provenance cheap candidate index out of range");
    }
    reader = std::move(*attached);
    catalog = std::make_unique<video::ClassCatalog>(provenance->world_seed);
    cheap = std::make_unique<cnn::Cnn>(candidates[provenance->cheap_candidate_index],
                                       catalog.get());
    gt = std::make_unique<cnn::Cnn>(cnn::GtCnnDesc(provenance->gt_weights_seed),
                                    catalog.get());
    return std::monostate{};
  }

  std::string Handle(const std::string& request) {
    const std::vector<std::string> tokens = Tokenize(request);
    int64_t cls = 0;
    int64_t kx = 0;
    common::TimeRange range;
    if (tokens.size() != 5 || tokens[0] != "Q" || !ParseI64(tokens[1], &cls) ||
        !ParseI64(tokens[2], &kx) || !ParseF64(tokens[3], &range.begin_sec) ||
        !ParseF64(tokens[4], &range.end_sec)) {
      return EncodeWorkerError(common::InvalidArgument("malformed worker request: " + request));
    }
    if (auto attached = EnsureAttached(); !attached.ok()) {
      return EncodeWorkerError(attached.error());
    }
    auto answer = QueryPinned(*reader, static_cast<common::ClassId>(cls),
                              static_cast<int>(kx), range, *cheap, *gt);
    if (!answer.ok()) {
      return EncodeWorkerError(answer.error());
    }
    return EncodeWorkerReply(*answer);
  }
};

// The response payload every shm query path shares: same formatter, so a
// worker answer, an unserved in-process answer, and a degraded fallback
// differ only in their head tag — byte-identical from EPOCH on.
std::string ShmAnswerPayload(const std::string& head, const ShmAnswer& answer) {
  std::ostringstream out;
  out << head << " EPOCH " << answer.epoch << " WATERMARK " << answer.watermark
      << " FRAMES " << answer.result.frames_returned << " RUNS "
      << answer.result.frame_runs.size() << " CENTROIDS "
      << answer.result.centroids_classified << " GPU_MS " << answer.result.gpu_millis;
  for (const auto& [first, last] : answer.result.frame_runs) {
    out << "\nRUN " << first << " " << last;
  }
  return out.str();
}

}  // namespace

QueryServer::QueryServer(const core::FocusFleet* fleet, const video::ClassCatalog* catalog,
                         runtime::MetricsRegistry* metrics,
                         runtime::QueryServiceOptions service_options,
                         const runtime::IngestService* live)
    : fleet_(fleet),
      catalog_(catalog),
      metrics_(metrics != nullptr ? metrics : &runtime::GlobalMetrics()),
      live_(live),
      service_(service_options, metrics) {}

std::string QueryServer::HandleLine(const std::string& line) {
  metrics_->IncrementCounter("server.requests");
  auto request = ParseRequest(line);
  if (!request.ok()) {
    metrics_->IncrementCounter("server.parse_errors");
    return ErrResponse(request.error().code, request.error().message);
  }
  return Handle(*request);
}

std::string QueryServer::Handle(const Request& request) {
  switch (request.verb) {
    case Verb::kPing:
      return OkResponse("PONG");
    case Verb::kCameras:
      return HandleCameras();
    case Verb::kClasses:
      return HandleClasses(request.class_filter);
    case Verb::kStats:
      return HandleStats(request.camera);
    case Verb::kHealth:
      return HandleHealth(request.camera);
    case Verb::kQuery:
      return HandleQuery(request);
    case Verb::kShm:
      return HandleShm(request);
  }
  return ErrResponse(common::ErrorCode::kInternal, "unhandled verb");
}

std::string QueryServer::HandleShm(const Request& request) {
  // One line per plane: segment name, published generation/epoch progress,
  // and the pin-protocol accounting (docs/shm_serving.md).
  const auto plane_line = [](const std::string& name, const shm::ShmPlaneStats& stats) {
    std::ostringstream line;
    line << name << " GEN " << stats.published_generation << " EPOCHS "
         << stats.epochs_published << " READERS " << stats.live_readers << " ATTACHES "
         << stats.reader_attaches << " RECLAIMED " << stats.stale_pins_reclaimed
         << " VIOLATIONS " << stats.pin_violations << " ARENA " << stats.arena_used_bytes
         << "/" << stats.segment_bytes;
    return line.str();
  };

  // STATUS of a serving plane appends the pool's health after the plane
  // stats, so one line answers both "is the plane alive" and "who serves it".
  const auto pool_suffix = [](const ShmPlane& plane) {
    if (plane.pool == nullptr) {
      return std::string();
    }
    const runtime::SupervisedPoolStats stats = plane.pool->stats();
    std::ostringstream out;
    out << " WORKERS " << plane.pool->live_workers() << "/" << plane.pool->size()
        << " RESTARTS " << stats.restarts << " DOWN "
        << plane.pool->size() - plane.pool->live_workers();
    return out.str();
  };

  std::lock_guard<std::mutex> lock(shm_mu_);
  if (request.shm_op == "ATTACH") {
    if (shm_planes_.contains(request.shm_name)) {
      return ErrResponse(common::ErrorCode::kFailedPrecondition,
                         "already attached to " + request.shm_name);
    }
    auto reader = shm::ShmSnapshotReader::Attach(request.shm_name, metrics_);
    if (!reader.ok()) {
      metrics_->IncrementCounter("server.shm_attach_errors");
      return ErrResponse(reader.error().code, reader.error().message);
    }
    ShmPlane plane;
    plane.reader = std::move(*reader);
    const shm::ShmPlaneStats stats = plane.reader->stats();
    shm_planes_.emplace(request.shm_name, std::move(plane));
    metrics_->IncrementCounter("server.shm_attaches");
    return OkResponse("ATTACHED " + plane_line(request.shm_name, stats));
  }
  if (request.shm_op == "SERVE" || request.shm_op == "QUERY") {
    const auto it = shm_planes_.find(request.shm_name);
    if (it == shm_planes_.end()) {
      return ErrResponse(common::ErrorCode::kNotFound,
                         "not attached to " + request.shm_name);
    }
    return request.shm_op == "SERVE" ? HandleShmServe(request, it->second)
                                     : HandleShmQuery(request, it->second);
  }
  if (!request.shm_name.empty()) {
    const auto it = shm_planes_.find(request.shm_name);
    if (it == shm_planes_.end()) {
      return ErrResponse(common::ErrorCode::kNotFound,
                         "not attached to " + request.shm_name);
    }
    return OkResponse(plane_line(it->first, it->second.reader->stats()) +
                      pool_suffix(it->second));
  }
  std::ostringstream out;
  out << shm_planes_.size();
  for (const auto& [name, plane] : shm_planes_) {
    out << "\n" << plane_line(name, plane.reader->stats()) << pool_suffix(plane);
  }
  return OkResponse(out.str());
}

std::string QueryServer::HandleShmServe(const Request& request, ShmPlane& plane) {
  runtime::SupervisedPoolOptions options = shm_serve_options_;
  if (request.shm_workers > 0) {
    options.num_workers = request.shm_workers;
  }
  // Each worker attaches its own reader slot, and the server's own reader
  // holds one more: a pool larger than the plane can seat is refused before
  // anything forks or is torn down, whether the count came from WORKERS or
  // from set_shm_serve_options.
  constexpr int kMaxWorkers = shm::kShmMaxReaders - 1;
  if (options.num_workers > kMaxWorkers) {
    return ErrResponse(common::ErrorCode::kInvalidArgument,
                       "WORKERS " + std::to_string(options.num_workers) + " exceeds the " +
                           std::to_string(kMaxWorkers) + " reader slots a plane can seat");
  }
  // A live pool is not silently replaced — but a pool whose every slot has
  // exhausted its restart budget is only good for routing around, so SERVE
  // over it is the operator's recovery verb: tear it down and start fresh.
  if (plane.pool != nullptr) {
    if (!plane.pool->AllDown()) {
      return ErrResponse(common::ErrorCode::kFailedPrecondition,
                         "already serving " + request.shm_name);
    }
    plane.pool->Shutdown();
    plane.pool.reset();
  }
  auto pool = std::make_unique<runtime::SupervisedWorkerPool>(options, metrics_);
  // Each forked worker attaches its own reader slot and rebuilds its models
  // lazily inside the child; the handler closure carries only the name.
  auto state = std::make_shared<ShmWorkerState>(request.shm_name);
  auto started =
      pool->Start([state](const std::string& line) { return state->Handle(line); });
  if (!started.ok()) {
    return ErrResponse(started.error().code, started.error().message);
  }
  plane.pool = std::move(pool);
  metrics_->IncrementCounter("server.shm_serves");
  std::ostringstream out;
  out << "SERVING " << request.shm_name << " WORKERS " << options.num_workers
      << " DEADLINE_MS " << options.call_deadline_millis;
  return OkResponse(out.str());
}

std::string QueryServer::HandleShmQuery(const Request& request, ShmPlane& plane) {
  if (auto models = EnsurePlaneModels(plane); !models.ok()) {
    return ErrResponse(models.error().code, models.error().message);
  }
  const common::ClassId cls = plane.catalog->IdForName(request.class_name);
  if (cls == common::kInvalidClass) {
    return ErrResponse(common::ErrorCode::kNotFound,
                       "unknown class " + request.class_name);
  }

  // The server's own reader answers when nothing is serving and when the
  // whole pool is Down; only the head tag differs (docs/shm_serving.md).
  const auto answer_inproc = [&](const std::string& head,
                                 bool degraded) -> std::string {
    auto answer =
        QueryPinned(*plane.reader, cls, request.kx, request.range, *plane.cheap, *plane.gt);
    if (!answer.ok()) {
      metrics_->IncrementCounter("server.query_errors");
      return ErrResponse(answer.error().code, answer.error().message);
    }
    metrics_->IncrementCounter("server.shm_queries");
    if (degraded) {
      metrics_->IncrementCounter("server.degraded_queries");
    }
    return OkResponse(ShmAnswerPayload(head, *answer));
  };

  if (plane.pool == nullptr) {
    return answer_inproc("SHM " + request.shm_name + " INPROC", /*degraded=*/false);
  }

  // Degrade only when every worker slot has exhausted its restart budget —
  // noticed up front, or by the call that burned the last budget. Any other
  // failure surfaces typed: supervision already killed, respawned, and
  // retried on a sibling before giving up.
  if (!plane.pool->AllDown()) {
    auto reply = plane.pool->Call(EncodeWorkerRequest(cls, request.kx, request.range));
    if (reply.ok()) {
      auto answer = DecodeWorkerReply(*reply, cls);
      if (!answer.ok()) {
        // The worker answered with a typed error it computed (attach or
        // acquire failure) — not a transport fault; pass it through.
        metrics_->IncrementCounter("server.query_errors");
        return ErrResponse(answer.error().code, answer.error().message);
      }
      metrics_->IncrementCounter("server.shm_queries");
      return OkResponse(ShmAnswerPayload("SHM " + request.shm_name, *answer));
    }
    if (!plane.pool->AllDown()) {
      metrics_->IncrementCounter("server.query_errors");
      return ErrResponse(reply.error().code, reply.error().message);
    }
  }
  return answer_inproc("DEGRADED INPROC " + request.shm_name, /*degraded=*/true);
}

common::Result<std::monostate> QueryServer::EnsurePlaneModels(ShmPlane& plane) {
  if (plane.catalog != nullptr) {
    return std::monostate{};
  }
  auto provenance = plane.reader->Provenance();
  if (!provenance.ok()) {
    return provenance.error();
  }
  auto candidates = cnn::GenericCheapCandidates(provenance->cheap_weights_seed);
  if (provenance->cheap_candidate_index >= candidates.size()) {
    return common::FailedPrecondition("provenance cheap candidate index out of range");
  }
  plane.catalog = std::make_unique<video::ClassCatalog>(provenance->world_seed);
  plane.cheap = std::make_unique<cnn::Cnn>(candidates[provenance->cheap_candidate_index],
                                           plane.catalog.get());
  plane.gt = std::make_unique<cnn::Cnn>(cnn::GtCnnDesc(provenance->gt_weights_seed),
                                        plane.catalog.get());
  return std::monostate{};
}

std::string QueryServer::HandleQuery(const Request& request) {
  const common::ClassId cls = catalog_->IdForName(request.class_name);
  if (cls == common::kInvalidClass) {
    return ErrResponse(common::ErrorCode::kNotFound,
                       "unknown class " + request.class_name);
  }
  if (!request.region.empty() || !request.cameras.empty()) {
    return HandleFederatedQuery(request, cls);
  }
  const core::FocusStream* stream = fleet_->Find(request.camera);
  if (stream == nullptr) {
    if (live_ != nullptr && live_->LiveContext(request.camera) != nullptr) {
      return HandleLiveQuery(request, cls);
    }
    return ErrResponse(common::ErrorCode::kNotFound, "unknown camera " + request.camera);
  }

  // Execute through the shared fleet service (§5, docs/fleet_serving.md): the
  // plan's centroid classifications run launch-packed on the process-wide
  // virtual cluster, and their verdicts land in the global cache keyed on
  // (camera, epoch, centroid) — a repeat of this query, by anyone, pays
  // nothing. The result payload is identical either way; only LATENCY_MS
  // reflects the cache (0 on a fully warm repeat).
  runtime::FleetQueryRequest fleet_request;
  fleet_request.camera = request.camera;
  fleet_request.tenant = request.tenant;
  fleet_request.query = runtime::QueryRequest{stream, cls, request.kx, request.range};
  const runtime::QueryExecution execution = service_.Execute(fleet_request);
  if (execution.error.has_value()) {
    metrics_->IncrementCounter("server.query_errors");
    return ErrResponse(execution.error->code, execution.error->message);
  }
  metrics_->IncrementCounter("server.queries");
  metrics_->Observe("server.query_gpu_millis", execution.result.gpu_millis);
  metrics_->Observe("server.query_latency_millis", execution.latency_millis());

  // Payload: summary line, then one "RUN first last" per frame run.
  const core::QueryResult& qr = execution.result;
  std::ostringstream out;
  out << "FRAMES " << qr.frames_returned << " RUNS " << qr.frame_runs.size() << " CENTROIDS "
      << qr.centroids_classified << " GPU_MS " << qr.gpu_millis << " LATENCY_MS "
      << execution.latency_millis();
  for (const auto& [first, last] : qr.frame_runs) {
    out << "\nRUN " << first << " " << last;
  }
  return OkResponse(out.str());
}

std::string QueryServer::HandleLiveQuery(const Request& request, common::ClassId cls) {
  const runtime::LiveStreamContext* context = live_->LiveContext(request.camera);
  // Pin the newest epoch for the whole request: the shared_ptr keeps the
  // snapshot's index entries alive even if ingest publishes a newer epoch
  // mid-query, and the response is byte-identical to halting ingest at the
  // snapshot's watermark and finalizing (docs/live_query.md).
  std::shared_ptr<const core::LiveSnapshot> snapshot = context->slot.Latest();
  // Degraded serving (docs/robustness.md): a stream whose ingest worker has
  // failed still answers from its last-good epoch — framed STALE, never
  // silently passed off as live — because an index that lags the recording is
  // still a correct index over the frames it covers.
  const runtime::StreamHealth health = live_->Health(request.camera);
  if (snapshot == nullptr) {
    if (health.state == runtime::StreamState::kDown) {
      return ErrResponse(common::ErrorCode::kUnavailable,
                         "stream " + request.camera + " is down with no published snapshot: " +
                             health.last_error);
    }
    return ErrResponse(common::ErrorCode::kFailedPrecondition,
                       "no snapshot published yet for " + request.camera);
  }
  runtime::FleetQueryRequest fleet_request;
  fleet_request.camera = request.camera;
  fleet_request.tenant = request.tenant;
  fleet_request.query.cls = cls;
  fleet_request.query.kx = request.kx;
  fleet_request.query.range = request.range;
  fleet_request.query.snapshot = snapshot;
  fleet_request.query.ingest_cnn = context->ingest_cnn.get();
  fleet_request.query.gt_cnn = context->gt_cnn.get();
  fleet_request.query.fps = context->fps;
  const runtime::QueryExecution execution = service_.Execute(fleet_request);
  if (execution.error.has_value()) {
    metrics_->IncrementCounter("server.query_errors");
    return ErrResponse(execution.error->code, execution.error->message);
  }
  metrics_->IncrementCounter("server.live_queries");
  metrics_->Observe("server.query_gpu_millis", execution.result.gpu_millis);
  metrics_->Observe("server.query_latency_millis", execution.latency_millis());

  const bool stale = health.state != runtime::StreamState::kHealthy;
  if (stale) {
    metrics_->IncrementCounter("server.stale_queries");
  }
  const core::QueryResult& qr = execution.result;
  std::ostringstream out;
  out << (stale ? "STALE" : "LIVE") << " EPOCH " << snapshot->epoch << " WATERMARK "
      << snapshot->watermark << " FRAMES " << qr.frames_returned << " RUNS "
      << qr.frame_runs.size() << " CENTROIDS " << qr.centroids_classified << " GPU_MS "
      << qr.gpu_millis << " LATENCY_MS " << execution.latency_millis();
  for (const auto& [first, last] : qr.frame_runs) {
    out << "\nRUN " << first << " " << last;
  }
  return OkResponse(out.str());
}

std::string QueryServer::HandleFederatedQuery(const Request& request, common::ClassId cls) {
  core::FederatedSelector selector;
  selector.cameras = request.cameras;
  selector.region = request.region;
  auto plan = fleet_->PlanFederated(cls, selector, request.range, request.kx);
  if (!plan.ok()) {
    metrics_->IncrementCounter("server.query_errors");
    return ErrResponse(plan.error().code, plan.error().message);
  }
  const runtime::FederatedExecution execution =
      service_.ExecuteFederated(*plan, request.tenant);
  if (execution.error.has_value()) {
    metrics_->IncrementCounter("server.query_errors");
    return ErrResponse(execution.error->code, execution.error->message);
  }
  metrics_->IncrementCounter("server.federated_queries");
  metrics_->Observe("server.query_gpu_millis", execution.result.total_gpu_millis);
  metrics_->Observe("server.query_latency_millis", execution.latency_millis());

  // Payload: fleet summary, then per camera one "CAM ..." provenance line
  // (EPOCH/WATERMARK for live members) followed by its "RUN first last" lines.
  const core::FleetQueryResult& fr = execution.result;
  std::ostringstream out;
  out << "FEDERATED " << fr.hits.size() << " FRAMES " << fr.total_frames << " CENTROIDS "
      << fr.total_centroids_classified << " GPU_MS " << fr.total_gpu_millis << " LATENCY_MS "
      << execution.latency_millis();
  for (const core::CameraHits& hits : fr.hits) {
    out << "\nCAM " << hits.camera << " FRAMES " << hits.result.frames_returned << " RUNS "
        << hits.result.frame_runs.size();
    if (hits.live) {
      out << " EPOCH " << hits.epoch << " WATERMARK " << hits.watermark;
    }
    for (const auto& [first, last] : hits.result.frame_runs) {
      out << "\nRUN " << first << " " << last;
    }
  }
  return OkResponse(out.str());
}

std::string QueryServer::HandleHealth(const std::string& camera) {
  // One line per stream: name, supervision state, restart/failure counters,
  // and — for live streams with a published epoch — how far the queryable
  // snapshot reaches. The last failure's code and message close the line.
  const auto stream_line = [this](const std::string& name,
                                  const runtime::StreamHealth& health) {
    std::ostringstream line;
    line << name << " STATE " << runtime::StreamStateName(health.state) << " RESTARTS "
         << health.restarts << " FAILURES " << health.consecutive_failures;
    if (live_ != nullptr) {
      if (auto snapshot = live_->LatestSnapshot(name); snapshot != nullptr) {
        line << " EPOCH " << snapshot->epoch << " WATERMARK " << snapshot->watermark;
      }
    }
    if (!health.last_error.empty()) {
      line << " LAST " << common::ErrorCodeName(health.last_code) << " "
           << health.last_error;
    }
    return line.str();
  };

  if (!camera.empty()) {
    const bool known =
        fleet_->Find(camera) != nullptr ||
        (live_ != nullptr && live_->LiveContext(camera) != nullptr);
    if (!known) {
      return ErrResponse(common::ErrorCode::kNotFound, "unknown camera " + camera);
    }
    // A fleet camera (or a live stream that never failed) reads Healthy.
    const runtime::StreamHealth health =
        live_ != nullptr ? live_->Health(camera) : runtime::StreamHealth{};
    return OkResponse(stream_line(camera, health));
  }

  // Fleet listing: every stream with a registered failure or restart. Streams
  // running clean are implicitly Healthy and omitted — an empty listing means
  // the whole fleet is healthy.
  const std::map<std::string, runtime::StreamHealth> fleet =
      live_ != nullptr ? live_->FleetHealth() : std::map<std::string, runtime::StreamHealth>{};
  std::ostringstream out;
  out << fleet.size();
  for (const auto& [name, health] : fleet) {
    out << "\n" << stream_line(name, health);
  }

  // Serving planes join the listing after the streams: one WORKERS summary
  // per pool, then one WORKER line per slot that has failed or restarted
  // (clean slots are omitted, like clean streams; the leading count stays the
  // stream count).
  std::lock_guard<std::mutex> lock(shm_mu_);
  for (const auto& [name, plane] : shm_planes_) {
    if (plane.pool == nullptr) {
      continue;
    }
    out << "\nWORKERS " << name << " " << plane.pool->live_workers() << "/"
        << plane.pool->size() << " RESTARTS " << plane.pool->stats().restarts;
    const std::vector<runtime::WorkerHealth> workers = plane.pool->FleetHealth();
    for (size_t i = 0; i < workers.size(); ++i) {
      const runtime::WorkerHealth& health = workers[i];
      if (health.state == runtime::WorkerState::kHealthy && health.restarts == 0 &&
          health.consecutive_failures == 0) {
        continue;
      }
      out << "\nWORKER " << name << "#" << i << " STATE "
          << runtime::WorkerStateName(health.state) << " RESTARTS " << health.restarts
          << " FAILURES " << health.consecutive_failures;
      if (!health.last_error.empty()) {
        out << " LAST " << common::ErrorCodeName(health.last_code) << " "
            << health.last_error;
      }
    }
  }
  return OkResponse(out.str());
}

std::string QueryServer::HandleCameras() {
  std::ostringstream out;
  const std::vector<std::string> names = fleet_->CameraNames();
  out << names.size();
  for (const std::string& name : names) {
    out << "\n" << name;
  }
  return OkResponse(out.str());
}

std::string QueryServer::HandleClasses(const std::string& filter) {
  std::ostringstream out;
  int matches = 0;
  std::ostringstream list;
  for (common::ClassId cls = 0; cls < video::kNumClasses; ++cls) {
    const std::string& name = catalog_->Name(cls);
    if (!filter.empty() && name.find(filter) == std::string::npos) {
      continue;
    }
    ++matches;
    if (matches <= 50) {  // Bounded payload; the filter narrows further.
      list << "\n" << name;
    }
  }
  out << matches << (matches > 50 ? " (first 50 shown)" : "") << list.str();
  return OkResponse(out.str());
}

std::string QueryServer::HandleStats(const std::string& camera) {
  if (camera.empty()) {
    // Bare STATS: the shared fleet query service, one summary line.
    const runtime::FleetServiceStats stats = service_.stats();
    std::ostringstream out;
    out << "SERVICE REQUESTS " << stats.requests << " CACHE_HITS " << stats.cache_hits
        << " CACHE_MISSES " << stats.cache_misses << " HIT_RATE " << stats.CacheHitRate()
        << " DEDUP " << stats.dedup_hits << " LAUNCHES " << stats.launches << " GPU_MS "
        << stats.gpu_millis << " CACHE_SIZE " << stats.cache_size << " EVICTED "
        << stats.cache_evicted << " RETIRED " << stats.cache_retired;
    return OkResponse(out.str());
  }
  const core::FocusStream* stream = fleet_->Find(camera);
  if (stream == nullptr) {
    return ErrResponse(common::ErrorCode::kNotFound, "unknown camera " + camera);
  }
  std::ostringstream out;
  out << "MODEL " << stream->chosen_params().model.name << " K " << stream->chosen_params().k
      << " T " << stream->chosen_params().cluster_threshold << " CLUSTERS "
      << stream->ingest().num_clusters << " DETECTIONS " << stream->ingest().detections
      << " INGEST_GPU_MS " << stream->total_ingest_gpu_millis();
  return OkResponse(out.str());
}

}  // namespace focus::server
