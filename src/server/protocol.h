// Request/response vocabulary and text framing for the Focus query server.
//
// The wire format is a deliberately simple line protocol (one request line in, one
// framed response out) so any transport — a socket, a pipe, a REPL — can carry it
// and tests can drive the server with plain strings:
//
//   QUERY <camera>[,<camera>...] <class> [BEGIN <sec>] [END <sec>] [KX <n>] [TENANT <t>]
//   QUERY REGION <region> <class> [BEGIN <sec>] [END <sec>] [KX <n>] [TENANT <t>]
//   CAMERAS
//   CLASSES <substring>
//   STATS [camera]
//   HEALTH [camera]
//   SHM ATTACH <segment> | SHM STATUS [segment]
//   SHM SERVE <segment> [WORKERS <n>]
//   SHM QUERY <segment> <class> [BEGIN <sec>] [END <sec>] [KX <n>]
//   PING
//
// A QUERY naming one camera answers from that camera; a comma-separated list or
// a REGION form fans out as one federated query (docs/fleet_serving.md) whose
// response aggregates per-camera hits with provenance. STATS with a camera
// reports that stream's ingest figures; bare STATS reports the process-wide
// fleet query service (requests, cache hit rate, dedup, launches). TENANT only
// attributes the request (the service's fleet.tenant.<t>.requests counter);
// it never changes how the request is scheduled. A tenant name is 1-32
// characters of [A-Za-z0-9_-], since it becomes part of a metric name.
//
// Numeric options are range-checked, never narrowed: KX and WORKERS are ints
// in [1, INT_MAX], and a value past int is an error, not a wrapped count. How
// many workers a plane can seat is QueryServer's check, not the parser's.
//
// Responses are "OK <payload...>" on success, "ERR <code> <message>" on failure.
// Parsing is strict: unknown verbs, missing arguments, or trailing junk are errors —
// a query frontend that guesses is a frontend that silently answers the wrong
// question.
//
// The second half of this file is the server <-> worker wire of supervised shm
// serving (docs/shm_serving.md), one line each way:
//
//   request:   Q <cls> <kx> <begin> <end>          (range bounds in hexfloat)
//   reply ok:  R <epoch> <watermark> <centroids> <matched> <frames> <gpu>
//              [<first>:<last> ...]                (gpu in hexfloat)
//   reply err: E <CodeName> <message...>
//
// Floating fields cross as hexfloat so the answer the parent frames is
// bit-exact against an in-process query of the same epoch. Decoding
// tokenizes and converts with strtod — istream extraction does not accept
// hexfloat, so a stream-based parse would silently read 0. A reply is bytes a
// crashed or hostile worker may have written: DecodeWorkerReply accepts only
// a well-formed answer in the exact form EncodeWorkerReply writes, and
// anything else is a typed error.
#ifndef FOCUS_SRC_SERVER_PROTOCOL_H_
#define FOCUS_SRC_SERVER_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/time_types.h"
#include "src/core/query_engine.h"

namespace focus::server {

enum class Verb { kQuery, kCameras, kClasses, kStats, kHealth, kPing, kShm };

struct Request {
  Verb verb = Verb::kPing;
  // SHM fields: |shm_op| is "ATTACH", "STATUS", "SERVE", or "QUERY";
  // |shm_name| the segment name (required except for STATUS — empty lists
  // every attach). SERVE may set |shm_workers| (0 = server default);
  // QUERY reuses class_name/range/kx below.
  std::string shm_op;
  std::string shm_name;
  int shm_workers = 0;
  // QUERY fields (HEALTH and STATS reuse |camera|; for both it is optional —
  // empty asks for the whole fleet / the shared query service).
  std::string camera;
  // Federated QUERY forms: a comma-separated camera list lands in |cameras|
  // (|camera| stays empty), REGION lands in |region|. At most one of
  // camera/cameras/region is set for a QUERY.
  std::vector<std::string> cameras;
  std::string region;
  std::string class_name;
  common::TimeRange range{};
  int kx = -1;  // -1 = the indexed K; otherwise [1, INT_MAX].
  std::string tenant = "default";  // TENANT option: 1-32 of [A-Za-z0-9_-].
  // CLASSES field.
  std::string class_filter;
};

// Parses one request line. Errors carry a human-readable reason.
common::Result<Request> ParseRequest(const std::string& line);

// Response helpers (the server composes payloads; these add the framing).
std::string OkResponse(const std::string& payload);
std::string ErrResponse(common::ErrorCode code, const std::string& message);

// Splits on single spaces, ignoring leading/trailing whitespace.
std::vector<std::string> Tokenize(const std::string& line);

// --- The worker wire ---

// One shm query as the parent sends it to a worker.
struct WorkerQuery {
  common::ClassId cls = common::kInvalidClass;
  int kx = -1;
  common::TimeRange range{};
};

// A shm query answer plus the epoch provenance the response frames.
struct ShmAnswer {
  uint64_t epoch = 0;
  int64_t watermark = 0;
  core::QueryResult result;
};

std::string EncodeWorkerRequest(common::ClassId cls, int kx, common::TimeRange range);
// Malformed requests are InvalidArgument.
common::Result<WorkerQuery> DecodeWorkerRequest(const std::string& request);

std::string EncodeWorkerError(const common::Error& error);
std::string EncodeWorkerReply(const ShmAnswer& answer);
// An "E" frame decodes to the worker's typed error. An "R" frame decodes to
// an answer for |queried| only when it is well formed: no field out of range
// or negative, a finite non-negative gpu figure, frame runs sorted, disjoint
// and non-inverted whose lengths sum to the frame count, at most as many
// matched clusters as classified centroids, and bytes identical to what
// EncodeWorkerReply writes for that answer. Anything else is kIo.
common::Result<ShmAnswer> DecodeWorkerReply(const std::string& reply, common::ClassId queried);

}  // namespace focus::server

#endif  // FOCUS_SRC_SERVER_PROTOCOL_H_
