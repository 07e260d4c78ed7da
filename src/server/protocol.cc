#include "src/server/protocol.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace focus::server {

namespace {

common::Error BadRequest(const std::string& what) {
  return common::Error{common::ErrorCode::kInvalidArgument, what};
}

// Splits "a,b,c" on commas; empty segments are preserved (caller rejects them).
std::vector<std::string> SplitCameraList(const std::string& token) {
  std::vector<std::string> names;
  size_t begin = 0;
  while (true) {
    const size_t comma = token.find(',', begin);
    if (comma == std::string::npos) {
      names.push_back(token.substr(begin));
      return names;
    }
    names.push_back(token.substr(begin, comma - begin));
    begin = comma + 1;
  }
}

// A whole base-10 int64; a value past int64 is an error, not a clamp.
bool ParseI64(const std::string& token, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtoll(token.c_str(), &end, 10);
  return end != token.c_str() && *end == '\0' && errno != ERANGE;
}

// strtod accepts hexfloat ("0x1.8p+3"), which the wire relies on.
bool ParseF64(const std::string& token, double* out) {
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end != token.c_str() && *end == '\0';
}

// Parses |text| as a whole base-10 integer in [1, INT_MAX].
bool ParsePositiveInt(const std::string& text, int* value) {
  int64_t parsed = 0;
  if (!ParseI64(text, &parsed) || parsed <= 0 || parsed > INT_MAX) {
    return false;
  }
  *value = static_cast<int>(parsed);
  return true;
}

// A tenant name becomes part of a metric name (fleet.tenant.<t>.requests), so
// it is a short identifier: 1 to kMaxTenantNameBytes of [A-Za-z0-9_-].
constexpr size_t kMaxTenantNameBytes = 32;

bool IsTenantName(const std::string& text) {
  return !text.empty() && text.size() <= kMaxTenantNameBytes &&
         std::all_of(text.begin(), text.end(), [](char c) {
           return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
         });
}

// Parses the optional [BEGIN s] [END s] [KX n] [TENANT t] tail of QUERY.
common::Result<bool> ParseQueryOptions(const std::vector<std::string>& tokens, size_t from,
                                       Request* request) {
  size_t i = from;
  while (i < tokens.size()) {
    const std::string& key = tokens[i];
    if (i + 1 >= tokens.size()) {
      return BadRequest("option " + key + " needs a value");
    }
    const std::string& value = tokens[i + 1];
    if (key == "TENANT") {
      if (!IsTenantName(value)) {
        return BadRequest("TENANT must be 1-" + std::to_string(kMaxTenantNameBytes) +
                          " characters of [A-Za-z0-9_-]");
      }
      request->tenant = value;
      i += 2;
      continue;
    }
    if (key == "KX") {
      if (!ParsePositiveInt(value, &request->kx)) {
        return BadRequest("KX must be an integer in [1, " + std::to_string(INT_MAX) + "]");
      }
      i += 2;
      continue;
    }
    double* bound = nullptr;
    if (key == "BEGIN") {
      bound = &request->range.begin_sec;
    } else if (key == "END") {
      bound = &request->range.end_sec;
    } else {
      return BadRequest("unknown option " + key);
    }
    if (!ParseF64(value, bound)) {
      return BadRequest("bad number for " + key + ": " + value);
    }
    i += 2;
  }
  if (request->range.end_sec >= 0.0 && request->range.end_sec <= request->range.begin_sec) {
    return BadRequest("END must be after BEGIN");
  }
  return true;
}

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

// Whether sorted, disjoint, non-inverted frame runs of non-negative frames
// cover exactly |frames| frames.
bool RunsAreWellFormed(const std::vector<std::pair<common::FrameIndex, common::FrameIndex>>& runs,
                       int64_t frames) {
  // Each run spans at most 2^63 frames and the runs are disjoint within
  // [0, INT64_MAX], so the unsigned total cannot wrap.
  uint64_t covered = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const auto [first, last] = runs[i];
    if (first < 0 || first > last || (i > 0 && first <= runs[i - 1].second)) {
      return false;
    }
    covered += static_cast<uint64_t>(last) - static_cast<uint64_t>(first) + 1;
  }
  return covered == static_cast<uint64_t>(frames);
}

}  // namespace

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

common::Result<Request> ParseRequest(const std::string& line) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) {
    return BadRequest("empty request");
  }
  Request request;
  const std::string& verb = tokens[0];
  if (verb == "PING") {
    if (tokens.size() != 1) {
      return BadRequest("PING takes no arguments");
    }
    request.verb = Verb::kPing;
    return request;
  }
  if (verb == "CAMERAS") {
    if (tokens.size() != 1) {
      return BadRequest("CAMERAS takes no arguments");
    }
    request.verb = Verb::kCameras;
    return request;
  }
  if (verb == "CLASSES") {
    if (tokens.size() > 2) {
      return BadRequest("CLASSES takes at most one filter");
    }
    request.verb = Verb::kClasses;
    request.class_filter = tokens.size() == 2 ? tokens[1] : "";
    return request;
  }
  if (verb == "HEALTH") {
    if (tokens.size() > 2) {
      return BadRequest("usage: HEALTH [camera]");
    }
    request.verb = Verb::kHealth;
    request.camera = tokens.size() == 2 ? tokens[1] : "";
    return request;
  }
  if (verb == "SHM") {
    if (tokens.size() < 2) {
      return BadRequest(
          "usage: SHM ATTACH <segment> | SHM STATUS [segment] | "
          "SHM SERVE <segment> [WORKERS <n>] | SHM QUERY <segment> <class> [options]");
    }
    request.verb = Verb::kShm;
    request.shm_op = tokens[1];
    if (request.shm_op == "ATTACH") {
      if (tokens.size() != 3) {
        return BadRequest("usage: SHM ATTACH <segment>");
      }
      request.shm_name = tokens[2];
      return request;
    }
    if (request.shm_op == "STATUS") {
      if (tokens.size() > 3) {
        return BadRequest("usage: SHM STATUS [segment]");
      }
      request.shm_name = tokens.size() == 3 ? tokens[2] : "";
      return request;
    }
    if (request.shm_op == "SERVE") {
      if (tokens.size() != 3 && tokens.size() != 5) {
        return BadRequest("usage: SHM SERVE <segment> [WORKERS <n>]");
      }
      request.shm_name = tokens[2];
      if (tokens.size() == 5) {
        if (tokens[3] != "WORKERS") {
          return BadRequest("unknown option " + tokens[3]);
        }
        if (!ParsePositiveInt(tokens[4], &request.shm_workers)) {
          return BadRequest("WORKERS must be an integer in [1, " + std::to_string(INT_MAX) +
                            "]");
        }
      }
      return request;
    }
    if (request.shm_op == "QUERY") {
      if (tokens.size() < 4) {
        return BadRequest("usage: SHM QUERY <segment> <class> [BEGIN s] [END s] [KX n]");
      }
      request.shm_name = tokens[2];
      request.class_name = tokens[3];
      for (size_t i = 4; i < tokens.size(); i += 2) {
        if (tokens[i] == "TENANT") {
          return BadRequest("SHM QUERY does not take TENANT");
        }
      }
      auto options = ParseQueryOptions(tokens, 4, &request);
      if (!options.ok()) {
        return options.error();
      }
      return request;
    }
    return BadRequest("unknown SHM operation " + request.shm_op);
  }
  if (verb == "STATS") {
    if (tokens.size() > 2) {
      return BadRequest("usage: STATS [camera]");
    }
    request.verb = Verb::kStats;
    request.camera = tokens.size() == 2 ? tokens[1] : "";
    return request;
  }
  if (verb == "QUERY") {
    if (tokens.size() < 3) {
      return BadRequest(
          "usage: QUERY <camera>[,<camera>...] <class> | QUERY REGION <region> <class>");
    }
    request.verb = Verb::kQuery;
    size_t class_at = 2;
    if (tokens[1] == "REGION") {
      if (tokens.size() < 4) {
        return BadRequest("usage: QUERY REGION <region> <class> [options]");
      }
      request.region = tokens[2];
      class_at = 3;
    } else if (tokens[1].find(',') != std::string::npos) {
      request.cameras = SplitCameraList(tokens[1]);
      for (const std::string& name : request.cameras) {
        if (name.empty()) {
          return BadRequest("empty camera name in list: " + tokens[1]);
        }
      }
    } else {
      request.camera = tokens[1];
    }
    request.class_name = tokens[class_at];
    auto options = ParseQueryOptions(tokens, class_at + 1, &request);
    if (!options.ok()) {
      return options.error();
    }
    return request;
  }
  return BadRequest("unknown verb " + verb);
}

std::string OkResponse(const std::string& payload) {
  return payload.empty() ? "OK" : "OK " + payload;
}

std::string ErrResponse(common::ErrorCode code, const std::string& message) {
  return std::string("ERR ") + common::ErrorCodeName(code) + " " + message;
}

std::string EncodeWorkerRequest(common::ClassId cls, int kx, common::TimeRange range) {
  std::ostringstream out;
  out << "Q " << cls << ' ' << kx << ' ' << std::hexfloat << range.begin_sec << ' '
      << range.end_sec;
  return out.str();
}

common::Result<WorkerQuery> DecodeWorkerRequest(const std::string& request) {
  const std::vector<std::string> tokens = Tokenize(request);
  int64_t cls = 0;
  int64_t kx = 0;
  WorkerQuery query;
  if (tokens.size() != 5 || tokens[0] != "Q" || !ParseI64(tokens[1], &cls) ||
      !ParseI64(tokens[2], &kx) || !ParseF64(tokens[3], &query.range.begin_sec) ||
      !ParseF64(tokens[4], &query.range.end_sec) || cls < INT_MIN || cls > INT_MAX ||
      kx < INT_MIN || kx > INT_MAX) {
    return common::InvalidArgument("malformed worker request: " + request);
  }
  query.cls = static_cast<common::ClassId>(cls);
  query.kx = static_cast<int>(kx);
  return query;
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
  core::QueryResult& result = answer.result;
  result.queried = queried;
  int64_t epoch = 0;
  if (!ParseI64(tokens[1], &epoch) || !ParseI64(tokens[2], &answer.watermark) ||
      !ParseI64(tokens[3], &result.centroids_classified) ||
      !ParseI64(tokens[4], &result.clusters_matched) ||
      !ParseI64(tokens[5], &result.frames_returned) ||
      !ParseF64(tokens[6], &result.gpu_millis)) {
    return common::IoError("bad number in worker reply frame: " + reply);
  }
  if (epoch < 0 || answer.watermark < 0 || result.centroids_classified < 0 ||
      result.clusters_matched < 0 || result.clusters_matched > result.centroids_classified ||
      result.frames_returned < 0 || !std::isfinite(result.gpu_millis) ||
      result.gpu_millis < 0.0) {
    return common::IoError("out-of-range field in worker reply frame: " + reply);
  }
  answer.epoch = static_cast<uint64_t>(epoch);
  for (size_t i = 7; i < tokens.size(); ++i) {
    const size_t colon = tokens[i].find(':');
    int64_t first = 0;
    int64_t last = 0;
    if (colon == std::string::npos || !ParseI64(tokens[i].substr(0, colon), &first) ||
        !ParseI64(tokens[i].substr(colon + 1), &last)) {
      return common::IoError("bad frame run in worker reply: " + tokens[i]);
    }
    result.frame_runs.emplace_back(first, last);
  }
  if (!RunsAreWellFormed(result.frame_runs, result.frames_returned)) {
    return common::IoError("frame runs in worker reply are not sorted, disjoint runs of " +
                           std::to_string(result.frames_returned) + " frames");
  }
  // Numbers in another spelling (leading zeros, a '+', a longer hexfloat),
  // other whitespace or trailing bytes: not what a worker writes.
  if (EncodeWorkerReply(answer) != reply) {
    return common::IoError("non-canonical worker reply frame: " + reply);
  }
  return answer;
}

}  // namespace focus::server
