#include "src/server/protocol.h"

#include <algorithm>
#include <cctype>
#include <climits>
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

// Parses |text| as a whole base-10 integer in [1, INT_MAX]. The value is
// range-checked as a long long before it narrows (strtoll clamps anything past
// its own range to LLONG_MIN/LLONG_MAX, which the check rejects too), so no
// out-of-range number wraps into an accepted int.
bool ParsePositiveInt(const std::string& text, int* value) {
  char* end = nullptr;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || parsed <= 0 || parsed > INT_MAX) {
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
    char* end = nullptr;
    if (key == "BEGIN") {
      request->range.begin_sec = std::strtod(value.c_str(), &end);
    } else if (key == "END") {
      request->range.end_sec = std::strtod(value.c_str(), &end);
    } else {
      return BadRequest("unknown option " + key);
    }
    if (end == value.c_str() || *end != '\0') {
      return BadRequest("bad number for " + key + ": " + value);
    }
    i += 2;
  }
  if (request->range.end_sec >= 0.0 && request->range.end_sec <= request->range.begin_sec) {
    return BadRequest("END must be after BEGIN");
  }
  return true;
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

}  // namespace focus::server
