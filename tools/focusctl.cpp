// focusctl: command-line front end for the Focus library.
//
// The operator workflow the paper implies — index a stream, ship the index, answer
// queries later on another machine — as four subcommands over self-contained index
// files (src/storage/index_file.h): the index image plus the ingest model
// descriptor and world seed, so `query` needs nothing but the file.
//
//   focusctl streams
//       List the 13 Table-1 stream profiles.
//   focusctl ingest --stream auburn_c --minutes 10 [--seed 7] [--fps 30]
//                   [--policy balance|opt-ingest|opt-query] --out auburn.idx
//       Simulate the recording, tune, ingest, and write the index file.
//   focusctl inspect --snapshot auburn.idx
//       Print header and index statistics.
//   focusctl query --snapshot auburn.idx --class car [--kx 2]
//                  [--begin 60] [--end 300] [--gpus 10]
//       Answer "find frames with <class>" from the index file; report frames, GPU
//       cost, and wall-clock latency on a GPU fleet.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/cnn/ground_truth.h"
#include "src/common/logging.h"
#include "src/core/focus_stream.h"
#include "src/core/query_engine.h"
#include "src/runtime/gpu_device.h"
#include "src/storage/index_file.h"
#include "src/video/stream_generator.h"

namespace {

using namespace focus;

// Minimal --flag value parser: flags may appear in any order; unknown flags fail.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        ok_ = false;
        bad_ = key;
        return;
      }
      values_[key.substr(2)] = argv[++i];
    }
  }

  bool ok() const { return ok_; }
  const std::string& bad() const { return bad_; }

  std::string Get(const std::string& key, const std::string& fallback = "") {
    seen_.push_back(key);
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  double GetDouble(const std::string& key, double fallback) {
    std::string v = Get(key);
    return v.empty() ? fallback : std::atof(v.c_str());
  }

  uint64_t GetU64(const std::string& key, uint64_t fallback) {
    std::string v = Get(key);
    return v.empty() ? fallback : std::strtoull(v.c_str(), nullptr, 10);
  }

  int GetInt(const std::string& key, int fallback) {
    std::string v = Get(key);
    return v.empty() ? fallback : std::atoi(v.c_str());
  }

  // Flags the subcommand never asked about.
  std::vector<std::string> Unknown() const {
    std::vector<std::string> unknown;
    for (const auto& [key, value] : values_) {
      bool used = false;
      for (const std::string& s : seen_) {
        used = used || s == key;
      }
      if (!used) {
        unknown.push_back("--" + key);
      }
    }
    return unknown;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> seen_;
  bool ok_ = true;
  std::string bad_;
};

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  focusctl streams\n"
               "  focusctl ingest  --stream NAME --minutes M --out FILE\n"
               "                   [--seed N] [--fps F] [--policy balance|opt-ingest|opt-query]\n"
               "  focusctl inspect --snapshot FILE\n"
               "  focusctl query   --snapshot FILE --class NAME\n"
               "                   [--kx N] [--begin SEC] [--end SEC] [--gpus N]\n");
  return 2;
}

int CmdStreams() {
  std::printf("%-12s %-13s %-14s %s\n", "Name", "Type", "Location", "Description");
  for (const video::StreamProfile& p : video::Table1Profiles()) {
    std::printf("%-12s %-13s %-14s %s\n", p.name.c_str(), video::StreamTypeName(p.type),
                p.location.c_str(), p.description.c_str());
  }
  return 0;
}

int CmdIngest(Args& args) {
  const std::string stream = args.Get("stream");
  const double minutes = args.GetDouble("minutes", 10.0);
  const std::string out = args.Get("out");
  const uint64_t seed = args.GetU64("seed", 42);
  const double fps = args.GetDouble("fps", 30.0);
  const std::string policy_name = args.Get("policy", "balance");
  if (stream.empty() || out.empty()) {
    return Usage();
  }

  video::StreamProfile profile;
  if (!video::FindProfile(stream, &profile)) {
    std::fprintf(stderr, "unknown stream '%s' (see: focusctl streams)\n", stream.c_str());
    return 1;
  }
  core::FocusOptions options;
  if (policy_name == "opt-ingest") {
    options.policy = core::Policy::kOptIngest;
  } else if (policy_name == "opt-query") {
    options.policy = core::Policy::kOptQuery;
  } else if (policy_name != "balance") {
    std::fprintf(stderr, "unknown policy '%s'\n", policy_name.c_str());
    return 1;
  }

  video::ClassCatalog catalog(seed);
  video::StreamRun run(&catalog, profile, minutes * 60.0, fps, seed + 1);
  std::printf("tuning + ingesting %.1f min of %s (policy %s)...\n", minutes, stream.c_str(),
              core::PolicyName(options.policy));
  auto focus_or = core::FocusStream::Build(&run, &catalog, options);
  if (!focus_or.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", focus_or.error().message.c_str());
    return 1;
  }
  const core::FocusStream& focus = **focus_or;
  const core::IngestParams& params = focus.chosen_params();

  storage::IndexFileMeta meta;
  meta.stream_name = stream;
  meta.k = params.k;
  meta.cluster_threshold = params.cluster_threshold;
  meta.world_seed = seed;
  meta.fps = fps;
  meta.model = params.model;
  auto written = storage::WriteIndexFile(out, meta, focus.ingest().index);
  if (!written.ok()) {
    std::fprintf(stderr, "write failed: %s\n", written.error().message.c_str());
    return 1;
  }

  const double gt_all = static_cast<double>(focus.ingest().detections) *
                        focus.gt_cnn().inference_cost_millis();
  std::printf("  model=%s K=%d T=%.2f\n", params.model.name.c_str(), params.k,
              params.cluster_threshold);
  std::printf("  detections=%lld clusters=%lld ingest_gpu=%.1fs (%.0fx cheaper than GT-all)\n",
              static_cast<long long>(focus.ingest().detections),
              static_cast<long long>(focus.ingest().num_clusters),
              focus.ingest().gpu_millis / 1000.0, gt_all / focus.ingest().gpu_millis);
  std::printf("  wrote %s (%.1f KiB index image)\n", out.c_str(),
              static_cast<double>(focus.ingest().index.image().size()) / 1024.0);
  return 0;
}

int CmdInspect(Args& args) {
  const std::string path = args.Get("snapshot");
  if (path.empty()) {
    return Usage();
  }
  auto loaded = storage::ReadIndexFile(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.error().message.c_str());
    return 1;
  }
  const auto& [header, index] = *loaded;
  const index::IndexView view = index.view();
  video::ClassCatalog catalog(header.world_seed);

  std::printf("snapshot:   %s\n", path.c_str());
  std::printf("stream:     %s @ %.0f fps (world seed %llu)\n", header.stream_name.c_str(),
              header.fps, static_cast<unsigned long long>(header.world_seed));
  std::printf("model:      %s (layers=%d, input=%dpx, labels=%d%s)\n",
              header.model.name.c_str(), header.model.layers, header.model.input_px,
              header.model.label_space_size(),
              header.model.has_other_class ? " incl. OTHER" : "");
  std::printf("parameters: K=%d T=%.2f\n", header.k, header.cluster_threshold);
  std::printf("clusters:   %zu (%lld indexed detections, %.1f KiB image)\n",
              view.num_clusters(), static_cast<long long>(view.total_detections()),
              static_cast<double>(view.bytes().size()) / 1024.0);

  // Top indexed classes by posting size.
  std::vector<std::pair<size_t, common::ClassId>> by_postings;
  for (const index::PostingList& list : view.lists()) {
    by_postings.emplace_back(list.count, list.cls);
  }
  std::sort(by_postings.rbegin(), by_postings.rend());
  std::printf("top indexed classes (of %zu):\n", by_postings.size());
  for (size_t i = 0; i < std::min<size_t>(8, by_postings.size()); ++i) {
    common::ClassId cls = by_postings[i].second;
    const char* name = cls == cnn::kOtherClass ? "OTHER" : catalog.Name(cls).c_str();
    std::printf("  %-20s %zu clusters\n", name, by_postings[i].first);
  }
  return 0;
}

int CmdQuery(Args& args) {
  const std::string path = args.Get("snapshot");
  const std::string class_name = args.Get("class");
  const int kx = args.GetInt("kx", -1);
  const int gpus = args.GetInt("gpus", 10);
  common::TimeRange range;
  range.begin_sec = args.GetDouble("begin", 0.0);
  range.end_sec = args.GetDouble("end", -1.0);
  if (path.empty() || class_name.empty()) {
    return Usage();
  }

  auto loaded = storage::ReadIndexFile(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.error().message.c_str());
    return 1;
  }
  const auto& [header, index] = *loaded;

  video::ClassCatalog catalog(header.world_seed);
  common::ClassId cls = catalog.IdForName(class_name);
  if (cls == common::kInvalidClass) {
    std::fprintf(stderr, "unknown class '%s'\n", class_name.c_str());
    return 1;
  }

  cnn::Cnn ingest_cnn(header.model, &catalog);
  cnn::Cnn gt(cnn::GtCnnDesc(header.world_seed), &catalog);
  core::QueryEngine engine(&index, &ingest_cnn, &gt);
  core::QueryResult result = engine.Query(cls, kx, range, header.fps);

  std::printf("query '%s' on %s (Kx=%d):\n", class_name.c_str(), header.stream_name.c_str(),
              kx > 0 ? kx : header.k);
  std::printf("  frames returned:      %lld (%lld runs)\n",
              static_cast<long long>(result.frames_returned),
              static_cast<long long>(result.frame_runs.size()));
  std::printf("  clusters confirmed:   %lld of %lld candidates\n",
              static_cast<long long>(result.clusters_matched),
              static_cast<long long>(result.centroids_classified));
  std::printf("  GT-CNN work:          %.1f s GPU time\n", result.gpu_millis / 1000.0);
  std::printf("  wall latency (%d GPUs): %.2f s\n", gpus,
              runtime::ParallelLatencyMillis(result.centroids_classified,
                                             gt.inference_cost_millis(), gpus) /
                  1000.0);
  for (size_t i = 0; i < std::min<size_t>(5, result.frame_runs.size()); ++i) {
    const auto& [first, last] = result.frame_runs[i];
    std::printf("  e.g. frames [%lld, %lld]  (t=%.1fs..%.1fs)\n",
                static_cast<long long>(first), static_cast<long long>(last),
                static_cast<double>(first) / header.fps,
                static_cast<double>(last) / header.fps);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  common::SetLogLevel(common::LogLevel::kWarning);
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  Args args(argc, argv, 2);
  if (!args.ok()) {
    std::fprintf(stderr, "bad argument '%s' (flags take values: --flag value)\n",
                 args.bad().c_str());
    return 2;
  }

  int rc = 0;
  if (command == "streams") {
    rc = CmdStreams();
  } else if (command == "ingest") {
    rc = CmdIngest(args);
  } else if (command == "inspect") {
    rc = CmdInspect(args);
  } else if (command == "query") {
    rc = CmdQuery(args);
  } else {
    return Usage();
  }
  for (const std::string& flag : args.Unknown()) {
    std::fprintf(stderr, "warning: unused flag %s\n", flag.c_str());
  }
  return rc;
}
