// The benchmark's three workloads and what they share: run options, the
// metric sink, stream setup and tuning, accuracy scoring against ground
// truth, and the response formats the correctness checks compare against.
#ifndef FOCUS_PERFBENCH_WORKLOADS_H_
#define FOCUS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/cnn/cnn.h"
#include "src/core/config.h"
#include "src/core/live_snapshot.h"
#include "src/core/parameter_tuner.h"
#include "src/core/query_engine.h"
#include "src/index/topk_index.h"
#include "src/runtime/fleet_query_service.h"
#include "src/shm/epoch_plane.h"
#include "src/video/class_catalog.h"
#include "src/video/stream_generator.h"

namespace focus::perfbench {

// The class catalog, GT-CNN weights and each camera's recording are fixed
// inputs, like the paper's Table 1 videos: a camera's class mix, tuned
// configuration and index size are properties of its recording, and letting
// --seed redraw them would make every run a different workload (cluster
// counts of the news stream alone vary 28k-48k across recordings). --seed
// draws everything generated around the recordings: request schedules, query
// mixes and verification samples.
inline constexpr uint64_t kWorldSeed = 42;
inline constexpr uint64_t kRecordingSeed = 1000;
inline constexpr double kFps = 30.0;
// Every timed phase repeats its set-up this many times and reports the median.
inline constexpr int kSetupReps = 3;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // Per-run work directory inside the checkout.
};

// Everything one run produces. Metric values are keyed by the names in
// main.cc's metric table; a workload sets the ones its layers exercise.
struct RunContext {
  explicit RunContext(RunOptions o) : options(std::move(o)), spans(options.trace) {}

  RunOptions options;
  SpanRecorder spans;
  OpTally ops;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  // Human-readable report lines.
  int64_t setup_skips = 0;         // Streams the tuner rejected during set-up.
  bool checks_failed = false;      // A correctness check outside the op tally failed.
  // Traced runs: the measured time the ledger explains, and ledger rows
  // derived from differences of measured calls.
  double ledger_wall_ms = 0.0;
  std::vector<LedgerRow> derived_rows;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Note(const std::string& line) { notes.push_back(line); }
};

void RunIngestBacklog(RunContext& ctx);
void RunQueryFleet(RunContext& ctx);
void RunLiveMixed(RunContext& ctx);

// --- Shared helpers ---

// The fixed recording seed of camera |name|.
uint64_t RecordingSeed(const std::string& name);
video::StreamProfile ProfileOrDie(const std::string& name);

// The tuner grid the benchmark deploys: a short sample and a narrowed grid so
// set-up stays about a second per stream. Specialized models with K >= 4 only:
// on a 90 s sample the generic models and K = 2 are chosen for some seeds and
// then miss the 0.95 recall floor over the whole recording.
core::TunerOptions BenchTunerOptions();

// One tuned stream: the recording and its chosen ingest configuration.
struct TunedStream {
  std::string name;
  std::unique_ptr<video::StreamRun> run;
  core::IngestParams params;
  int64_t configs = 0;  // Grid configurations the tuner evaluated.
  double tune_ms = 0.0;
};

// Generates |name|'s recording and tunes it. Returns false (a set-up skip)
// when the tuner finds no usable configuration.
bool TuneStream(const video::ClassCatalog& catalog, const cnn::Cnn& gt, const std::string& name,
                double duration_sec, TunedStream* out);

// The paper's metrics for one indexed stream, over its dominant classes.
struct StreamAccuracy {
  double precision = 0.0;
  double recall = 0.0;
  double ingest_cheaper_by = 0.0;  // Ingest-all GPU-ms / Focus ingest GPU-ms.
  double query_faster_by = 0.0;    // Query-all GPU-ms / mean Focus query GPU-ms.
  int64_t classes = 0;
};

StreamAccuracy ScoreIndex(const video::StreamRun& run, const index::TopKIndex& index,
                          const cnn::Cnn& ingest_cnn, const cnn::Cnn& gt, int64_t detections,
                          double ingest_gpu_ms);

// Averages |scores| into precision / recall / ingest_cheaper_by /
// query_faster_by and fails the run when precision or recall is below the
// paper's 0.95 floor.
void ReportAccuracy(RunContext& ctx, const std::vector<StreamAccuracy>& scores);

// Sets <prefix>_p50, _p90 and _p99 from |samples| (in the order they were
// taken): the samples are cut into up to kLatencyWindows consecutive windows
// of at least kMinWindowSamples, each window's median, p90 and tail (the
// highest percentile up to p99 with ten samples beyond it) are taken, and the
// median over windows is reported. One stall episode then moves one window,
// not the run's figure.
inline constexpr size_t kLatencyWindows = 5;
inline constexpr size_t kMinWindowSamples = 200;
void SetLatency(RunContext& ctx, const std::string& prefix, const std::vector<double>& samples);

// The figures SetLatency reports, for callers that combine them.
struct LatencyFigures {
  double p50 = 0.0;
  double p90 = 0.0;
  double tail = 0.0;
};
LatencyFigures WindowedLatency(RunContext& ctx, const std::string& label,
                               const std::vector<double>& samples);

// Median over kLatencyWindows consecutive windows of count / sum(|busy_ms|):
// operations served per second of service time.
double WindowedRate(const std::vector<double>& busy_ms);

// Sets the proc.* counters from a phase's rusage delta.
void SetProcCounters(RunContext& ctx, const ProcCounters& delta);

// Sets the fleet.* metrics from a fleet service's counters.
void SetFleetMetrics(RunContext& ctx, const runtime::FleetServiceStats& stats, int batch_size);

// The request order of an open-loop schedule: |count| indices into a fixed mix
// of |block| requests, each consecutive block the whole mix in a fresh order
// drawn from |seed|. Every stretch of a run then offers the same work.
std::vector<size_t> BlockOrder(size_t block, size_t count, uint64_t seed);

// --- Snapshot sinks ---

// What the snapshot sinks of one measured phase observed (builder threads).
struct SinkLog {
  std::mutex mu;
  std::vector<double> publish_delay_ms;
  std::vector<double> flatten_ms;
  std::vector<double> cut_ms, stall_ms, build_ms;
  int64_t reused = 0;
  int64_t rebuilt = 0;
  int64_t epochs = 0;
  int64_t publish_failed = 0;
};

using SnapshotSink = std::function<void(std::shared_ptr<const core::LiveSnapshot>)>;
using EpochCallback = std::function<void(const std::shared_ptr<const core::LiveSnapshot>&)>;

// A snapshot sink that publishes every epoch into |plane| (when non-null),
// counts each Publish as a "publish" op, calls |published| once the epoch is
// queryable (after a successful Publish, or at once without a plane), and logs
// the epoch's publish delay (from |run|'s stamp of its last frame to that
// point) and snapshot stats into |log|.
SnapshotSink MakeSnapshotSink(RunContext& ctx, SinkLog& log, const PacedStreamRun* run,
                              shm::EpochPublisher* plane, EpochCallback published = {});

// Sets snapshot.* and shm.publish_failed from |log|, with epochs divided by
// |epoch_divisor| (the number of whole-run repetitions the log covers).
void SetSnapshotMetrics(RunContext& ctx, const SinkLog& log, int epoch_divisor = 1);

// --- Response formats (src/server/query_server.cc) ---

// |response| with the " LATENCY_MS <v>" field removed from its first line;
// the field's value lands in |latency_ms|. Returns false when absent.
bool StripLatency(const std::string& response, std::string* stripped, double* latency_ms);

// "FRAMES .. RUNS .. CENTROIDS .. GPU_MS .." plus one "\nRUN a b" per run.
std::string ResultPayload(const core::QueryResult& result);

// Epoch named by a "LIVE/STALE EPOCH e" or "SHM <seg> EPOCH e" response; 0 if none.
uint64_t EpochOf(const std::string& response);

// A seeded query request: class plus optional Kx and time range.
struct QuerySpec {
  common::ClassId cls = common::kInvalidClass;
  int kx = -1;
  common::TimeRange range{};
  bool has_range = false;
};

// " <class> [KX k] [BEGIN b END e]" for a request line.
std::string SpecSuffix(const video::ClassCatalog& catalog, const QuerySpec& spec);

}  // namespace focus::perfbench

#endif  // FOCUS_PERFBENCH_WORKLOADS_H_
