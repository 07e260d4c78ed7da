// Measurement harness of the end-to-end benchmark: sample statistics, the span
// recorder and its self-time ledger, per-op failure accounting, process
// counters, and the paced StreamRun decorator that releases frames on a
// real-time schedule.
//
// Everything here is measured from outside the program: spans wrap the
// benchmark's own calls into the library's public entry points.
#ifndef FOCUS_PERFBENCH_HARNESS_H_
#define FOCUS_PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/video/stream_generator.h"

namespace focus::perfbench {

// Nanoseconds on the steady clock since a process-wide origin (the first call).
int64_t NowNs();
double MillisBetween(int64_t start_ns, int64_t end_ns);
// Sleeps until NowNs() >= |deadline_ns|.
void SleepUntilNs(int64_t deadline_ns);

// --- Sample statistics ---

// The tail percentile reported for |n| samples: the highest whole percentile,
// up to p99, that leaves at least ten samples above it. Returns 0 when none
// qualifies (n <= 10).
int TailPercentile(size_t n);

// Nearest-rank percentile of |values| (p in [0, 100]); 0 for an empty set.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// --- Span recorder ---

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;      // Index into the recorder's spans; -1 for a root.
  int64_t request_id = -1;  // Spans of one request share it; -1 when none.
  int thread = 0;           // Lane of the recording thread (0 = first seen).
};

// Keeps every span in memory until the benchmark writes them out at exit.
// A disabled recorder records nothing and costs one branch per scope.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  // Opens a span on the calling thread, nested under that thread's innermost
  // open span; a span without a request id inherits its parent's. Returns its
  // index (-1 when disabled).
  int64_t Open(const std::string& name, int64_t request_id = -1);
  void Close(int64_t index);

  // Appends an already-measured span as a child of the calling thread's
  // innermost open span (used for intervals a layer reports about itself).
  void AddChild(const std::string& name, int64_t start_ns, int64_t end_ns);

  std::vector<Span> spans() const;

 private:
  int LaneLocked();

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, int> lanes_;
  std::map<std::thread::id, std::vector<int64_t>> open_;  // Per-thread open stack.
  std::unordered_map<int64_t, int64_t> last_child_end_;  // Parent -> its last child's end.
};

// RAII scope over SpanRecorder::Open/Close; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int64_t request_id = -1)
      : recorder_(recorder),
        index_(recorder != nullptr && recorder->enabled() ? recorder->Open(name, request_id)
                                                          : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) {
      recorder_->Close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int64_t index_;
};

// Self time of every span, in milliseconds: its duration minus the part of
// its interval that its direct children cover (children are clipped to the
// parent and their overlaps merged, so overlapping children count once).
std::vector<double> SelfMillis(const std::vector<Span>& spans);

struct LedgerRow {
  std::string layer;
  double self_ms = 0.0;
  double share = 0.0;  // self_ms / wall_ms.
  int64_t spans = 0;
};

// A measured wall explained by layer calls. The rows are the self times of
// the layer spans recorded under every span named kReplaySpan (summed per
// span name; the replay spans themselves are containers and count nothing),
// plus rows derived from differences of measured calls. The residual is the
// wall minus the rows: the part of the measured time no layer call explains.
// It is signed, and sum(rows) + residual == wall by construction.
inline constexpr const char* kReplaySpan = "replay";

struct Ledger {
  double wall_ms = 0.0;
  double residual_ms = 0.0;
  std::vector<LedgerRow> rows;  // Largest self time first.

  double AttributedMillis() const;
  // Self time of layer |name| (0 when absent).
  double SelfOf(const std::string& name) const;
  int64_t SpansOf(const std::string& name) const;
};

Ledger BuildLedger(const std::vector<Span>& spans, double wall_ms,
                   const std::vector<LedgerRow>& derived = {});

// --- Failure accounting ---

// Attempted and failed counts per op kind; safe to use from several threads.
class OpTally {
 public:
  void Ok(const std::string& kind);
  void Fail(const std::string& kind, const std::string& reason);

  int64_t attempted() const;
  int64_t failed() const;
  std::map<std::string, std::pair<int64_t, int64_t>> by_kind() const;  // (attempted, failed)
  std::vector<std::string> first_failures() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::pair<int64_t, int64_t>> counts_;
  std::vector<std::string> first_failures_;
};

// --- Process counters ---

struct ProcCounters {
  int64_t minflt = 0;
  int64_t majflt = 0;
  int64_t nvcsw = 0;
  int64_t nivcsw = 0;
  double cpu_ms = 0.0;     // User + system.
  double maxrss_mb = 0.0;  // Self plus largest reaped child.
};

// getrusage of this process plus its reaped children.
ProcCounters ReadProcCounters();
// Counter deltas of |after| - |before| (maxrss is |after|'s).
ProcCounters Delta(const ProcCounters& before, const ProcCounters& after);

// --- Paced stream decorator ---

// Delivers the underlying recording unchanged but releases frame f no earlier
// than its due time, origin + f / (fps * pace), and stamps that time. A pace
// <= 0 delivers flat out and stamps the delivery time. Per sweep it records
// how late each callback returned relative to its due time and how long the
// sweep spent outside the callback, pacing sleeps excluded.
class PacedStreamRun : public video::StreamRun {
 public:
  PacedStreamRun(const video::StreamRun& base, double pace);

  video::SweepStats ForEachFrame(const FrameCallback& callback) const override;

  // Due (or delivery) time of |frame| in NowNs() units; 0 before delivery.
  int64_t StampNs(common::FrameIndex frame) const;

  // Per delivered frame of the latest sweep: callback return minus due time.
  std::vector<double> LagMillis() const;
  double GenMillis() const;

 private:
  double pace_;
  std::unique_ptr<std::atomic<int64_t>[]> stamps_;
  mutable std::mutex mu_;
  mutable std::vector<double> lag_ms_;
  mutable double gen_ms_ = 0.0;
};

}  // namespace focus::perfbench

#endif  // FOCUS_PERFBENCH_HARNESS_H_
