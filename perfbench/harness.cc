#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace focus::perfbench {

int64_t NowNs() {
  static const std::chrono::steady_clock::time_point origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              origin)
      .count();
}

double MillisBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

void SleepUntilNs(int64_t deadline_ns) {
  // Sleep to within kSpinNs of the deadline, then spin: a core woken from
  // idle right at the deadline runs the next request measurably slower, and
  // how much slower depends on what else the host is doing.
  constexpr int64_t kSpinNs = 300000;
  const int64_t now = NowNs();
  if (deadline_ns - now > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
  }
  while (NowNs() < deadline_ns) {
  }
}

int TailPercentile(size_t n) {
  constexpr int kCap = 99;
  constexpr size_t kMinBeyond = 10;
  if (n <= kMinBeyond) {
    return 0;
  }
  // The nearest-rank p-th percentile leaves n - ceil(p * n / 100) samples
  // above it; that is >= kMinBeyond exactly when p <= 100 * (1 - m / n).
  const double bound = 100.0 * (1.0 - static_cast<double>(kMinBeyond) / static_cast<double>(n));
  return std::clamp(static_cast<int>(std::floor(bound + 1e-9)), 0, kCap);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const auto rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// --- Span recorder ---

int SpanRecorder::LaneLocked() {
  auto [it, inserted] =
      lanes_.try_emplace(std::this_thread::get_id(), static_cast<int>(lanes_.size()));
  return it->second;
}

int64_t SpanRecorder::Open(const std::string& name, int64_t request_id) {
  if (!enabled_) {
    return -1;
  }
  const int64_t start = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t>& stack = open_[std::this_thread::get_id()];
  Span span;
  span.name = name;
  span.start_ns = start;
  span.parent = stack.empty() ? -1 : stack.back();
  span.request_id =
      request_id >= 0 || span.parent < 0 ? request_id : spans_[span.parent].request_id;
  span.thread = LaneLocked();
  spans_.push_back(std::move(span));
  const auto index = static_cast<int64_t>(spans_.size()) - 1;
  stack.push_back(index);
  return index;
}

void SpanRecorder::Close(int64_t index) {
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = end;
  if (span.parent >= 0) {
    last_child_end_[span.parent] = end;
  }
  std::vector<int64_t>& stack = open_[std::this_thread::get_id()];
  if (!stack.empty() && stack.back() == index) {
    stack.pop_back();
  }
}

void SpanRecorder::AddChild(const std::string& name, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<int64_t>& stack = open_[std::this_thread::get_id()];
  Span span;
  span.name = name;
  span.parent = stack.empty() ? -1 : stack.back();
  // Start no earlier than the parent's previous child ended, so siblings on
  // one thread never overlap and self times still partition the parent.
  span.start_ns = start_ns;
  if (span.parent >= 0) {
    int64_t& last_end = last_child_end_[span.parent];
    span.start_ns = std::max({start_ns, last_end, spans_[span.parent].start_ns});
    last_end = std::max(end_ns, span.start_ns);
  }
  span.end_ns = std::max(end_ns, span.start_ns);
  span.request_id = span.parent < 0 ? -1 : spans_[span.parent].request_id;
  span.thread = LaneLocked();
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SelfMillis(const std::vector<Span>& spans) {
  // Every span is first clipped to its (clipped) parent, so a child reported
  // with a slightly earlier start never counts time outside its parent.
  // Parents precede their children, so one forward pass clips the tree.
  std::vector<std::pair<int64_t, int64_t>> clipped(spans.size());
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    clipped[i] = {span.start_ns, std::max(span.start_ns, span.end_ns)};
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < i) {
      const auto& [parent_lo, parent_hi] = clipped[static_cast<size_t>(span.parent)];
      const int64_t lo = std::clamp(span.start_ns, parent_lo, parent_hi);
      const int64_t hi = std::clamp(span.end_ns, lo, parent_hi);
      clipped[i] = {lo, hi};
      if (hi > lo) {
        children[static_cast<size_t>(span.parent)].emplace_back(lo, hi);
      }
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (!open || lo > run_hi) {
        covered += open ? run_hi - run_lo : 0;
        run_lo = lo;
        run_hi = hi;
        open = true;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    covered += open ? run_hi - run_lo : 0;
    self[i] = MillisBetween(clipped[i].first, clipped[i].second) -
              static_cast<double>(covered) / 1e6;
  }
  return self;
}

double Ledger::AttributedMillis() const {
  double total = 0.0;
  for (const LedgerRow& row : rows) {
    total += row.self_ms;
  }
  return total;
}

double Ledger::SelfOf(const std::string& name) const {
  for (const LedgerRow& row : rows) {
    if (row.layer == name) {
      return row.self_ms;
    }
  }
  return 0.0;
}

int64_t Ledger::SpansOf(const std::string& name) const {
  for (const LedgerRow& row : rows) {
    if (row.layer == name) {
      return row.spans;
    }
  }
  return 0;
}

Ledger BuildLedger(const std::vector<Span>& spans, double wall_ms,
                   const std::vector<LedgerRow>& derived) {
  const std::vector<double> self = SelfMillis(spans);
  // Parents always precede their children (a span's parent is open when it
  // opens), so one forward pass settles which spans descend from a replay.
  std::vector<bool> under(spans.size(), false);
  std::map<std::string, LedgerRow> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t parent = spans[i].parent;
    if (parent < 0 || static_cast<size_t>(parent) >= i) {
      continue;
    }
    const auto p = static_cast<size_t>(parent);
    under[i] = spans[p].name == kReplaySpan || under[p];
    if (!under[i]) {
      continue;
    }
    LedgerRow& row = rows[spans[i].name];
    row.layer = spans[i].name;
    row.self_ms += self[i];
    ++row.spans;
  }
  for (const LedgerRow& row : derived) {
    LedgerRow& into = rows[row.layer];
    into.layer = row.layer;
    into.self_ms += row.self_ms;
    into.spans += row.spans;
  }
  Ledger ledger;
  ledger.wall_ms = wall_ms;
  ledger.residual_ms = wall_ms;
  for (auto& [name, row] : rows) {
    row.share = wall_ms > 0.0 ? row.self_ms / wall_ms : 0.0;
    ledger.residual_ms -= row.self_ms;
    ledger.rows.push_back(row);
  }
  std::sort(ledger.rows.begin(), ledger.rows.end(),
            [](const LedgerRow& a, const LedgerRow& b) { return a.self_ms > b.self_ms; });
  return ledger;
}

// --- Failure accounting ---

void OpTally::Ok(const std::string& kind) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_[kind].first;
}

void OpTally::Fail(const std::string& kind, const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& [attempted, failed] = counts_[kind];
  ++attempted;
  ++failed;
  if (first_failures_.size() < 10) {
    first_failures_.push_back(kind + ": " + reason);
  }
}

int64_t OpTally::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [kind, counts] : counts_) {
    total += counts.first;
  }
  return total;
}

int64_t OpTally::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [kind, counts] : counts_) {
    total += counts.second;
  }
  return total;
}

std::map<std::string, std::pair<int64_t, int64_t>> OpTally::by_kind() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

std::vector<std::string> OpTally::first_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_failures_;
}

// --- Process counters ---

ProcCounters ReadProcCounters() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const auto cpu_ms = [](const rusage& u) {
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) * 1e3 +
           static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e3;
  };
  ProcCounters c;
  c.minflt = self.ru_minflt + children.ru_minflt;
  c.majflt = self.ru_majflt + children.ru_majflt;
  c.nvcsw = self.ru_nvcsw + children.ru_nvcsw;
  c.nivcsw = self.ru_nivcsw + children.ru_nivcsw;
  c.cpu_ms = cpu_ms(self) + cpu_ms(children);
  c.maxrss_mb = static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
  return c;
}

ProcCounters Delta(const ProcCounters& before, const ProcCounters& after) {
  ProcCounters d;
  d.minflt = after.minflt - before.minflt;
  d.majflt = after.majflt - before.majflt;
  d.nvcsw = after.nvcsw - before.nvcsw;
  d.nivcsw = after.nivcsw - before.nivcsw;
  d.cpu_ms = after.cpu_ms - before.cpu_ms;
  d.maxrss_mb = after.maxrss_mb;
  return d;
}

// --- Paced stream decorator ---

PacedStreamRun::PacedStreamRun(const video::StreamRun& base, double pace)
    : video::StreamRun(base),
      pace_(pace),
      stamps_(std::make_unique<std::atomic<int64_t>[]>(
          static_cast<size_t>(std::max<common::FrameIndex>(base.num_frames(), 0)) + 1)) {}

video::SweepStats PacedStreamRun::ForEachFrame(const FrameCallback& callback) const {
  const int64_t origin = NowNs();
  const double ns_per_frame = pace_ > 0.0 ? 1e9 / (fps() * pace_) : 0.0;
  const common::FrameIndex frames = num_frames();
  std::vector<double> lags;
  double callback_ms = 0.0;
  double sleep_ms = 0.0;
  const video::SweepStats stats = video::StreamRun::ForEachFrame(
      [&](common::FrameIndex frame, const std::vector<video::Detection>& detections) {
        int64_t due = NowNs();
        if (pace_ > 0.0) {
          const int64_t before = due;
          due = origin + static_cast<int64_t>(static_cast<double>(frame) * ns_per_frame);
          SleepUntilNs(due);
          sleep_ms += MillisBetween(before, NowNs());
        }
        if (frame >= 0 && frame <= frames) {
          stamps_[static_cast<size_t>(frame)].store(due, std::memory_order_release);
        }
        const int64_t start = NowNs();
        callback(frame, detections);
        const int64_t end = NowNs();
        callback_ms += MillisBetween(start, end);
        if (pace_ > 0.0) {
          lags.push_back(MillisBetween(due, end));
        }
      });
  const double total_ms = MillisBetween(origin, NowNs());
  std::lock_guard<std::mutex> lock(mu_);
  lag_ms_ = std::move(lags);
  gen_ms_ = std::max(0.0, total_ms - callback_ms - sleep_ms);
  return stats;
}

int64_t PacedStreamRun::StampNs(common::FrameIndex frame) const {
  if (frame < 0 || frame > num_frames()) {
    return 0;
  }
  return stamps_[static_cast<size_t>(frame)].load(std::memory_order_acquire);
}

std::vector<double> PacedStreamRun::LagMillis() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lag_ms_;
}

double PacedStreamRun::GenMillis() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gen_ms_;
}

}  // namespace focus::perfbench
