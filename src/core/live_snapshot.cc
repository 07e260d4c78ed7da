#include "src/core/live_snapshot.h"

#include <chrono>
#include <utility>

#include "src/common/logging.h"

namespace focus::core {

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::shared_ptr<const LiveSnapshot> SnapshotSlot::Publish(
    std::unique_ptr<LiveSnapshot> snapshot) {
  FOCUS_CHECK(snapshot != nullptr);
  std::shared_ptr<const LiveSnapshot> published;
  std::shared_ptr<const LiveSnapshot> retired;  // Freed outside the lock.
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot->epoch = (latest_ != nullptr ? latest_->epoch : 0) + 1;
    published = std::move(snapshot);
    retired = std::move(latest_);
    latest_ = published;
  }
  // |retired| drops here: if this was the last reference, the old epoch's
  // table is destroyed without holding the slot lock.
  return published;
}

SnapshotBuilder::SnapshotBuilder(SnapshotSlot* slot, Sink sink, bool background)
    : slot_(slot), sink_(std::move(sink)) {
  if (background) {
    thread_ = std::thread([this] { BuilderMain(); });
  }
}

SnapshotBuilder::~SnapshotBuilder() {
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    thread_.join();  // BuilderMain drains the queue before exiting.
  }
}

void SnapshotBuilder::Submit(SnapshotBuildJob job) {
  if (!thread_.joinable()) {
    Assemble(std::move(job));
    return;
  }
  const auto wait_start = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return queue_.size() < kMaxQueuedJobs; });
    job.stall_millis = MillisSince(wait_start);
    queue_.push_back(std::move(job));
    ++submitted_;
  }
  cv_.notify_all();
}

void SnapshotBuilder::Flush() {
  if (!thread_.joinable()) {
    return;  // Synchronous mode: Submit already published everything.
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return completed_ == submitted_; });
}

void SnapshotBuilder::BuilderMain() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return !queue_.empty() || shutdown_; });
    if (queue_.empty()) {
      return;  // Shutdown with a drained queue.
    }
    SnapshotBuildJob job = std::move(queue_.front());
    queue_.pop_front();
    cv_.notify_all();  // A queue slot freed; the submitter may refill while we assemble.
    lock.unlock();
    Assemble(std::move(job));
    lock.lock();
    ++completed_;
    cv_.notify_all();
  }
}

void SnapshotBuilder::Assemble(SnapshotBuildJob job) {
  const auto start = std::chrono::steady_clock::now();
  auto snapshot = std::make_unique<LiveSnapshot>();
  snapshot->watermark = job.watermark;
  snapshot->fps = job.fps;
  snapshot->detections = job.detections;
  index::IndexBuilder builder;
  const index::IndexView prev = prev_ != nullptr ? prev_->index.view() : index::IndexView();
  for (const SnapshotBuildItem& item : job.items) {
    if (item.reused) {
      FOCUS_CHECK(item.prev_slot < prev.num_clusters());
      builder.AddFrom(prev, item.prev_slot);
      ++snapshot->stats.entries_reused;
    } else {
      builder.Add(item.entry);
      ++snapshot->stats.entries_rebuilt;
    }
  }
  snapshot->index = builder.Finish();
  snapshot->num_clusters = static_cast<int64_t>(snapshot->index.num_clusters());
  snapshot->stats.cut_millis = job.cut_millis;
  snapshot->stats.stall_millis = job.stall_millis;
  // Synchronous mode keeps build_millis' historical meaning (the whole
  // publication: cut + assembly); background mode reports the builder-thread
  // assembly alone — the ingest thread's share is cut_millis + stall_millis.
  const double assemble_millis = MillisSince(start);
  snapshot->stats.build_millis =
      background() ? assemble_millis : assemble_millis + job.cut_millis;
  if (slot_ != nullptr) {
    prev_ = slot_->Publish(std::move(snapshot));
  } else {
    snapshot->epoch = ++fallback_epoch_;
    prev_ = std::move(snapshot);
  }
  if (sink_) {
    sink_(prev_);
  }
}

}  // namespace focus::core
