#include "src/shm/epoch_plane.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <string_view>

#include "src/common/logging.h"
#include "src/storage/serializer.h"

namespace focus::shm {

namespace {

constexpr size_t kAlign = 64;

uint64_t AlignUp(uint64_t n) { return (n + kAlign - 1) & ~uint64_t{kAlign - 1}; }

uint32_t HeaderCrc(const ShmEpochHeader& header) {
  ShmEpochHeader copy = header;
  copy.header_crc = 0;
  return storage::Crc32(
      std::string_view(reinterpret_cast<const char*>(&copy), sizeof(copy)));
}

// Validates one header slot copy against the segment geometry. A slot being
// mid-write (torn) fails the CRC; a slot never written fails the magic.
bool ValidHeader(const ShmEpochHeader& header, size_t segment_bytes) {
  return header.magic == kShmMagic && header.generation != 0 &&
         header.region_index < kShmMaxRegions &&
         header.region_offset >= kShmDataOffset &&
         header.region_offset + header.payload_bytes <= segment_bytes &&
         header.header_crc == HeaderCrc(header);
}

runtime::MetricsRegistry* OrGlobal(runtime::MetricsRegistry* metrics) {
  return metrics != nullptr ? metrics : &runtime::GlobalMetrics();
}

}  // namespace

ShmPlaneStats StatsOf(const SharedSegment& segment) {
  const auto* control = reinterpret_cast<const ShmControl*>(segment.data());
  ShmPlaneStats stats;
  stats.published_generation = control->published_generation.load(std::memory_order_acquire);
  stats.epochs_published = control->epochs_published.load(std::memory_order_relaxed);
  stats.stale_pins_reclaimed =
      control->stale_pins_reclaimed.load(std::memory_order_relaxed);
  stats.reader_attaches = control->reader_attaches.load(std::memory_order_relaxed);
  stats.pin_violations = control->pin_violations.load(std::memory_order_relaxed);
  stats.regions_compacted = control->regions_compacted.load(std::memory_order_relaxed);
  stats.segment_bytes = segment.size();
  stats.arena_used_bytes = control->bump_top.load(std::memory_order_relaxed) - kShmDataOffset;
  const auto* slots =
      reinterpret_cast<const ShmReaderSlot*>(segment.bytes() + kShmControlBytes);
  for (uint32_t i = 0; i < kShmMaxReaders; ++i) {
    if (slots[i].pid.load(std::memory_order_relaxed) != 0) {
      ++stats.live_readers;
    }
  }
  return stats;
}

// --- EpochPublisher ---

common::Result<std::unique_ptr<EpochPublisher>> EpochPublisher::Create(
    const std::string& name, Options options, runtime::MetricsRegistry* metrics) {
  if (options.segment_bytes < kShmDataOffset + kAlign) {
    return common::Error{common::ErrorCode::kInvalidArgument, "shm segment too small"};
  }
  // A segment already at this name is either a live plane (another publisher
  // owns it — refuse; one writer per plane) or an orphan from an owner that
  // crashed or exited without unlinking. Orphans are reclaimed: readers must
  // never be handed a dead process's stale epochs as if they were fresh.
  {
    auto existing = SharedSegment::Open(name);
    if (existing.ok()) {
      if ((*existing)->size() >= kShmControlBytes) {
        const auto* control = reinterpret_cast<const ShmControl*>((*existing)->data());
        if (control->magic.load(std::memory_order_acquire) == kShmMagic) {
          const pid_t owner =
              static_cast<pid_t>(control->writer_pid.load(std::memory_order_relaxed));
          if (owner > 0 && (::kill(owner, 0) == 0 || errno == EPERM)) {
            return common::FailedPrecondition(
                "shm segment " + name + " is owned by live publisher pid " +
                std::to_string(owner));
          }
        }
      }
      OrGlobal(metrics)->IncrementCounter("shm.stale_segments_reclaimed");
    } else if (existing.error().code != common::ErrorCode::kNotFound) {
      // Exists but unmappable (e.g. never sized): also an orphan; Create
      // below unlinks and starts over.
      OrGlobal(metrics)->IncrementCounter("shm.stale_segments_reclaimed");
    }
  }
  auto segment = SharedSegment::Create(name, options.segment_bytes);
  if (!segment.ok()) {
    return segment.error();
  }
  auto publisher = std::unique_ptr<EpochPublisher>(
      new EpochPublisher(std::move(*segment), options, OrGlobal(metrics)));
  // The fresh mapping is zero pages; initialize the control block in place and
  // store the magic last so a racing attach never validates a half-built one.
  ShmControl* control = publisher->control();
  control->version = kShmVersion;
  control->max_readers = kShmMaxReaders;
  control->max_regions = kShmMaxRegions;
  control->bump_top.store(kShmDataOffset, std::memory_order_relaxed);
  control->writer_pid.store(static_cast<uint64_t>(::getpid()), std::memory_order_relaxed);
  control->magic.store(kShmMagic, std::memory_order_release);
  return publisher;
}

EpochPublisher::~EpochPublisher() {
  if (segment_ != nullptr) {
    control()->writer_pid.store(0, std::memory_order_relaxed);
    if (unlink_on_destroy_) {
      SharedSegment::Unlink(segment_->name());
    }
  }
}

ShmControl* EpochPublisher::control() const {
  return reinterpret_cast<ShmControl*>(segment_->data());
}

common::Result<uint32_t> EpochPublisher::ClaimRegion(uint64_t g, uint64_t need) {
  ShmControl* ctl = control();
  auto* slots = reinterpret_cast<ShmReaderSlot*>(segment_->bytes() + kShmControlBytes);
  const uint64_t active = ctl->published_generation.load(std::memory_order_relaxed);

  // Candidates: every region not backing the currently published generation
  // (new readers pin that one at any moment without any handshake), oldest
  // generation first so rotation is fair and forced eviction hits the least
  // recent epoch.
  std::vector<std::pair<uint64_t, uint32_t>> candidates;
  for (uint32_t r = 0; r < kShmMaxRegions; ++r) {
    const uint64_t og = ctl->regions[r].generation.load(std::memory_order_relaxed);
    if (og != active || og == 0) {
      candidates.emplace_back(og, r);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  FOCUS_CHECK(!candidates.empty());

  // Returns an abandoned span to the free-span table: coalesce to fixpoint
  // with adjacent free spans, hand the result back to the bump allocator when
  // it ends at bump_top, otherwise record it for reuse. On table overflow the
  // smallest span is dropped (leaked — the pre-v2 behavior, now bounded by
  // table pressure instead of hit on every growth).
  const auto release_span = [&](uint64_t offset, uint64_t bytes) {
    if (bytes == 0) {
      return;
    }
    bool merged = true;
    while (merged) {
      merged = false;
      for (uint32_t i = 0; i < ctl->free_span_count; ++i) {
        const uint64_t o = ctl->free_span_offset[i];
        const uint64_t b = ctl->free_span_bytes[i];
        if (o + b == offset || offset + bytes == o) {
          offset = std::min(offset, o);
          bytes += b;
          --ctl->free_span_count;
          ctl->free_span_offset[i] = ctl->free_span_offset[ctl->free_span_count];
          ctl->free_span_bytes[i] = ctl->free_span_bytes[ctl->free_span_count];
          merged = true;
          break;
        }
      }
    }
    if (offset + bytes == ctl->bump_top.load(std::memory_order_relaxed)) {
      ctl->bump_top.store(offset, std::memory_order_relaxed);
      ctl->regions_compacted.fetch_add(1, std::memory_order_relaxed);
      metrics_->IncrementCounter("shm.regions_compacted");
      return;
    }
    if (ctl->free_span_count < kShmMaxFreeSpans) {
      ctl->free_span_offset[ctl->free_span_count] = offset;
      ctl->free_span_bytes[ctl->free_span_count] = bytes;
      ++ctl->free_span_count;
      return;
    }
    uint32_t smallest = 0;
    for (uint32_t i = 1; i < kShmMaxFreeSpans; ++i) {
      if (ctl->free_span_bytes[i] < ctl->free_span_bytes[smallest]) {
        smallest = i;
      }
    }
    if (ctl->free_span_bytes[smallest] < bytes) {
      ctl->free_span_offset[smallest] = offset;
      ctl->free_span_bytes[smallest] = bytes;
    }
  };

  const auto ensure_capacity = [&](uint32_t r) -> bool {
    const uint64_t old_capacity = ctl->regions[r].capacity.load(std::memory_order_relaxed);
    if (old_capacity >= need) {
      return true;
    }
    // Re-point the region at a larger span. Readers locate payloads by the
    // absolute offset in the epoch header, never through the region
    // descriptor, so re-pointing is invisible to them. The old span is
    // released only after the new one is secured: on failure the caller
    // un-claims the region and its descriptor must stay valid.
    const uint64_t old_offset = ctl->regions[r].offset.load(std::memory_order_relaxed);
    uint64_t new_offset = 0;
    uint64_t new_capacity = 0;
    // Best fit from the free-span table first: reuse an abandoned span
    // instead of growing the arena.
    uint32_t best = kShmMaxFreeSpans;
    for (uint32_t i = 0; i < ctl->free_span_count; ++i) {
      if (ctl->free_span_bytes[i] >= AlignUp(need) &&
          (best == kShmMaxFreeSpans || ctl->free_span_bytes[i] < ctl->free_span_bytes[best])) {
        best = i;
      }
    }
    if (best != kShmMaxFreeSpans) {
      // Take the whole span as capacity (both ends stay 64 B aligned).
      new_offset = ctl->free_span_offset[best];
      new_capacity = ctl->free_span_bytes[best];
      --ctl->free_span_count;
      ctl->free_span_offset[best] = ctl->free_span_offset[ctl->free_span_count];
      ctl->free_span_bytes[best] = ctl->free_span_bytes[ctl->free_span_count];
      ctl->regions_compacted.fetch_add(1, std::memory_order_relaxed);
      metrics_->IncrementCounter("shm.regions_compacted");
    } else {
      const uint64_t top = AlignUp(ctl->bump_top.load(std::memory_order_relaxed));
      uint64_t capacity = std::max(AlignUp(need), old_capacity * 2);
      if (top + capacity > segment_->size()) {
        capacity = AlignUp(need);  // Doubling headroom no longer fits; take the minimum.
      }
      if (top + capacity > segment_->size()) {
        return false;
      }
      new_offset = top;
      new_capacity = capacity;
      ctl->bump_top.store(top + capacity, std::memory_order_relaxed);
    }
    ctl->regions[r].offset.store(new_offset, std::memory_order_relaxed);
    ctl->regions[r].capacity.store(new_capacity, std::memory_order_relaxed);
    release_span(old_offset, old_capacity);
    return true;
  };

  const auto pinned_by_live_reader = [&](uint64_t og) {
    if (og == 0) {
      return false;
    }
    for (uint32_t s = 0; s < kShmMaxReaders; ++s) {
      if (slots[s].pid.load(std::memory_order_seq_cst) != 0 &&
          slots[s].pinned_generation.load(std::memory_order_seq_cst) == og) {
        return true;
      }
    }
    return false;
  };

  bool arena_full = false;
  for (const auto& [og, r] : candidates) {
    // Claim first, scan second: the claim store and the reader's pin store are
    // both seq_cst, so either the reader's subsequent generation re-check sees
    // our claim or our pin scan sees its pin — never neither.
    ctl->regions[r].generation.store(g, std::memory_order_seq_cst);
    if (pinned_by_live_reader(og)) {
      ctl->regions[r].generation.store(og, std::memory_order_seq_cst);  // Un-claim.
      continue;
    }
    if (!ensure_capacity(r)) {
      ctl->regions[r].generation.store(og, std::memory_order_seq_cst);
      arena_full = true;
      continue;
    }
    return r;
  }
  if (arena_full) {
    return common::Error{common::ErrorCode::kOutOfRange,
                         "shm arena exhausted in " + segment_->name()};
  }
  // Every candidate region is pinned by a live reader. Ingest must not stall:
  // forcibly evict the oldest pinned epoch. Its readers detect the theft via
  // ShmEpochView::StillValid (the generation re-check) and discard the scan.
  const auto [og, r] = candidates.front();
  ctl->regions[r].generation.store(g, std::memory_order_seq_cst);
  if (!ensure_capacity(r)) {
    ctl->regions[r].generation.store(og, std::memory_order_seq_cst);
    return common::Error{common::ErrorCode::kOutOfRange,
                         "shm arena exhausted in " + segment_->name()};
  }
  ctl->pin_violations.fetch_add(1, std::memory_order_relaxed);
  metrics_->IncrementCounter("shm.pin_violations");
  return r;
}

common::Result<uint64_t> EpochPublisher::Publish(const core::LiveSnapshot& snapshot) {
  const auto start = std::chrono::steady_clock::now();
  ShmControl* ctl = control();
  auto* slots = reinterpret_cast<ShmReaderSlot*>(segment_->bytes() + kShmControlBytes);

  // Reclaim pins of dead readers first (kill(pid, 0) == ESRCH): a crashed or
  // SIGKILL'd worker can delay region reuse by at most one publish.
  for (uint32_t s = 0; s < kShmMaxReaders; ++s) {
    const uint64_t pid = slots[s].pid.load(std::memory_order_relaxed);
    if (pid != 0 && ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) {
      slots[s].pinned_generation.store(0, std::memory_order_seq_cst);
      slots[s].pid.store(0, std::memory_order_seq_cst);
      ctl->stale_pins_reclaimed.fetch_add(1, std::memory_order_relaxed);
      metrics_->IncrementCounter("shm.stale_pins_reclaimed");
    }
  }

  const std::span<const char> image = snapshot.index.view().bytes();
  ShmEpochHeader header;
  header.magic = kShmMagic;
  header.generation = ctl->published_generation.load(std::memory_order_relaxed) + 1;
  header.epoch = snapshot.epoch;
  header.watermark = snapshot.watermark;
  header.fps = snapshot.fps;
  header.detections = snapshot.detections;
  header.num_clusters = snapshot.num_clusters;
  header.entries_reused = snapshot.stats.entries_reused;
  header.entries_rebuilt = snapshot.stats.entries_rebuilt;
  header.build_millis = snapshot.stats.build_millis;
  header.payload_bytes = image.size();
  header.provenance = options_.provenance;

  auto region = ClaimRegion(header.generation, header.payload_bytes);
  if (!region.ok()) {
    return region.error();
  }
  header.region_index = *region;
  header.region_offset = ctl->regions[*region].offset.load(std::memory_order_relaxed);
  std::memcpy(segment_->bytes() + header.region_offset, image.data(), image.size());
  header.payload_crc = snapshot.index.view().crc();
  header.header_crc = HeaderCrc(header);

  // Ping-pong announce: write the alternate slot, then advance the published
  // generation. A reader that catches the slot mid-write fails its CRC and
  // falls back to the other slot's (previous) generation.
  char* slot = segment_->bytes() + kShmHeaderOffset +
               (header.generation % 2) * kShmHeaderSlotBytes;
  std::memcpy(slot, &header, sizeof(header));
  ctl->published_generation.store(header.generation, std::memory_order_seq_cst);
  ctl->epochs_published.fetch_add(1, std::memory_order_relaxed);

  const double millis =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  metrics_->IncrementCounter("shm.epochs_published");
  metrics_->Observe("shm.publish_millis", millis);
  metrics_->Observe("shm.payload_bytes", static_cast<double>(header.payload_bytes));
  metrics_->SetGauge("shm.published_generation", static_cast<double>(header.generation));
  metrics_->SetGauge("shm.arena_used_bytes",
                     static_cast<double>(ctl->bump_top.load(std::memory_order_relaxed) -
                                         kShmDataOffset));
  return header.generation;
}

ShmPlaneStats EpochPublisher::stats() const { return StatsOf(*segment_); }

// --- ShmSnapshotReader ---

common::Result<std::unique_ptr<ShmSnapshotReader>> ShmSnapshotReader::Attach(
    const std::string& name, runtime::MetricsRegistry* metrics) {
  auto segment = SharedSegment::Open(name);
  if (!segment.ok()) {
    return segment.error();
  }
  if ((*segment)->size() < kShmDataOffset) {
    return common::Error{common::ErrorCode::kDataLoss,
                         "shm segment " + name + " is too small to hold the plane"};
  }
  auto* control = reinterpret_cast<ShmControl*>((*segment)->data());
  if (control->magic.load(std::memory_order_acquire) != kShmMagic ||
      control->version != kShmVersion) {
    return common::Error{common::ErrorCode::kFailedPrecondition,
                         "shm segment " + name + " is not an initialized epoch plane"};
  }
  auto* slots = reinterpret_cast<ShmReaderSlot*>((*segment)->bytes() + kShmControlBytes);
  const uint64_t pid = static_cast<uint64_t>(::getpid());
  for (uint32_t s = 0; s < kShmMaxReaders; ++s) {
    uint64_t expected = 0;
    if (slots[s].pid.compare_exchange_strong(expected, pid, std::memory_order_seq_cst)) {
      slots[s].pinned_generation.store(0, std::memory_order_seq_cst);
      control->reader_attaches.fetch_add(1, std::memory_order_relaxed);
      runtime::MetricsRegistry* registry = OrGlobal(metrics);
      registry->IncrementCounter("shm.reader_attaches");
      return std::unique_ptr<ShmSnapshotReader>(
          new ShmSnapshotReader(std::move(*segment), s, registry));
    }
  }
  return common::Error{common::ErrorCode::kUnavailable,
                       "all " + std::to_string(kShmMaxReaders) + " reader slots of " + name +
                           " are claimed"};
}

ShmSnapshotReader::~ShmSnapshotReader() {
  if (segment_ != nullptr) {
    ShmReaderSlot* slot = reader_slot();
    slot->pinned_generation.store(0, std::memory_order_seq_cst);
    slot->pid.store(0, std::memory_order_seq_cst);
  }
}

ShmControl* ShmSnapshotReader::control() const {
  return reinterpret_cast<ShmControl*>(segment_->data());
}

ShmReaderSlot* ShmSnapshotReader::reader_slot() const {
  return reinterpret_cast<ShmReaderSlot*>(segment_->bytes() + kShmControlBytes) + slot_;
}

common::Result<ShmEpochHeader> ShmSnapshotReader::AdoptNewestHeader() const {
  ShmEpochHeader slots[2];
  std::memcpy(&slots[0], segment_->bytes() + kShmHeaderOffset, sizeof(slots[0]));
  std::memcpy(&slots[1], segment_->bytes() + kShmHeaderOffset + kShmHeaderSlotBytes,
              sizeof(slots[1]));
  // Higher generation first: the first CRC-valid slot is the newest valid one,
  // so the common case CRCs one header, not two.
  const int newer = slots[1].generation > slots[0].generation ? 1 : 0;
  for (const int s : {newer, 1 - newer}) {
    if (ValidHeader(slots[s], segment_->size())) {
      return slots[s];
    }
  }
  return common::Error{common::ErrorCode::kFailedPrecondition,
                       "no epoch published yet in " + segment_->name()};
}

common::Result<ShmEpochView> ShmSnapshotReader::Acquire() {
  FOCUS_CHECK(!view_outstanding_);  // One pin slot: release the view first.
  ShmReaderSlot* slot = reader_slot();
  std::optional<common::Error> last_error;  // The last image that failed to open.
  for (int attempt = 0; attempt < 64; ++attempt) {
    auto header = AdoptNewestHeader();
    if (!header.ok()) {
      return header.error();
    }
    const uint64_t g = header->generation;
    // Pin-then-verify: publish the pin, then re-check that the region still
    // holds this generation. If the writer claimed it in between, its pin
    // scan may have missed us — back off and re-adopt the newer epoch.
    slot->pinned_generation.store(g, std::memory_order_seq_cst);
    if (control()->regions[header->region_index].generation.load(std::memory_order_seq_cst) !=
        g) {
      slot->pinned_generation.store(0, std::memory_order_seq_cst);
      metrics_->IncrementCounter("shm.pin_retries");
      continue;
    }
    if (validated_generation_ != g) {
      // One image validation per freshly seen generation; every query against
      // the pinned view afterwards runs straight off the mapping. A failure
      // means a forced eviction beat our pin (or genuine corruption) — retry
      // on the newest.
      auto opened = index::IndexView::Open(std::span<const char>(
          segment_->bytes() + header->region_offset,
          static_cast<size_t>(header->payload_bytes)));
      if (!opened.ok() || opened->crc() != header->payload_crc) {
        last_error = opened.ok() ? common::DataLoss("shm image CRC differs from its header")
                                 : opened.error();
        slot->pinned_generation.store(0, std::memory_order_seq_cst);
        metrics_->IncrementCounter("shm.pin_retries");
        continue;
      }
      validated_generation_ = g;
      validated_index_ = *opened;
    }
    view_outstanding_ = true;
    metrics_->IncrementCounter("shm.epoch_pins");
    return ShmEpochView(this, *header, validated_index_);
  }
  if (last_error.has_value()) {
    return *last_error;
  }
  return common::Error{common::ErrorCode::kUnavailable,
                       "could not pin an epoch in " + segment_->name() +
                           " (publisher outpaced the reader)"};
}

common::Result<ShmModelProvenance> ShmSnapshotReader::Provenance() const {
  auto header = AdoptNewestHeader();
  if (!header.ok()) {
    return header.error();
  }
  return header->provenance;
}

void ShmSnapshotReader::Release(uint64_t generation) {
  (void)generation;
  reader_slot()->pinned_generation.store(0, std::memory_order_seq_cst);
  view_outstanding_ = false;
}

ShmPlaneStats ShmSnapshotReader::stats() const { return StatsOf(*segment_); }

// --- ShmEpochView ---

ShmEpochView::ShmEpochView(ShmEpochView&& other) noexcept
    : reader_(other.reader_), header_(other.header_), index_(other.index_) {
  other.reader_ = nullptr;
}

ShmEpochView& ShmEpochView::operator=(ShmEpochView&& other) noexcept {
  if (this != &other) {
    if (reader_ != nullptr) {
      reader_->Release(header_.generation);
    }
    reader_ = other.reader_;
    header_ = other.header_;
    index_ = other.index_;
    other.reader_ = nullptr;
  }
  return *this;
}

ShmEpochView::~ShmEpochView() {
  if (reader_ != nullptr) {
    reader_->Release(header_.generation);
  }
}

bool ShmEpochView::StillValid() const {
  return reader_ != nullptr &&
         reader_->control()->regions[header_.region_index].generation.load(
             std::memory_order_seq_cst) == header_.generation;
}

core::QueryPlan ShmEpochView::Plan(common::ClassId cls, int kx, common::TimeRange range,
                                   const cnn::Cnn& ingest_cnn) const {
  return core::QueryEngine(index_, &ingest_cnn, nullptr).Plan(cls, kx, range, header_.fps);
}

core::QueryResult ShmEpochView::Query(common::ClassId cls, int kx, common::TimeRange range,
                                      const cnn::Cnn& ingest_cnn,
                                      const cnn::Cnn& gt_cnn) const {
  return core::QueryEngine(index_, &ingest_cnn, &gt_cnn).Query(cls, kx, range, header_.fps);
}

common::Result<core::QueryResult> ShmEpochView::QueryChecked(
    common::ClassId cls, int kx, common::TimeRange range, const cnn::Cnn& ingest_cnn,
    const cnn::Cnn& gt_cnn) const {
  core::QueryResult result = Query(cls, kx, range, ingest_cnn, gt_cnn);
  // The pin protocol keeps the region stable while the view lives, except
  // under forced eviction (every region live-pinned). Re-checking after the
  // scan turns that one unsoundness window into a typed, retryable error.
  if (!StillValid()) {
    return common::Unavailable("epoch " + std::to_string(header_.epoch) + " (generation " +
                               std::to_string(header_.generation) +
                               ") was evicted mid-scan; re-acquire and retry");
  }
  return result;
}

}  // namespace focus::shm
