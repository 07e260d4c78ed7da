// The shared-memory epoch plane: zero-copy multi-process serving of live
// snapshots (docs/shm_serving.md).
//
// Live query-over-ingest publishes each epoch as an in-process LiveSnapshot
// through an RCU SnapshotSlot; this plane carries that contract across a
// process boundary. The ingest process owns an EpochPublisher: every published
// snapshot's index image (src/index/topk_index.h) — the very bytes the
// in-process snapshot owns — is copied with one memcpy into a region of a
// named POSIX shm segment and announced through the same
// generation/CRC ping-pong header protocol the mmap arena uses
// (src/storage/arena_file.h): two 4 KiB header slots, writer alternates,
// readers adopt the highest CRC-valid generation, so a torn header falls back
// to the previous epoch instead of ever being believed.
//
// Independent query-worker *processes* attach a ShmSnapshotReader and pin
// epochs with a futex-free cross-process reference count: each reader owns one
// slot {pid, pinned_generation}; pinning is a store of the generation followed
// by a re-check that the backing region still holds it, while the writer
// claims a region (stores the new generation into its descriptor) *before*
// scanning the pin slots — a seq_cst store/load pair on each side, so at least
// one of writer and reader always sees the other (the classic Dekker
// handshake) and a pinned epoch's bytes are never overwritten. A reader that
// dies holding a pin is reclaimed by the publisher via kill(pid, 0) == ESRCH
// on the next publish — a crashed worker can delay region reuse by at most one
// epoch and can never stall ingest.
//
// Queries run straight off the mapped image: each reader validates a new
// generation's image once (index::IndexView::Open, which also checks the
// image CRC the header announces), and ShmEpochView plans and resolves
// through the same core::QueryEngine the in-process path uses, over a view of
// the mapping — class postings included, so no query path rebuilds them. A
// query answered from the mapping in another process is therefore
// byte-identical to the in-process snapshot query against the same epoch
// (tests/shm_serving_test.cc holds this as a property across advancing epochs)
// at in-process query cost: nothing is serialized or copied per query.
#ifndef FOCUS_SRC_SHM_EPOCH_PLANE_H_
#define FOCUS_SRC_SHM_EPOCH_PLANE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/cnn/cnn.h"
#include "src/common/result.h"
#include "src/common/time_types.h"
#include "src/core/live_snapshot.h"
#include "src/core/query_engine.h"
#include "src/index/topk_index.h"
#include "src/runtime/metrics.h"
#include "src/shm/shm_segment.h"

namespace focus::shm {

// --- Segment layout (all offsets fixed at creation) ---
//
//   [ ShmControl     4096 B ]  magic/version, bump allocator, region table, stats
//   [ ReaderSlot[64] 4096 B ]  one {pid, pinned_generation} slot per reader
//   [ header slot A  4096 B ]  ShmEpochHeader, even generations
//   [ header slot B  4096 B ]  ShmEpochHeader, odd generations
//   [ data regions   ...    ]  append-only bump allocations, 64 B aligned

inline constexpr uint64_t kShmMagic = 0x464F435553534D31ULL;  // "FOCUSSM1"
// v2: ShmControl grew the free-span table (abandoned region spans are
// compacted and reused instead of leaked). v3: a region holds the epoch's
// index image (postings included, no centroid appearance section). Readers
// refuse other versions.
inline constexpr uint32_t kShmVersion = 3;
inline constexpr size_t kShmControlBytes = 4096;
inline constexpr size_t kShmReaderSlotsBytes = 4096;
inline constexpr size_t kShmHeaderSlotBytes = 4096;
inline constexpr size_t kShmHeaderOffset = kShmControlBytes + kShmReaderSlotsBytes;
inline constexpr size_t kShmDataOffset = kShmHeaderOffset + 2 * kShmHeaderSlotBytes;
inline constexpr uint32_t kShmMaxReaders = 64;
inline constexpr uint32_t kShmMaxRegions = 8;
inline constexpr uint32_t kShmMaxFreeSpans = 16;
inline constexpr size_t kShmDefaultSegmentBytes = size_t{256} << 20;  // Virtual; lazy pages.

// One data region: a bump-allocated span holding the index image of exactly
// one generation at a time. The publisher rotates generations across regions and
// re-points a region at a larger span when a payload outgrows it; the old
// span goes to the control block's free-span table and is reused (compacted)
// by later growths instead of leaking inside the fixed arena.
struct ShmRegionDesc {
  std::atomic<uint64_t> offset{0};    // Absolute byte offset into the segment.
  std::atomic<uint64_t> capacity{0};  // Bytes reserved at |offset|.
  // Generation whose payload the region holds; the writer's claim — storing
  // the NEW generation here before scanning pins — is half the handshake.
  std::atomic<uint64_t> generation{0};
};

// One attached reader process. |pid| claims the slot (CAS 0 -> getpid());
// |pinned_generation| != 0 protects that generation's region from reuse.
struct ShmReaderSlot {
  std::atomic<uint64_t> pid{0};
  std::atomic<uint64_t> pinned_generation{0};
};

// Plane control block at offset 0. |magic| is stored last at creation, so a
// reader racing a creator never validates a half-initialized block.
struct ShmControl {
  std::atomic<uint64_t> magic{0};
  uint32_t version = 0;
  uint32_t max_readers = 0;
  uint32_t max_regions = 0;
  uint32_t reserved = 0;
  std::atomic<uint64_t> bump_top{0};  // Next free arena byte (absolute offset).
  std::atomic<uint64_t> published_generation{0};
  std::atomic<uint64_t> writer_pid{0};
  // Plane-wide stats, readable by any attached process.
  std::atomic<uint64_t> epochs_published{0};
  std::atomic<uint64_t> stale_pins_reclaimed{0};
  std::atomic<uint64_t> reader_attaches{0};
  std::atomic<uint64_t> pin_violations{0};  // Forced evictions of a live pin.
  // Abandoned spans reused or returned to the bump allocator instead of
  // leaked (one count per region growth served from the free-span table or
  // coalesced back into bump_top).
  std::atomic<uint64_t> regions_compacted{0};
  ShmRegionDesc regions[kShmMaxRegions];
  // Free-span table: spans abandoned when a region outgrew its allocation,
  // kept for reuse. Writer-private — only the (single-threaded) publisher
  // reads or writes these, and readers locate payloads by absolute offsets in
  // epoch headers, never through this table — so plain fields are safe.
  uint32_t free_span_count = 0;
  uint32_t free_reserved = 0;
  uint64_t free_span_offset[kShmMaxFreeSpans] = {};
  uint64_t free_span_bytes[kShmMaxFreeSpans] = {};
};

// Model provenance carried in every epoch header, so a cold process (the
// focus_shm_query CLI) can rebuild the exact catalog and CNNs from seeds alone
// and answer without any out-of-band configuration.
struct ShmModelProvenance {
  uint64_t world_seed = 0;
  uint64_t cheap_weights_seed = 0;
  uint32_t cheap_candidate_index = 0;  // Into cnn::GenericCheapCandidates.
  uint64_t gt_weights_seed = 0;
};

// The per-epoch header written into the ping-pong slots. POD; CRC'd twice:
// |payload_crc| is the image's own CRC (index::ImageHeader::crc, checked once
// per epoch by each reader), |header_crc| covers this struct with the field
// itself zeroed.
struct ShmEpochHeader {
  uint64_t magic = 0;
  uint64_t generation = 0;
  uint64_t epoch = 0;
  int64_t watermark = 0;
  double fps = 0.0;
  int64_t detections = 0;
  int64_t num_clusters = 0;
  int64_t entries_reused = 0;
  int64_t entries_rebuilt = 0;
  double build_millis = 0.0;
  uint32_t region_index = 0;
  uint32_t reserved = 0;
  uint64_t region_offset = 0;  // Absolute image offset.
  uint64_t payload_bytes = 0;  // Image length.
  ShmModelProvenance provenance;
  uint32_t payload_crc = 0;
  uint32_t header_crc = 0;
};
static_assert(sizeof(ShmEpochHeader) <= kShmHeaderSlotBytes);
static_assert(sizeof(ShmControl) <= kShmControlBytes);
static_assert(kShmMaxReaders * sizeof(ShmReaderSlot) <= kShmReaderSlotsBytes);

// Plane-wide accounting, readable from either side.
struct ShmPlaneStats {
  uint64_t published_generation = 0;
  uint64_t epochs_published = 0;
  uint64_t stale_pins_reclaimed = 0;
  uint64_t reader_attaches = 0;
  uint64_t pin_violations = 0;
  uint64_t regions_compacted = 0;  // Abandoned spans reused instead of leaked.
  uint64_t live_readers = 0;  // Slots with a claimed pid.
  uint64_t segment_bytes = 0;
  uint64_t arena_used_bytes = 0;  // Bump-allocated so far.
};

class ShmSnapshotReader;

// A pinned, validated epoch mapped into this process. Movable RAII: the pin is
// released on destruction. Queries run through core::QueryEngine over the
// view of the mapped image; no serialization happens on this path and the
// view holds no mutable state, so any number of threads may query it.
class ShmEpochView {
 public:
  ShmEpochView(ShmEpochView&& other) noexcept;
  ShmEpochView& operator=(ShmEpochView&& other) noexcept;
  ShmEpochView(const ShmEpochView&) = delete;
  ShmEpochView& operator=(const ShmEpochView&) = delete;
  ~ShmEpochView();

  uint64_t generation() const { return header_.generation; }
  uint64_t epoch() const { return header_.epoch; }
  common::FrameIndex watermark() const { return header_.watermark; }
  double fps() const { return header_.fps; }
  int64_t detections() const { return header_.detections; }
  uint64_t num_clusters() const { return index_.num_clusters(); }
  const ShmEpochHeader& header() const { return header_; }
  // The mapped image.
  const index::IndexView& index() const { return index_; }

  // Whether the pinned region still holds this generation. The pin protocol
  // guarantees it does as long as the view lives — unless the publisher was
  // forced to evict a live pin (all regions pinned; counted as a
  // pin_violation), in which case the query's result must be discarded.
  bool StillValid() const;

  // QT1/QT2 off the mapping: core::QueryEngine::Plan over index(), with this
  // epoch's fps for the range-to-frame mapping.
  core::QueryPlan Plan(common::ClassId cls, int kx, common::TimeRange range,
                       const cnn::Cnn& ingest_cnn) const;

  // core::QueryEngine::Query over index(). Byte-identical to the query
  // against the in-process snapshot of this epoch.
  core::QueryResult Query(common::ClassId cls, int kx, common::TimeRange range,
                          const cnn::Cnn& ingest_cnn, const cnn::Cnn& gt_cnn) const;

  // Query with the eviction check folded in: re-checks StillValid() *after*
  // the query and returns a typed kUnavailable instead of a result computed
  // from bytes the publisher may have overwritten (forced eviction of a live
  // pin). The RPC worker path uses this so an evicted pin surfaces as a typed
  // error across the process boundary instead of a silently wrong answer.
  common::Result<core::QueryResult> QueryChecked(common::ClassId cls, int kx,
                                                 common::TimeRange range,
                                                 const cnn::Cnn& ingest_cnn,
                                                 const cnn::Cnn& gt_cnn) const;

 private:
  friend class ShmSnapshotReader;
  ShmEpochView(ShmSnapshotReader* reader, ShmEpochHeader header, index::IndexView index)
      : reader_(reader), header_(header), index_(index) {}

  ShmSnapshotReader* reader_ = nullptr;  // Null after move/release.
  ShmEpochHeader header_;
  index::IndexView index_;
};

// The ingest-side publisher. Single-owner, single-threaded (call Publish from
// the snapshot sink); creates the segment and holds the writer role.
class EpochPublisher {
 public:
  struct Options {
    size_t segment_bytes = kShmDefaultSegmentBytes;
    ShmModelProvenance provenance;
  };

  // Creates segment |name| and initializes the plane. A leftover segment from
  // a *dead* owner (publisher crashed before unlinking: valid magic but
  // writer_pid exited, or unrecognizable bytes) is reclaimed — unlinked and
  // recreated fresh, counted in shm.stale_segments_reclaimed — so a restarted
  // ingest process never fails on its own corpse or serves its stale epochs.
  // A segment whose writer_pid is still alive is refused with
  // kFailedPrecondition (one writer per plane). |metrics| may be null
  // (process-global registry).
  static common::Result<std::unique_ptr<EpochPublisher>> Create(
      const std::string& name, Options options, runtime::MetricsRegistry* metrics = nullptr);
  static common::Result<std::unique_ptr<EpochPublisher>> Create(const std::string& name) {
    return Create(name, Options());
  }

  ~EpochPublisher();

  EpochPublisher(const EpochPublisher&) = delete;
  EpochPublisher& operator=(const EpochPublisher&) = delete;

  // Copies |snapshot|'s index image into a region and announces it as the
  // next generation.
  // Reclaims dead readers' pins first; never blocks on a live reader (a fully
  // pinned plane forcibly evicts the oldest pinned region and counts a
  // pin_violation — the evicted reader detects it via StillValid). Errors only
  // on arena exhaustion (kOutOfRange) — ingest keeps running either way.
  common::Result<uint64_t> Publish(const core::LiveSnapshot& snapshot);

  ShmPlaneStats stats() const;
  const std::string& name() const { return segment_->name(); }

  // Removes the segment name from the namespace (attached readers keep their
  // mappings until they detach).
  void UnlinkOnDestroy(bool unlink) { unlink_on_destroy_ = unlink; }

 private:
  EpochPublisher(std::unique_ptr<SharedSegment> segment, Options options,
                 runtime::MetricsRegistry* metrics)
      : segment_(std::move(segment)), options_(options), metrics_(metrics) {}

  ShmControl* control() const;

  // Picks (claim-then-scan) a region for generation |g| with >= |need| bytes,
  // growing via the bump allocator when necessary. Returns the region index
  // or kOutOfRange.
  common::Result<uint32_t> ClaimRegion(uint64_t g, uint64_t need);

  std::unique_ptr<SharedSegment> segment_;
  Options options_;
  runtime::MetricsRegistry* metrics_;
  bool unlink_on_destroy_ = false;
};

// A query-side attach: claims one reader slot in the plane. One process may
// hold several readers; each reader pins at most one epoch at a time.
class ShmSnapshotReader {
 public:
  // Attaches to segment |name| and claims a reader slot. |metrics| may be
  // null (process-global registry).
  static common::Result<std::unique_ptr<ShmSnapshotReader>> Attach(
      const std::string& name, runtime::MetricsRegistry* metrics = nullptr);

  ~ShmSnapshotReader();

  ShmSnapshotReader(const ShmSnapshotReader&) = delete;
  ShmSnapshotReader& operator=(const ShmSnapshotReader&) = delete;

  // Pins and validates the newest published epoch: adopt the highest
  // CRC-valid header, store the pin, re-check the region generation (retry if
  // the writer won the race), then open the image (index::IndexView::Open:
  // CRC and structure) once per new generation and match its CRC to the
  // header's. kFailedPrecondition before the first epoch; kUnavailable if the
  // plane outpaces the reader past the retry budget, or kDataLoss when the
  // image never validates.
  common::Result<ShmEpochView> Acquire();

  // Provenance of the newest valid header (for cold-process model rebuild).
  common::Result<ShmModelProvenance> Provenance() const;

  ShmPlaneStats stats() const;
  const std::string& name() const { return segment_->name(); }

 private:
  friend class ShmEpochView;

  ShmSnapshotReader(std::unique_ptr<SharedSegment> segment, uint32_t slot,
                    runtime::MetricsRegistry* metrics)
      : segment_(std::move(segment)), slot_(slot), metrics_(metrics) {}

  ShmControl* control() const;
  ShmReaderSlot* reader_slot() const;

  // Reads both header slots and returns the highest CRC-valid one (torn-write
  // fallback), or kFailedPrecondition when neither validates.
  common::Result<ShmEpochHeader> AdoptNewestHeader() const;

  void Release(uint64_t generation);

  std::unique_ptr<SharedSegment> segment_;
  uint32_t slot_ = 0;
  runtime::MetricsRegistry* metrics_;
  bool view_outstanding_ = false;
  uint64_t validated_generation_ = 0;  // Generation whose image is opened...
  index::IndexView validated_index_;   // ...and that image.
};

// Plane stats for any attached segment (publisher- or reader-side object).
ShmPlaneStats StatsOf(const SharedSegment& segment);

}  // namespace focus::shm

#endif  // FOCUS_SRC_SHM_EPOCH_PLANE_H_
