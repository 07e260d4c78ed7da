// Growable mmap-backed file arena for the centroid working set.
//
// CentroidStore's contiguous SoA arena is the state that makes queries cheap,
// but on the heap it is volatile: a crashed ingest worker re-runs the cheap CNN
// and re-clusters the whole backlog, and long retention windows are capped by
// RAM. ArenaFile maps the five store sections (centroid rows, head tile, norms,
// sizes, ids) as one file, so
//   - restart is an O(arena) page-in instead of an O(stream) replay, and
//   - arenas larger than RAM page instead of OOM (the staged scan touches a
//     small hot subset; the OS keeps cold rows on disk).
// The mapped sections are plain contiguous memory, so the SIMD scan kernels run
// on them unchanged.
//
// File layout (little-endian; section byte offsets are recorded in the
// header, initially packed in this order):
//
//   [header slot A: kHeaderSlotBytes]   magic, version, dim, head_dim,
//   [header slot B: kHeaderSlotBytes]   capacity_rows, committed_rows,
//                                       generation, file_bytes,
//                                       section offsets, crc32
//   [arena  : capacity_rows * dim       f32]   (64-byte aligned starts)
//   [head   : capacity_rows * head_dim  f32]
//   [norms  : capacity_rows             f32]
//   [sizes  : capacity_rows             i64]
//   [ids    : capacity_rows             i64]
//
// Growth (amortized doubling) appends a fresh copy of every section beyond
// the current end of file and republishes the header with the new offsets:
// nothing the old header describes is overwritten, so a crash at any point
// during growth recovers through whichever header is durable. The abandoned
// old regions cost at most one extra copy of the final sections (geometric
// series) — the same slack order as the capacity doubling itself.
//
// Durability contract (the record_log discipline applied to a mapped file):
//   - Mutations write through the mapping; the OS may flush pages at any time,
//     so between checkpoints the on-disk rows are torn (mixed old/new).
//   - Commit(rows) is the checkpoint barrier: msync the data sections, then
//     publish {generation + 1, rows} through the *inactive* header slot
//     (ping-pong) and msync it. A torn header write leaves the other slot
//     valid; Open adopts the valid slot with the highest generation.
//   - Rows at index >= committed_rows are an uncommitted tail: recovery drops
//     them (the torn-tail truncation of record_log, by row count).
//   - Rows at index < committed_rows mutated after the checkpoint are restored
//     from an undo log of pre-images (ArenaUndo records appended to a
//     RecordLogWriter *before* the row is overwritten — write-ahead undo).
//     RollBackTo() replays pre-images in reverse to return the mapping to the
//     checkpointed generation exactly.
//
// See docs/persistence.md for the full checkpoint/recovery protocol the
// clusterer layers on top.
#ifndef FOCUS_SRC_STORAGE_ARENA_FILE_H_
#define FOCUS_SRC_STORAGE_ARENA_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace focus::storage {

// One undo-log record: either a checkpoint marker (generation + row count at
// the commit) or the pre-image of one row about to be overwritten. The head-
// tile row is not stored — it is the first head_dim floats of the centroid.
struct ArenaUndo {
  enum class Kind : uint8_t { kMarker = 1, kRow = 2 };

  Kind kind = Kind::kMarker;
  // kMarker: the just-committed generation and its committed row count.
  uint64_t generation = 0;
  uint64_t rows = 0;
  // kRow: pre-image of row |row| (id/size/norm plus the full centroid).
  uint64_t row = 0;
  int64_t id = 0;
  int64_t size = 0;
  float norm = 0.0f;
  std::vector<float> centroid;

  std::string Encode() const;
  static bool Decode(std::string_view bytes, ArenaUndo* out);
};

class ArenaFile {
 public:
  // Opens (or creates) the arena at |path|. A fresh or empty file starts
  // uninitialized (dim() == 0) at generation 0; Initialize() fixes the shape.
  // An existing file is validated (magic/version/header CRC, both slots) and
  // mapped at its newest committed generation.
  static common::Result<std::unique_ptr<ArenaFile>> Open(const std::string& path);

  ~ArenaFile();

  ArenaFile(const ArenaFile&) = delete;
  ArenaFile& operator=(const ArenaFile&) = delete;

  // Fixes dim/head_dim and maps an initial empty capacity. Only valid while
  // uninitialized.
  common::Result<bool> Initialize(size_t dim, size_t head_dim);

  bool initialized() const { return dim_ > 0; }
  // Whether the file is currently mapped. A failed Reserve can leave the file
  // unmapped (mmap failure after the old mapping was released); callers that
  // want to salvage the in-memory contents must check this first.
  bool mapped() const { return map_ != nullptr; }
  size_t dim() const { return dim_; }
  size_t head_dim() const { return head_dim_; }
  uint64_t capacity_rows() const { return capacity_rows_; }
  uint64_t committed_rows() const { return committed_rows_; }
  uint64_t generation() const { return generation_; }
  const std::string& path() const { return path_; }

  // Ensures capacity for |rows| rows, growing the file (amortized doubling)
  // and remapping when needed. Growth moves sections, so all section pointers
  // are invalidated; callers must re-read them after any Reserve.
  common::Result<bool> Reserve(uint64_t rows);

  // Section base pointers, valid until the next Reserve. Writes go straight to
  // the page cache (and eventually disk); Commit makes them durable.
  float* arena() { return arena_base_; }
  float* head() { return head_base_; }
  float* norms() { return norms_base_; }
  int64_t* sizes() { return sizes_base_; }
  int64_t* ids() { return ids_base_; }
  const float* arena() const { return arena_base_; }
  const float* head() const { return head_base_; }
  const float* norms() const { return norms_base_; }
  const int64_t* sizes() const { return sizes_base_; }
  const int64_t* ids() const { return ids_base_; }

  // Checkpoint barrier: msync the data sections, then publish
  // {generation + 1, rows} through the inactive header slot and msync it.
  // Returns the new generation. Safe to retry after a failure: the active slot only
  // advances on success, so a torn inactive-slot write is simply rewritten,
  // and skipped generations are harmless (Open adopts the highest).
  common::Result<uint64_t> Commit(uint64_t rows);

  // Restores the mapping to the checkpoint with generation |generation| using
  // the undo records of |log| (as returned by ReadRecordLog on the undo log):
  // applies, in reverse order, every row pre-image recorded after the last
  // kMarker with that generation — i.e. undoes all mutations of the crashed
  // window — and adopts the marker's row count as committed_rows. With no
  // matching marker, no mutations happened after that checkpoint and only the
  // row count is restored (from the header when it already matches, otherwise
  // fails). Idempotent: pre-images are absolute row contents. generation()
  // keeps the header's (possibly higher) value so the caller's immediate
  // re-commit publishes a generation above every slot on disk. Returns true
  // when anything had to be undone (row pre-images applied, the header was
  // ahead of the target, or the window marker itself is missing and must be
  // re-established) — false means the on-disk state already *was* the
  // checkpoint with an intact window marker, and the caller may skip its
  // re-seal.
  common::Result<bool> RollBackTo(uint64_t generation,
                                  const std::vector<std::string>& log_records);

  // Writes one row's content (centroid + derived head prefix + norm/size/id).
  // Used by RollBackTo and by the store's mutation paths.
  void WriteRow(uint64_t row, int64_t id, int64_t size, float norm, const float* centroid);

  // Header-slot size; slot B starts at this offset, data at twice it.
  static constexpr size_t kHeaderSlotBytes = 4096;

 private:
  ArenaFile() = default;

  common::Result<bool> MapBytes(size_t bytes);
  common::Result<bool> WriteHeaderSlot(int slot);
  void ComputeSectionPointers();

  std::string path_;
  int fd_ = -1;
  uint8_t* map_ = nullptr;
  size_t map_bytes_ = 0;

  size_t dim_ = 0;
  size_t head_dim_ = 0;
  uint64_t capacity_rows_ = 0;
  uint64_t committed_rows_ = 0;
  uint64_t generation_ = 0;
  int active_slot_ = 0;  // Slot holding the newest committed header.
  // Section byte offsets (header-recorded; growth relocates sections into
  // fresh space beyond the old file end, leaving the old header's layout
  // valid until the new one is published).
  size_t arena_off_ = 0;
  size_t head_off_ = 0;
  size_t norms_off_ = 0;
  size_t sizes_off_ = 0;
  size_t ids_off_ = 0;

  float* arena_base_ = nullptr;
  float* head_base_ = nullptr;
  float* norms_base_ = nullptr;
  int64_t* sizes_base_ = nullptr;
  int64_t* ids_base_ = nullptr;
};

// Opens the arena at |arena_path| and restores the checkpoint |generation|
// that the caller's meta snapshot committed: rolls post-checkpoint row
// mutations back via the undo log at |undo_path|. Generation 0 (the committed
// state is empty) treats a torn or unopenable arena as disposable and
// recreates it. *needs_reseal is set when anything had to be repaired — or
// the undo window marker must be re-established — and the caller must publish
// a fresh checkpoint before mutating; false means the on-disk state already
// was the checkpoint (clean restart fast path). ShardedClusterer recovery
// calls it once per shard.
common::Result<std::unique_ptr<ArenaFile>> OpenArenaAtCheckpoint(
    const std::string& arena_path, const std::string& undo_path, uint64_t generation,
    bool* needs_reseal);

}  // namespace focus::storage

#endif  // FOCUS_SRC_STORAGE_ARENA_FILE_H_
