#include "src/storage/arena_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "src/common/fault_injection.h"
#include "src/storage/record_log.h"
#include "src/storage/serializer.h"

namespace focus::storage {

namespace {

constexpr uint64_t kMagic = 0x414E4552'41434F46ULL;  // "FOCARENA" little-endian.
constexpr uint32_t kVersion = 1;
constexpr uint64_t kMinCapacityRows = 64;
constexpr size_t kSectionAlign = 64;  // SIMD-friendly section starts.

size_t AlignUp(size_t n, size_t align) { return (n + align - 1) / align * align; }

common::Error Errno(const std::string& what, const std::string& path) {
  return common::Error{common::ErrorCode::kIo, what + ": " + path + ": " + std::strerror(errno)};
}

// Fixed-size header image serialized into a slot. The CRC covers every field
// before it, so a torn slot write is detected and the other slot adopted.
// Section offsets are stored explicitly (not derived from the capacity):
// growth relocates sections into fresh space beyond the old file end, and the
// old header's offsets must keep describing valid bytes until the new header
// is published — that is what makes a crash mid-growth recoverable.
struct HeaderImage {
  uint32_t dim = 0;
  uint32_t head_dim = 0;
  uint64_t capacity_rows = 0;
  uint64_t committed_rows = 0;
  uint64_t generation = 0;
  uint64_t file_bytes = 0;
  uint64_t arena_off = 0;
  uint64_t head_off = 0;
  uint64_t norms_off = 0;
  uint64_t sizes_off = 0;
  uint64_t ids_off = 0;

  std::string Encode() const {
    Encoder enc;
    enc.PutU64(kMagic);
    enc.PutU32(kVersion);
    enc.PutU32(dim);
    enc.PutU32(head_dim);
    enc.PutU64(capacity_rows);
    enc.PutU64(committed_rows);
    enc.PutU64(generation);
    enc.PutU64(file_bytes);
    enc.PutU64(arena_off);
    enc.PutU64(head_off);
    enc.PutU64(norms_off);
    enc.PutU64(sizes_off);
    enc.PutU64(ids_off);
    std::string bytes = enc.TakeBytes();
    Encoder crc;
    crc.PutU32(Crc32(bytes));
    return bytes + crc.bytes();
  }

  static bool Decode(std::string_view slot, HeaderImage* out) {
    Decoder dec(slot);
    uint64_t magic = 0;
    uint32_t version = 0;
    if (!dec.GetU64(&magic) || magic != kMagic || !dec.GetU32(&version) ||
        version != kVersion) {
      return false;
    }
    if (!dec.GetU32(&out->dim) || !dec.GetU32(&out->head_dim) ||
        !dec.GetU64(&out->capacity_rows) || !dec.GetU64(&out->committed_rows) ||
        !dec.GetU64(&out->generation) || !dec.GetU64(&out->file_bytes) ||
        !dec.GetU64(&out->arena_off) || !dec.GetU64(&out->head_off) ||
        !dec.GetU64(&out->norms_off) || !dec.GetU64(&out->sizes_off) ||
        !dec.GetU64(&out->ids_off)) {
      return false;
    }
    const size_t payload_end = dec.offset();
    uint32_t crc = 0;
    if (!dec.GetU32(&crc)) {
      return false;
    }
    return Crc32(slot.substr(0, payload_end)) == crc;
  }
};

}  // namespace

std::string ArenaUndo::Encode() const {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(kind));
  if (kind == Kind::kMarker) {
    enc.PutU64(generation);
    enc.PutU64(rows);
    return enc.TakeBytes();
  }
  enc.PutU64(row);
  enc.PutSignedVarint(id);
  enc.PutSignedVarint(size);
  enc.PutFloat(norm);
  enc.PutVarint(centroid.size());
  for (float v : centroid) {
    enc.PutFloat(v);
  }
  return enc.TakeBytes();
}

bool ArenaUndo::Decode(std::string_view bytes, ArenaUndo* out) {
  Decoder dec(bytes);
  uint8_t kind = 0;
  if (!dec.GetU8(&kind)) {
    return false;
  }
  if (kind == static_cast<uint8_t>(Kind::kMarker)) {
    out->kind = Kind::kMarker;
    return dec.GetU64(&out->generation) && dec.GetU64(&out->rows) && dec.Done();
  }
  if (kind != static_cast<uint8_t>(Kind::kRow)) {
    return false;
  }
  out->kind = Kind::kRow;
  uint64_t dim = 0;
  // Divide instead of multiplying: dim * sizeof(float) can wrap for a corrupt
  // length, and the guard exists precisely to reject those before resize.
  if (!dec.GetU64(&out->row) || !dec.GetSignedVarint(&out->id) ||
      !dec.GetSignedVarint(&out->size) || !dec.GetFloat(&out->norm) ||
      !dec.GetVarint(&dim) || dim > dec.remaining() / sizeof(float)) {
    return false;
  }
  out->centroid.resize(static_cast<size_t>(dim));
  for (size_t i = 0; i < out->centroid.size(); ++i) {
    if (!dec.GetFloat(&out->centroid[i])) {
      return false;
    }
  }
  return dec.Done();
}

common::Result<std::unique_ptr<ArenaFile>> ArenaFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Errno("arena open", path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Errno("arena stat", path);
  }

  std::unique_ptr<ArenaFile> file(new ArenaFile());
  file->path_ = path;
  file->fd_ = fd;
  if (st.st_size < static_cast<off_t>(2 * kHeaderSlotBytes)) {
    // Fresh (or never-initialized) file: shape fixed later by Initialize().
    return file;
  }

  // Validate both header slots and adopt the newest committed one.
  char slots[2 * kHeaderSlotBytes];
  if (::pread(fd, slots, sizeof(slots), 0) != static_cast<ssize_t>(sizeof(slots))) {
    return Errno("arena header read", path);
  }
  HeaderImage header;
  int active = -1;
  for (int s = 0; s < 2; ++s) {
    HeaderImage candidate;
    if (HeaderImage::Decode(std::string_view(slots + s * kHeaderSlotBytes, kHeaderSlotBytes),
                            &candidate) &&
        (active < 0 || candidate.generation > header.generation)) {
      header = candidate;
      active = s;
    }
  }
  if (active < 0) {
    return common::Error{common::ErrorCode::kIo, "arena header corrupt (both slots): " + path};
  }
  const uint64_t rows = header.capacity_rows;
  if (header.dim == 0 || header.head_dim == 0 || header.head_dim > header.dim ||
      header.committed_rows > rows ||
      header.arena_off + rows * header.dim * sizeof(float) > header.file_bytes ||
      header.head_off + rows * header.head_dim * sizeof(float) > header.file_bytes ||
      header.norms_off + rows * sizeof(float) > header.file_bytes ||
      header.sizes_off + rows * sizeof(int64_t) > header.file_bytes ||
      header.ids_off + rows * sizeof(int64_t) > header.file_bytes) {
    return common::Error{common::ErrorCode::kIo, "arena header invalid: " + path};
  }
  file->dim_ = header.dim;
  file->head_dim_ = header.head_dim;
  file->capacity_rows_ = rows;
  file->committed_rows_ = header.committed_rows;
  file->generation_ = header.generation;
  file->active_slot_ = active;
  file->arena_off_ = header.arena_off;
  file->head_off_ = header.head_off;
  file->norms_off_ = header.norms_off;
  file->sizes_off_ = header.sizes_off;
  file->ids_off_ = header.ids_off;
  if (auto mapped = file->MapBytes(header.file_bytes); !mapped.ok()) {
    return mapped.error();
  }
  return file;
}

ArenaFile::~ArenaFile() {
  if (map_ != nullptr) {
    ::munmap(map_, map_bytes_);
  }
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void ArenaFile::ComputeSectionPointers() {
  arena_base_ = reinterpret_cast<float*>(map_ + arena_off_);
  head_base_ = reinterpret_cast<float*>(map_ + head_off_);
  norms_base_ = reinterpret_cast<float*>(map_ + norms_off_);
  sizes_base_ = reinterpret_cast<int64_t*>(map_ + sizes_off_);
  ids_base_ = reinterpret_cast<int64_t*>(map_ + ids_off_);
}

common::Result<bool> ArenaFile::MapBytes(size_t bytes) {
  if (common::FaultPoint("arena.truncate")) {
    return common::Unavailable("injected arena.truncate failure: " + path_);
  }
  if (::ftruncate(fd_, static_cast<off_t>(bytes)) != 0) {
    return Errno("arena truncate", path_);
  }
  if (map_ != nullptr) {
    ::munmap(map_, map_bytes_);
    map_ = nullptr;
  }
  void* map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  if (map == MAP_FAILED) {
    return Errno("arena mmap", path_);
  }
  map_ = static_cast<uint8_t*>(map);
  map_bytes_ = bytes;
  ComputeSectionPointers();
  return true;
}

common::Result<bool> ArenaFile::WriteHeaderSlot(int slot) {
  HeaderImage header;
  header.dim = static_cast<uint32_t>(dim_);
  header.head_dim = static_cast<uint32_t>(head_dim_);
  header.capacity_rows = capacity_rows_;
  header.committed_rows = committed_rows_;
  header.generation = generation_;
  header.file_bytes = map_bytes_;
  header.arena_off = arena_off_;
  header.head_off = head_off_;
  header.norms_off = norms_off_;
  header.sizes_off = sizes_off_;
  header.ids_off = ids_off_;
  const std::string image = header.Encode();
  uint8_t* dst = map_ + static_cast<size_t>(slot) * kHeaderSlotBytes;
  if (common::FaultPoint("arena.header_write")) {
    // Tear the slot for real: half the image lands, the CRC can't match, and
    // active_slot_ stays put — Open must adopt the surviving slot, and a retry
    // rewrites this one from scratch.
    std::memcpy(dst, image.data(), image.size() / 2);
    return common::Unavailable("injected arena.header_write torn slot: " + path_);
  }
  std::memcpy(dst, image.data(), image.size());
  std::memset(dst + image.size(), 0, kHeaderSlotBytes - image.size());
  if (::msync(map_, 2 * kHeaderSlotBytes, MS_SYNC) != 0) {
    return Errno("arena header msync", path_);
  }
  active_slot_ = slot;
  return true;
}

common::Result<bool> ArenaFile::Initialize(size_t dim, size_t head_dim) {
  if (initialized()) {
    return common::FailedPrecondition("arena already initialized: " + path_);
  }
  if (dim == 0 || head_dim == 0 || head_dim > dim) {
    return common::InvalidArgument("arena shape: dim=" + std::to_string(dim) +
                                   " head_dim=" + std::to_string(head_dim));
  }
  dim_ = dim;
  head_dim_ = head_dim;
  committed_rows_ = 0;
  generation_ = 0;
  capacity_rows_ = kMinCapacityRows;
  size_t offset = 2 * kHeaderSlotBytes;
  arena_off_ = offset;
  offset = AlignUp(offset + capacity_rows_ * dim_ * sizeof(float), kSectionAlign);
  head_off_ = offset;
  offset = AlignUp(offset + capacity_rows_ * head_dim_ * sizeof(float), kSectionAlign);
  norms_off_ = offset;
  offset = AlignUp(offset + capacity_rows_ * sizeof(float), kSectionAlign);
  sizes_off_ = offset;
  offset = AlignUp(offset + capacity_rows_ * sizeof(int64_t), kSectionAlign);
  ids_off_ = offset;
  offset += capacity_rows_ * sizeof(int64_t);
  if (auto mapped = MapBytes(offset); !mapped.ok()) {
    return mapped;
  }
  // Seed both slots so a later torn commit always leaves one valid header.
  if (auto a = WriteHeaderSlot(0); !a.ok()) {
    return a;
  }
  return WriteHeaderSlot(1);
}

common::Result<bool> ArenaFile::Reserve(uint64_t rows) {
  if (!initialized()) {
    return common::FailedPrecondition("arena not initialized: " + path_);
  }
  if (rows <= capacity_rows_) {
    return true;
  }
  uint64_t new_capacity = std::max(capacity_rows_, kMinCapacityRows);
  while (new_capacity < rows) {
    new_capacity *= 2;
  }

  // Lay the grown sections out entirely *beyond* the current end of file:
  // nothing the still-active old header describes is overwritten, so a crash
  // at any point before the new header publishes recovers through the old
  // layout, and one after it recovers through the new (the copies below are
  // msync'd first). The abandoned regions are geometric-series slack.
  const uint64_t old_capacity = capacity_rows_;
  const size_t old_arena = arena_off_;
  const size_t old_head = head_off_;
  const size_t old_norms = norms_off_;
  const size_t old_sizes = sizes_off_;
  const size_t old_ids = ids_off_;
  size_t offset = AlignUp(map_bytes_, kSectionAlign);
  arena_off_ = offset;
  offset = AlignUp(offset + new_capacity * dim_ * sizeof(float), kSectionAlign);
  head_off_ = offset;
  offset = AlignUp(offset + new_capacity * head_dim_ * sizeof(float), kSectionAlign);
  norms_off_ = offset;
  offset = AlignUp(offset + new_capacity * sizeof(float), kSectionAlign);
  sizes_off_ = offset;
  offset = AlignUp(offset + new_capacity * sizeof(int64_t), kSectionAlign);
  ids_off_ = offset;
  offset += new_capacity * sizeof(int64_t);
  capacity_rows_ = new_capacity;
  if (auto mapped = MapBytes(offset); !mapped.ok()) {
    return mapped;
  }
  std::memcpy(arena_base_, map_ + old_arena, old_capacity * dim_ * sizeof(float));
  std::memcpy(head_base_, map_ + old_head, old_capacity * head_dim_ * sizeof(float));
  std::memcpy(norms_base_, map_ + old_norms, old_capacity * sizeof(float));
  std::memcpy(sizes_base_, map_ + old_sizes, old_capacity * sizeof(int64_t));
  std::memcpy(ids_base_, map_ + old_ids, old_capacity * sizeof(int64_t));
  // Publish the new layout like a commit: msync the copies, then bump the
  // generation through the inactive slot — two slots must never claim the
  // same generation with different layouts. committed_rows is unchanged
  // (growth is not a checkpoint), and undo-log pre-images are row-indexed,
  // so RollBackTo works identically across the relocation.
  if (::msync(map_, map_bytes_, MS_SYNC) != 0) {
    return Errno("arena msync", path_);
  }
  ++generation_;
  return WriteHeaderSlot(1 - active_slot_);
}

common::Result<uint64_t> ArenaFile::Commit(uint64_t rows) {
  if (!initialized()) {
    return common::Error(common::FailedPrecondition("arena not initialized: " + path_));
  }
  if (rows > capacity_rows_) {
    return common::Error(common::InvalidArgument("commit rows beyond capacity"));
  }
  if (common::FaultPoint("arena.commit.msync")) {
    return common::Error(common::Unavailable("injected arena.commit.msync failure: " + path_));
  }
  if (::msync(map_, map_bytes_, MS_SYNC) != 0) {
    return common::Error(Errno("arena msync", path_));
  }
  committed_rows_ = rows;
  ++generation_;
  if (auto wrote = WriteHeaderSlot(1 - active_slot_); !wrote.ok()) {
    return wrote.error();
  }
  return generation_;
}

void ArenaFile::WriteRow(uint64_t row, int64_t id, int64_t size, float norm,
                         const float* centroid) {
  std::memcpy(arena_base_ + row * dim_, centroid, dim_ * sizeof(float));
  std::memcpy(head_base_ + row * head_dim_, centroid, head_dim_ * sizeof(float));
  norms_base_[row] = norm;
  sizes_base_[row] = size;
  ids_base_[row] = id;
}

common::Result<bool> ArenaFile::RollBackTo(uint64_t generation,
                                           const std::vector<std::string>& log_records) {
  if (!initialized()) {
    return common::FailedPrecondition("arena not initialized: " + path_);
  }
  if (generation > generation_) {
    return common::FailedPrecondition("arena behind recovery target: " + path_);
  }
  std::vector<ArenaUndo> undo;
  undo.reserve(log_records.size());
  for (const std::string& record : log_records) {
    ArenaUndo parsed;
    if (!ArenaUndo::Decode(record, &parsed)) {
      return common::Error{common::ErrorCode::kIo, "arena undo record corrupt: " + path_};
    }
    undo.push_back(std::move(parsed));
  }
  // Locate the last marker of the target checkpoint; everything after it is a
  // pre-image of a post-checkpoint mutation and gets applied in reverse. No
  // marker means no rows were mutated after that commit (the marker is the
  // first record of every window), so the header state is already exact.
  size_t marker = undo.size();
  for (size_t i = undo.size(); i-- > 0;) {
    if (undo[i].kind == ArenaUndo::Kind::kMarker && undo[i].generation == generation) {
      marker = i;
      break;
    }
  }
  if (marker == undo.size()) {
    if (generation == 0) {
      // The empty state needs no undo data: whatever the rows hold is
      // uncommitted. (Reachable when the first Add initialized — and possibly
      // grew — the arena after an empty checkpoint whose marker is gone.)
      committed_rows_ = 0;
      return true;
    }
    if (generation_ != generation) {
      return common::FailedPrecondition("arena undo log missing checkpoint marker: " + path_);
    }
    // Header already at the target but its window marker is absent: the crash
    // hit between the meta commit and the log rotation. The log then still
    // holds the *previous* window (an older marker plus pre-images that led
    // up to this commit and are baked into it) — stale, nothing to undo. Row
    // records before any marker at all, though, cannot be attributed to a
    // checkpoint and mean the log does not describe this arena.
    bool seen_marker = false;
    for (const ArenaUndo& record : undo) {
      if (record.kind == ArenaUndo::Kind::kMarker) {
        seen_marker = true;
      } else if (!seen_marker) {
        return common::Error{common::ErrorCode::kIo,
                             "arena undo pre-images before any checkpoint marker: " + path_};
      }
    }
    // Report "undone" so the caller re-seals: the rotation re-establishes the
    // marker this generation's future pre-images will hang off.
    return true;
  }
  bool undid = generation_ != generation;
  for (size_t i = undo.size(); i-- > marker + 1;) {
    const ArenaUndo& record = undo[i];
    if (record.kind != ArenaUndo::Kind::kRow) {
      continue;
    }
    if (record.centroid.size() != dim_ || record.row >= capacity_rows_) {
      return common::Error{common::ErrorCode::kIo, "arena undo record shape mismatch: " + path_};
    }
    WriteRow(record.row, record.id, record.size, record.norm, record.centroid.data());
    undid = true;
  }
  committed_rows_ = undo[marker].rows;
  // generation_ deliberately stays at the header's value (>= the target): the
  // caller re-commits immediately after recovery, and the next generation must
  // exceed every slot already on disk to stay unambiguous.
  return undid;
}

common::Result<std::unique_ptr<ArenaFile>> OpenArenaAtCheckpoint(
    const std::string& arena_path, const std::string& undo_path, uint64_t generation,
    bool* needs_reseal) {
  *needs_reseal = false;
  auto arena = ArenaFile::Open(arena_path);
  if (!arena.ok()) {
    if (generation > 0) {
      return arena;
    }
    // Generation 0 committed the *empty* state, so a torn arena (e.g. a crash
    // inside Initialize left zero-filled or half-written header slots) is
    // disposable: recreate it — and re-seal, so the undo rotation restores
    // the window marker — rather than failing recovery forever.
    std::error_code ec;
    std::filesystem::remove(arena_path, ec);
    std::filesystem::remove(undo_path, ec);
    arena = ArenaFile::Open(arena_path);
    if (arena.ok()) {
      *needs_reseal = true;
    }
    return arena;
  }
  // An initialized arena rolls back to the meta's generation — including
  // generation 0 (the first detection arrived after an empty-checkpoint
  // commit and the crash preceded the next one). Only an *uninitialized*
  // arena may skip the rollback, and only for generation 0.
  if ((*arena)->initialized()) {
    auto log = ReadRecordLog(undo_path);
    if (!log.ok()) {
      return log.error();
    }
    // Torn undo tails are expected after a crash: an append interrupted
    // mid-write belongs to a row mutation that never executed. A torn tail
    // does force a re-seal, though — new appends must not land after
    // unreadable garbage.
    auto rolled = (*arena)->RollBackTo(generation, log->records);
    if (!rolled.ok()) {
      return rolled.error();
    }
    *needs_reseal = *rolled || log->truncated_tail;
  } else if (generation > 0) {
    return common::Error{common::ErrorCode::kIo,
                         "meta records generation " + std::to_string(generation) +
                             " but the arena is uninitialized: " + arena_path};
  }
  return arena;
}

}  // namespace focus::storage
