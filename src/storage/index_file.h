// Index files: one stream's index image on disk, with what a cold query needs.
//
// The paper persists its index in MongoDB (§5); here an index is exported as its
// image (src/index/topk_index.h) — the same bytes the in-process index owns and
// the shm plane publishes — behind a small metadata prefix, written through
// WriteFileAtomic. Layout:
//
//   [magic u64 "FOCUSIF1"] [version u32] [metadata: stream name, K, T, world
//   seed, fps, the ingest ModelDesc] [crc32 of everything before it] [image]
//
// ReadIndexFile checks the prefix and validates the image with IndexView::Open,
// so a truncated or corrupted file is a typed error, never a crash.
#ifndef FOCUS_SRC_STORAGE_INDEX_FILE_H_
#define FOCUS_SRC_STORAGE_INDEX_FILE_H_

#include <cstdint>
#include <string>

#include "src/cnn/model_desc.h"
#include "src/common/result.h"
#include "src/index/topk_index.h"

namespace focus::storage {

inline constexpr uint32_t kIndexFileVersion = 1;

// Enough to stand up a query from the file alone: the ingest ModelDesc (for
// label-space mapping of queried classes, §4.3 OTHER semantics) and the world
// seed (to rebuild the catalog and the GT-CNN).
struct IndexFileMeta {
  std::string stream_name;
  int32_t k = 0;
  double cluster_threshold = 0.0;
  uint64_t world_seed = 0;
  double fps = 30.0;  // Native frame rate of the indexed recording.
  cnn::ModelDesc model;
};

struct IndexFile {
  IndexFileMeta meta;
  index::TopKIndex index;
};

// Atomically writes |meta| and |index|'s image to |path|.
common::Result<bool> WriteIndexFile(const std::string& path, const IndexFileMeta& meta,
                                    const index::TopKIndex& index);

// Reads and validates a file WriteIndexFile wrote. Another version is
// kFailedPrecondition naming both; any other defect is kDataLoss (or kIo when
// the file cannot be read).
common::Result<IndexFile> ReadIndexFile(const std::string& path);

}  // namespace focus::storage

#endif  // FOCUS_SRC_STORAGE_INDEX_FILE_H_
