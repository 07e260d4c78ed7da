// Append-only record log with checksummed framing and crash recovery.
//
// Live ingest produces index updates continuously; losing a day of indexing to a
// crash would force re-running the cheap CNN over the backlog. The record log is the
// write-ahead structure that prevents that: each appended record is framed as
//
//   [length u32] [crc32 u32] [payload bytes]
//
// and appended with a flush. On restart, ReadAll() replays records until the first
// frame that fails its length or CRC check — a torn tail from a crash mid-append is
// truncated away rather than treated as corruption of the whole log.
//
// Appends are never fsynced: the log's records are superseded by the next
// checkpoint, and a process crash leaves them in the page cache, so the loss
// window under a machine crash is bounded by the checkpoint cadence
// (docs/persistence.md).
#ifndef FOCUS_SRC_STORAGE_RECORD_LOG_H_
#define FOCUS_SRC_STORAGE_RECORD_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace focus::storage {

class RecordLogWriter {
 public:
  // Opens |path| for append, creating it when absent. With |truncate| the
  // existing contents are discarded first — the checkpoint-time rotation of a
  // delta log whose records are superseded by the checkpoint they led up to.
  static common::Result<RecordLogWriter> Open(const std::string& path, bool truncate = false);

  RecordLogWriter(RecordLogWriter&& other) noexcept;
  RecordLogWriter& operator=(RecordLogWriter&& other) noexcept;
  RecordLogWriter(const RecordLogWriter&) = delete;
  RecordLogWriter& operator=(const RecordLogWriter&) = delete;
  ~RecordLogWriter();

  // Appends one record (write(2), no fsync). Injection site
  // "record_log.append" produces a genuinely torn tail: half the frame reaches the
  // file before the error returns, exercising the ReadRecordLog recovery path.
  common::Result<bool> Append(const std::string& payload);

  int64_t records_written() const { return records_written_; }
  const std::string& path() const { return path_; }

 private:
  RecordLogWriter() = default;

  std::string path_;
  int fd_ = -1;
  int64_t records_written_ = 0;
};

struct RecordLogContents {
  std::vector<std::string> records;
  // True when the file ended with a torn or corrupt frame that was dropped (the
  // expected state after a crash mid-append).
  bool truncated_tail = false;
};

// Replays every valid record of the log at |path|. A missing file yields an empty
// contents (a fresh deployment has no log yet).
common::Result<RecordLogContents> ReadRecordLog(const std::string& path);

}  // namespace focus::storage

#endif  // FOCUS_SRC_STORAGE_RECORD_LOG_H_
