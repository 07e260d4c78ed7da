#include "src/storage/record_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/fault_injection.h"
#include "src/storage/serializer.h"
#include "src/storage/snapshot_store.h"

namespace focus::storage {

common::Result<RecordLogWriter> RecordLogWriter::Open(const std::string& path, bool truncate) {
  int flags = O_WRONLY | O_CREAT | (truncate ? O_TRUNC : O_APPEND);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return common::Error{common::ErrorCode::kIo,
                         "record log open: " + path + ": " + std::strerror(errno)};
  }
  RecordLogWriter writer;
  writer.path_ = path;
  writer.fd_ = fd;
  return writer;
}

RecordLogWriter::RecordLogWriter(RecordLogWriter&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      records_written_(other.records_written_) {}

RecordLogWriter& RecordLogWriter::operator=(RecordLogWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    records_written_ = other.records_written_;
  }
  return *this;
}

RecordLogWriter::~RecordLogWriter() {
  if (fd_ >= 0) ::close(fd_);
}

common::Result<bool> RecordLogWriter::Append(const std::string& payload) {
  Encoder frame;
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(Crc32(payload));
  std::string bytes = frame.TakeBytes();
  bytes.append(payload);
  if (common::FaultPoint("record_log.append")) {
    // Tear the write for real: half the frame lands in the file, then the
    // "device" errors. Recovery must truncate this tail on replay.
    WriteAll(fd_, bytes.data(), bytes.size() / 2);
    return common::Unavailable("injected record_log.append short write: " + path_);
  }
  if (WriteAll(fd_, bytes.data(), bytes.size()) != bytes.size()) {
    return common::Error{common::ErrorCode::kIo,
                         "record log append: " + path_ + ": " + std::strerror(errno)};
  }
  ++records_written_;
  return true;
}

common::Result<RecordLogContents> ReadRecordLog(const std::string& path) {
  RecordLogContents contents;
  if (!FileExists(path)) {
    return contents;
  }
  auto blob = ReadFile(path);
  if (!blob.ok()) {
    return blob.error();
  }
  Decoder dec(*blob);
  while (!dec.Done()) {
    uint32_t length = 0;
    uint32_t crc = 0;
    if (!dec.GetU32(&length) || !dec.GetU32(&crc) || length > dec.remaining()) {
      contents.truncated_tail = true;  // Torn frame header or short payload.
      break;
    }
    std::string payload(blob->data() + dec.offset(), length);
    if (Crc32(payload) != crc) {
      contents.truncated_tail = true;  // Torn payload write.
      break;
    }
    dec.Skip(length);  // Past the payload just validated.
    contents.records.push_back(std::move(payload));
  }
  return contents;
}

}  // namespace focus::storage
