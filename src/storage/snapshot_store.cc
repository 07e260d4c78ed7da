#include "src/storage/snapshot_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/fault_injection.h"

namespace focus::storage {

namespace {

common::Error IoError(const std::string& what, const std::string& path) {
  return common::Error{common::ErrorCode::kIo, what + ": " + path + ": " + std::strerror(errno)};
}

// Fsyncs the directory holding |path|, making a rename into it durable.
bool SyncParentDir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) {
    dir = ".";
  }
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return false;
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
}

}  // namespace

size_t WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    written += static_cast<size_t>(n);
  }
  return written;
}

common::Result<bool> WriteFileAtomic(const std::string& path, const std::string& blob) {
  // The temp file must live in the same directory so the rename is atomic (same
  // filesystem).
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return IoError("open for write", tmp);
  }
  if (common::FaultPoint("snapshot.write")) {
    // Leave a torn temp file behind — the atomic-rename protocol must make
    // it invisible (the target path is untouched until the rename).
    WriteAll(fd, blob.data(), blob.size() / 2);
    ::close(fd);
    return common::Unavailable("injected snapshot.write failure: " + tmp);
  }
  // The temp file's bytes must be durable before the rename publishes them:
  // otherwise a machine crash could leave the new name over a torn file.
  if (WriteAll(fd, blob.data(), blob.size()) != blob.size() || ::fsync(fd) != 0) {
    common::Error error = IoError("write", tmp);
    ::close(fd);
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return error;
  }
  if (::close(fd) != 0) {
    common::Error error = IoError("close", tmp);
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return error;
  }
  if (common::FaultPoint("snapshot.rename")) {
    return common::Unavailable("injected snapshot.rename failure: " + path);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return common::Error{common::ErrorCode::kIo, "rename " + tmp + " -> " + path + ": " +
                                                     ec.message()};
  }
  // The rename itself is durable only once the directory entry is.
  if (!SyncParentDir(path)) {
    return IoError("fsync directory of", path);
  }
  return true;
}

common::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return IoError("open for read", path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return IoError("read", path);
  }
  return buffer.str();
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(path, ec);
}

}  // namespace focus::storage
