// Atomic file snapshots.
//
// Writes a blob to a temporary file in the destination directory, fsyncs, then
// renames into place, so readers either see the previous complete snapshot or the new
// complete snapshot — never a torn write. This is the durability contract under the
// clustering checkpoint meta (its rename is the checkpoint's commit point), index
// files and vault manifests.
#ifndef FOCUS_SRC_STORAGE_SNAPSHOT_STORE_H_
#define FOCUS_SRC_STORAGE_SNAPSHOT_STORE_H_

#include <cstddef>
#include <string>

#include "src/common/result.h"

namespace focus::storage {

// Atomically and durably replaces |path| with |blob|: writes and fsyncs
// |path|.tmp, renames it over |path|, then fsyncs the directory. A failure
// before the rename returns kIo, removes the temp file and leaves |path|
// untouched; a failed directory fsync returns kIo after the rename.
common::Result<bool> WriteFileAtomic(const std::string& path, const std::string& blob);

// write(2)s |size| bytes to |fd|, retrying interrupted and partial writes;
// returns the bytes written, short on error (errno set).
size_t WriteAll(int fd, const char* data, size_t size);

// Reads the whole file at |path|.
common::Result<std::string> ReadFile(const std::string& path);

// True when |path| exists and is a regular file.
bool FileExists(const std::string& path);

}  // namespace focus::storage

#endif  // FOCUS_SRC_STORAGE_SNAPSHOT_STORE_H_
