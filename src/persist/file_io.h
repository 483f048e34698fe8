// File I/O shared by the durable-state layer: the one error-message
// convention and the one durable whole-file replace (temp sibling, fsync,
// rename, fsync the directory) behind snapshot writes and journal
// rewrites.

#ifndef BITPUSH_PERSIST_FILE_IO_H_
#define BITPUSH_PERSIST_FILE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bitpush {

// "<action> <path>: <strerror(errno)>", for the errno the failed call set.
std::string IoError(const std::string& action, const std::string& path);

// Fsyncs the directory containing `path`, making a preceding rename or
// file creation inside it durable across power loss. Returns false with
// `*error` set on failure.
bool SyncParentDir(const std::string& path, std::string* error);

// The error actions of one ReplaceFileDurably caller: opening and writing
// name the temporary file, renaming names `path`.
struct ReplaceFileActions {
  const char* open;
  const char* write;
  const char* rename;
};

// Replaces `path` with `data` without ever exposing a partial file: writes
// the temporary sibling `path + ".tmp"`, flushes it (and fsyncs it when
// `sync`), renames it over `path`, and with `sync` fsyncs the directory so
// the rename itself survives power loss. On failure the temporary file is
// removed and `*error` is IoError(<action>, <file>).
bool ReplaceFileDurably(const std::string& path,
                        const std::vector<uint8_t>& data, bool sync,
                        const ReplaceFileActions& actions, std::string* error);

}  // namespace bitpush

#endif  // BITPUSH_PERSIST_FILE_IO_H_
