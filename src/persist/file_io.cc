#include "persist/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/check.h"

namespace bitpush {

std::string IoError(const std::string& action, const std::string& path) {
  return action + " " + path + ": " + std::strerror(errno);
}

bool SyncParentDir(const std::string& path, std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                          : slash == 0              ? std::string("/")
                                                    : path.substr(0, slash);
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    *error = IoError("open state dir", dir);
    return false;
  }
  const bool synced = fsync(fd) == 0;
  if (!synced) *error = IoError("fsync state dir", dir);
  close(fd);
  return synced;
}

bool ReplaceFileDurably(const std::string& path,
                        const std::vector<uint8_t>& data, bool sync,
                        const ReplaceFileActions& actions,
                        std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  const std::string temp_path = path + ".tmp";
  std::FILE* file = std::fopen(temp_path.c_str(), "wb");
  if (file == nullptr) {
    *error = IoError(actions.open, temp_path);
    return false;
  }
  // An empty vector's data() may be null, which fwrite declares nonnull.
  const bool wrote =
      data.empty() ||
      std::fwrite(data.data(), 1, data.size(), file) == data.size();
  const bool flushed = wrote && std::fflush(file) == 0;
  const bool synced = flushed && (!sync || fsync(fileno(file)) == 0);
  std::fclose(file);
  if (!synced) {
    *error = IoError(actions.write, temp_path);
    std::remove(temp_path.c_str());
    return false;
  }
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    *error = IoError(actions.rename, path);
    std::remove(temp_path.c_str());
    return false;
  }
  return !sync || SyncParentDir(path, error);
}

}  // namespace bitpush
