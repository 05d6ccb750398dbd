#ifndef OLAP_STORAGE_ENV_H_
#define OLAP_STORAGE_ENV_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace olap {

// File-system abstraction in the LevelDB tradition. Every byte the storage
// layer moves to or from disk goes through an Env, so tests can substitute
// a fault-injecting decorator and exercise torn writes, transient outages
// and bit rot without touching real hardware.
//
// Error mapping contract (shared by all implementations):
//   * missing file                       -> kNotFound
//   * out of disk space / quota          -> kResourceExhausted
//   * transient failure, worth a retry   -> kUnavailable
//   * short read / device-level I/O rot  -> kDataLoss
//   * everything else                    -> kInvalidArgument / kInternal

// A sequentially written file. Append/Sync/Close each report failure via
// Status; after a failed Append the file's contents are unspecified (the
// caller must treat the file as garbage — SaveCube does, via its
// temp-file-then-rename protocol).
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const void* data, size_t n) = 0;
  Status Append(const std::string& data) {
    return Append(data.data(), data.size());
  }
  // Flushes library and OS buffers to stable storage (fsync).
  virtual Status Sync() = 0;
  // Idempotent; Append/Sync after Close are errors.
  virtual Status Close() = 0;
};

// A file readable at arbitrary offsets (pread-style; safe for concurrent
// readers).
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  // Reads exactly `n` bytes at `offset` into *out (replacing its contents).
  // A short read — the file ends before offset+n — is kDataLoss.
  virtual Status Read(int64_t offset, size_t n, std::string* out) const = 0;
  virtual Result<int64_t> Size() const = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  // The process-wide POSIX environment (never null, never deleted).
  static Env* Default();

  // Creates (truncating) `path` for sequential writing.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;
  virtual Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) = 0;
  // Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Result<int64_t> GetFileSize(const std::string& path) = 0;

  // Convenience: reads the whole file into *out through NewRandomAccessFile.
  Status ReadFileToString(const std::string& path, std::string* out);
};

}  // namespace olap

#endif  // OLAP_STORAGE_ENV_H_
