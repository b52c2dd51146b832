// RAII POSIX file wrappers used by all on-disk stores:
//  - AppendFile: buffered append-only writer (log files, SSTables)
//  - RandomAccessFile: positional pread reader
//  - SequentialFile: forward-only buffered reader (log replay, index scans)
//  - ZeroCopyTransfer: copy_file_range-based kernel-space byte moves used by
//    FlowKV's integrated compaction (paper §5, "Zero-copy Byte Transfer").
//
// All wrappers also account bytes moved and time blocked in the kernel into
// an optional IoStats sink so that benches can separate CPU from I/O wait.
#ifndef SRC_COMMON_FILE_H_
#define SRC_COMMON_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/relaxed_counter.h"
#include "src/common/slice.h"
#include "src/common/status.h"

namespace flowkv {

// Bytes and wall-nanoseconds spent inside read/write/sync syscalls. Written
// by one thread (the owning store's, single-threaded contract); the relaxed
// counters make concurrent sampling by the metrics reporter well-defined.
struct IoStats {
  RelaxedCounter bytes_written = 0;
  RelaxedCounter bytes_read = 0;
  RelaxedCounter write_nanos = 0;
  RelaxedCounter read_nanos = 0;
  RelaxedCounter sync_nanos = 0;

  void MergeFrom(const IoStats& other) {
    bytes_written += other.bytes_written;
    bytes_read += other.bytes_read;
    write_nanos += other.write_nanos;
    read_nanos += other.read_nanos;
    sync_nanos += other.sync_nanos;
  }
};

// Buffered append-only writer. Not thread-safe.
class AppendFile {
 public:
  // Opens (creating or truncating unless `reopen`) `path` for append.
  static Status Open(const std::string& path, bool reopen, std::unique_ptr<AppendFile>* out,
                     IoStats* stats = nullptr);

  ~AppendFile();

  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  Status Append(const Slice& data);
  // Flushes the user-space buffer to the kernel.
  Status Flush();
  // Flush + fdatasync.
  Status Sync();
  Status Close();

  // Logical size: bytes accepted by Append so far (buffered or not).
  uint64_t size() const { return size_; }
  // Accounts bytes appended to the underlying file by an external mechanism
  // (e.g. copy_file_range in ZeroCopyTransfer) so size() stays accurate.
  void AccountExternalWrite(uint64_t n) { size_ += n; }
  const std::string& path() const { return path_; }

 private:
  AppendFile(std::string path, int fd, uint64_t initial_size, IoStats* stats);

  Status WriteRaw(const char* data, size_t n);

  std::string path_;
  int fd_;
  uint64_t size_;
  IoStats* stats_;
  std::string buffer_;
  static constexpr size_t kBufferLimit = 64 * 1024;
};

// Positional reader over an immutable (or append-only) file.
class RandomAccessFile {
 public:
  static Status Open(const std::string& path, std::unique_ptr<RandomAccessFile>* out,
                     IoStats* stats = nullptr);

  ~RandomAccessFile();

  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;

  // Reads exactly n bytes at offset into scratch, sets *result over scratch.
  // Short reads at EOF return IOError.
  Status Read(uint64_t offset, size_t n, Slice* result, char* scratch) const;

  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }
  int fd() const { return fd_; }

 private:
  RandomAccessFile(std::string path, int fd, uint64_t size, IoStats* stats);

  std::string path_;
  int fd_;
  uint64_t size_;
  IoStats* stats_;
};

// Forward-only buffered reader.
class SequentialFile {
 public:
  static Status Open(const std::string& path, std::unique_ptr<SequentialFile>* out,
                     IoStats* stats = nullptr);

  ~SequentialFile();

  SequentialFile(const SequentialFile&) = delete;
  SequentialFile& operator=(const SequentialFile&) = delete;

  // Reads up to n bytes. *result is empty at EOF.
  Status Read(size_t n, Slice* result, char* scratch);
  Status Skip(uint64_t n);

 private:
  SequentialFile(std::string path, int fd, IoStats* stats);

  std::string path_;
  int fd_;
  IoStats* stats_;
};

// A byte range [offset, offset + length) of a file.
struct ByteRange {
  uint64_t offset;
  uint64_t length;
};

// Appends the `ranges` of `src_path`, in list order, to the end of `dst`,
// staying in kernel space where the platform allows (copy_file_range) and
// falling back to a read/append loop. Each file is opened once per call.
// Every range is checked against the source's size before any byte moves, so
// a range past EOF fails with `dst` unchanged. An empty list is a no-op.
Status ZeroCopyTransfer(const std::string& src_path, const std::vector<ByteRange>& ranges,
                        AppendFile* dst, IoStats* stats = nullptr);

// Single-range form of the above.
Status ZeroCopyTransfer(const std::string& src_path, uint64_t src_offset, uint64_t length,
                        AppendFile* dst, IoStats* stats = nullptr);

// Copies `src` to `dst` (created/truncated), staying in kernel space where
// possible. Used by checkpointing.
Status CopyFile(const std::string& src, const std::string& dst, IoStats* stats = nullptr);

// Convenience helpers used by tests and recovery paths.
Status WriteStringToFile(const std::string& path, const Slice& contents);
Status ReadFileToString(const std::string& path, std::string* contents);

// Crash-safe WriteStringToFile: writes `path`.tmp, fsyncs it, renames it
// into place, and fsyncs the parent directory. After an OK return the file
// (with exactly `contents`) survives a power failure; after a failure the
// previous version of `path`, if any, is still intact.
Status WriteFileDurably(const std::string& path, const Slice& contents);

}  // namespace flowkv

#endif  // SRC_COMMON_FILE_H_
