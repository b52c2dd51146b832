#include "src/common/file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/common/clock.h"
#include "src/common/env.h"
#include "src/common/fs_hooks.h"
#include "src/common/logging.h"

#if defined(__linux__)
#include <sys/sendfile.h>
#endif

namespace flowkv {

namespace {

class NanoScope {
 public:
  NanoScope(IoStats* stats, RelaxedCounter IoStats::*field) : stats_(stats), field_(field) {
    if (stats_ != nullptr) {
      start_ = MonotonicNanos();
    }
  }
  ~NanoScope() {
    if (stats_ != nullptr) {
      stats_->*field_ += MonotonicNanos() - start_;
    }
  }

 private:
  IoStats* stats_;
  RelaxedCounter IoStats::*field_;
  int64_t start_ = 0;
};

}  // namespace

// ----------------------------- AppendFile -----------------------------

AppendFile::AppendFile(std::string path, int fd, uint64_t initial_size, IoStats* stats)
    : path_(std::move(path)), fd_(fd), size_(initial_size), stats_(stats) {
  buffer_.reserve(kBufferLimit);
}

Status AppendFile::Open(const std::string& path, bool reopen, std::unique_ptr<AppendFile>* out,
                        IoStats* stats) {
  if (FsHooks* hooks = GetFsHooks()) {
    FLOWKV_RETURN_IF_ERROR(hooks->PreOpenWrite(path, /*truncate=*/!reopen));
  }
  int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
  if (!reopen) {
    flags |= O_TRUNC;
  }
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::FromErrno("open(append) " + path);
  }
  uint64_t initial = 0;
  if (reopen) {
    off_t end = ::lseek(fd, 0, SEEK_END);
    if (end < 0) {
      ::close(fd);
      return Status::FromErrno("lseek " + path);
    }
    initial = static_cast<uint64_t>(end);
  }
  out->reset(new AppendFile(path, fd, initial, stats));
  if (FsHooks* hooks = GetFsHooks()) {
    hooks->DidOpenWrite(path, /*truncate=*/!reopen);
  }
  return Status::Ok();
}

AppendFile::~AppendFile() {
  // Destructor-path closes cannot propagate errors; writers that care about
  // durability must call Close() (or Sync()) explicitly and check the status.
  const Status status = Close();
  if (!status.ok()) {
    FLOWKV_LOG(kError) << "close of " << path_ << " failed in destructor, buffered data may be "
                       << "lost: " << status.ToString();
  }
}

Status AppendFile::Append(const Slice& data) {
  size_ += data.size();
  if (buffer_.size() + data.size() <= kBufferLimit) {
    buffer_.append(data.data(), data.size());
    return Status::Ok();
  }
  // Large or overflowing write: drain the buffer, then write big payloads
  // directly to avoid a copy.
  FLOWKV_RETURN_IF_ERROR(Flush());
  if (data.size() >= kBufferLimit) {
    return WriteRaw(data.data(), data.size());
  }
  buffer_.append(data.data(), data.size());
  return Status::Ok();
}

Status AppendFile::Flush() {
  if (buffer_.empty()) {
    return Status::Ok();
  }
  Status s = WriteRaw(buffer_.data(), buffer_.size());
  buffer_.clear();
  return s;
}

Status AppendFile::WriteRaw(const char* data, size_t n) {
  if (FsHooks* hooks = GetFsHooks()) {
    FLOWKV_RETURN_IF_ERROR(hooks->PreWrite(path_, n));
  }
  NanoScope scope(stats_, &IoStats::write_nanos);
  size_t written = 0;
  while (written < n) {
    ssize_t r = ::write(fd_, data + written, n - written);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::FromErrno("write " + path_);
    }
    written += static_cast<size_t>(r);
  }
  if (stats_ != nullptr) {
    stats_->bytes_written += static_cast<int64_t>(n);
  }
  return Status::Ok();
}

Status AppendFile::Sync() {
  FLOWKV_RETURN_IF_ERROR(Flush());
  if (FsHooks* hooks = GetFsHooks()) {
    FLOWKV_RETURN_IF_ERROR(hooks->PreSync(path_));
  }
  NanoScope scope(stats_, &IoStats::sync_nanos);
  if (::fdatasync(fd_) != 0) {
    return Status::FromErrno("fdatasync " + path_);
  }
  if (FsHooks* hooks = GetFsHooks()) {
    hooks->DidSync(path_);
  }
  return Status::Ok();
}

Status AppendFile::Close() {
  if (fd_ < 0) {
    return Status::Ok();
  }
  Status s = Flush();
  if (::close(fd_) != 0 && s.ok()) {
    s = Status::FromErrno("close " + path_);
  }
  fd_ = -1;
  return s;
}

// -------------------------- RandomAccessFile --------------------------

RandomAccessFile::RandomAccessFile(std::string path, int fd, uint64_t size, IoStats* stats)
    : path_(std::move(path)), fd_(fd), size_(size), stats_(stats) {}

Status RandomAccessFile::Open(const std::string& path, std::unique_ptr<RandomAccessFile>* out,
                              IoStats* stats) {
  if (FsHooks* hooks = GetFsHooks()) {
    FLOWKV_RETURN_IF_ERROR(hooks->PreOpenRead(path));
  }
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::FromErrno("open(read) " + path);
  }
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return Status::FromErrno("lseek " + path);
  }
  out->reset(new RandomAccessFile(path, fd, static_cast<uint64_t>(end), stats));
  return Status::Ok();
}

RandomAccessFile::~RandomAccessFile() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status RandomAccessFile::Read(uint64_t offset, size_t n, Slice* result, char* scratch) const {
  NanoScope scope(stats_, &IoStats::read_nanos);
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::pread(fd_, scratch + done, n - done, static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::FromErrno("pread " + path_);
    }
    if (r == 0) {
      return Status::IOError("short read at offset " + std::to_string(offset) + " in " + path_);
    }
    done += static_cast<size_t>(r);
  }
  if (stats_ != nullptr) {
    stats_->bytes_read += static_cast<int64_t>(n);
  }
  *result = Slice(scratch, n);
  return Status::Ok();
}

// --------------------------- SequentialFile ---------------------------

SequentialFile::SequentialFile(std::string path, int fd, IoStats* stats)
    : path_(std::move(path)), fd_(fd), stats_(stats) {}

Status SequentialFile::Open(const std::string& path, std::unique_ptr<SequentialFile>* out,
                            IoStats* stats) {
  if (FsHooks* hooks = GetFsHooks()) {
    FLOWKV_RETURN_IF_ERROR(hooks->PreOpenRead(path));
  }
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::FromErrno("open(seq) " + path);
  }
  out->reset(new SequentialFile(path, fd, stats));
  return Status::Ok();
}

SequentialFile::~SequentialFile() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status SequentialFile::Read(size_t n, Slice* result, char* scratch) {
  NanoScope scope(stats_, &IoStats::read_nanos);
  ssize_t r;
  do {
    r = ::read(fd_, scratch, n);
  } while (r < 0 && errno == EINTR);
  if (r < 0) {
    return Status::FromErrno("read " + path_);
  }
  if (stats_ != nullptr) {
    stats_->bytes_read += r;
  }
  *result = Slice(scratch, static_cast<size_t>(r));
  return Status::Ok();
}

Status SequentialFile::Skip(uint64_t n) {
  if (::lseek(fd_, static_cast<off_t>(n), SEEK_CUR) < 0) {
    return Status::FromErrno("lseek " + path_);
  }
  return Status::Ok();
}

// --------------------------- ZeroCopyTransfer ---------------------------

Status ZeroCopyTransfer(const std::string& src_path, const std::vector<ByteRange>& ranges,
                        AppendFile* dst, IoStats* stats) {
  if (ranges.empty()) {
    return Status::Ok();
  }
  // The destination's user-space buffer must be drained before writing to its
  // fd behind its back.
  FLOWKV_RETURN_IF_ERROR(dst->Flush());

  std::unique_ptr<RandomAccessFile> src;
  FLOWKV_RETURN_IF_ERROR(RandomAccessFile::Open(src_path, &src, stats));
  uint64_t total = 0;
  for (const ByteRange& r : ranges) {
    if (r.length > src->size() || r.offset > src->size() - r.length) {
      return Status::InvalidArgument("transfer range beyond EOF of " + src_path);
    }
    total += r.length;
  }

  // Progress: ranges[next] is the first range not fully moved, `done` bytes
  // of it already are.
  size_t next = 0;
  uint64_t done = 0;
#if defined(__linux__)
  {
    NanoScope scope(stats, &IoStats::write_nanos);
    // copy_file_range rejects O_APPEND destinations (EBADF), so write through
    // a second, positional fd on the same path starting at its current end.
    int out_fd = -1;
    FsHooks* hooks = GetFsHooks();
    // The kernel-space path writes around AppendFile's buffer; give the
    // hooks the same visibility a WriteRaw would.
    if (hooks == nullptr || hooks->PreWrite(dst->path(), total).ok()) {
      out_fd = ::open(dst->path().c_str(), O_WRONLY | O_CLOEXEC);
    }
    const off_t end = out_fd >= 0 ? ::lseek(out_fd, 0, SEEK_END) : -1;
    if (end >= 0) {
      off_t out_off = end;
      while (next < ranges.size()) {
        if (done == ranges[next].length) {
          ++next;
          done = 0;
          continue;
        }
        off_t in_off = static_cast<off_t>(ranges[next].offset + done);
        const ssize_t moved = ::copy_file_range(src->fd(), &in_off, out_fd, &out_off,
                                                ranges[next].length - done, 0);
        if (moved < 0 && errno == EINTR) {
          continue;
        }
        if (moved <= 0) {
          break;  // e.g. EXDEV or an unsupported fs: finish in user space
        }
        done += static_cast<uint64_t>(moved);
      }
      const uint64_t moved_in_kernel = static_cast<uint64_t>(out_off - end);
      if (stats != nullptr) {
        stats->bytes_written += static_cast<int64_t>(moved_in_kernel);
      }
      // Keep AppendFile's logical size in sync with the bytes that went
      // around its buffer.
      dst->AccountExternalWrite(moved_in_kernel);
    }
    if (out_fd >= 0) {
      ::close(out_fd);
    }
  }
#endif

  // Portable fallback for whatever the kernel did not move: bounce through a
  // user-space buffer.
  std::string scratch;
  for (; next < ranges.size(); ++next, done = 0) {
    uint64_t offset = ranges[next].offset + done;
    uint64_t length = ranges[next].length - done;
    scratch.resize(static_cast<size_t>(std::min<uint64_t>(length, 256 * 1024)));
    while (length > 0) {
      const size_t chunk = static_cast<size_t>(std::min<uint64_t>(length, scratch.size()));
      Slice got;
      FLOWKV_RETURN_IF_ERROR(src->Read(offset, chunk, &got, scratch.data()));
      FLOWKV_RETURN_IF_ERROR(dst->Append(got));
      offset += chunk;
      length -= chunk;
    }
  }
  return dst->Flush();
}

Status ZeroCopyTransfer(const std::string& src_path, uint64_t src_offset, uint64_t length,
                        AppendFile* dst, IoStats* stats) {
  return ZeroCopyTransfer(src_path, {ByteRange{src_offset, length}}, dst, stats);
}

Status CopyFile(const std::string& src, const std::string& dst, IoStats* stats) {
  std::unique_ptr<RandomAccessFile> in;
  FLOWKV_RETURN_IF_ERROR(RandomAccessFile::Open(src, &in, stats));
  const uint64_t size = in->size();
  in.reset();
  std::unique_ptr<AppendFile> out;
  FLOWKV_RETURN_IF_ERROR(AppendFile::Open(dst, /*reopen=*/false, &out, stats));
  if (size > 0) {
    FLOWKV_RETURN_IF_ERROR(ZeroCopyTransfer(src, 0, size, out.get(), stats));
  }
  return out->Close();
}

Status WriteStringToFile(const std::string& path, const Slice& contents) {
  std::unique_ptr<AppendFile> f;
  FLOWKV_RETURN_IF_ERROR(AppendFile::Open(path, /*reopen=*/false, &f));
  FLOWKV_RETURN_IF_ERROR(f->Append(contents));
  return f->Close();
}

Status WriteFileDurably(const std::string& path, const Slice& contents) {
  const std::string tmp = path + ".tmp";
  std::unique_ptr<AppendFile> f;
  FLOWKV_RETURN_IF_ERROR(AppendFile::Open(tmp, /*reopen=*/false, &f));
  FLOWKV_RETURN_IF_ERROR(f->Append(contents));
  FLOWKV_RETURN_IF_ERROR(f->Sync());
  FLOWKV_RETURN_IF_ERROR(f->Close());
  return CommitFileRename(tmp, path);
}

Status ReadFileToString(const std::string& path, std::string* contents) {
  contents->clear();
  std::unique_ptr<SequentialFile> f;
  FLOWKV_RETURN_IF_ERROR(SequentialFile::Open(path, &f));
  std::string scratch;
  scratch.resize(64 * 1024);
  while (true) {
    Slice got;
    FLOWKV_RETURN_IF_ERROR(f->Read(scratch.size(), &got, scratch.data()));
    if (got.empty()) {
      return Status::Ok();
    }
    contents->append(got.data(), got.size());
  }
}

}  // namespace flowkv
