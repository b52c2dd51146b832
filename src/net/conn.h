// Per-connection state of the reactor server: a growable read buffer the
// frame decoder slices from, and a bounded outbox of encoded buffers. A
// Connection is owned by exactly one reactor thread — all reads, writes and
// buffer mutations happen there. The only cross-thread access is the atomic
// outbox_bytes() gauge, which the stats builder may read from any thread.
//
// Responses are queued as (header, payload) pairs and flushed with a single
// scatter-gather sendmsg() spanning as many queued buffers as fit, so the
// server never concatenates header + payload into a per-frame string.
//
// Backpressure: when the outbox exceeds its byte budget the reactor stops
// polling the socket for readability, so a client that pipelines faster
// than it drains responses is throttled by TCP flow control instead of
// ballooning server memory.
#ifndef SRC_NET_CONN_H_
#define SRC_NET_CONN_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>

#include "src/common/slice.h"
#include "src/common/status.h"

namespace flowkv {
namespace net {

class Connection {
 public:
  // Takes ownership of `fd` (closed on destruction).
  Connection(uint64_t id, int fd, size_t max_outbox_bytes);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  uint64_t id() const { return id_; }
  int fd() const { return fd_; }

  // Non-blocking read into the buffer. OK with *eof=true when the peer shut
  // down cleanly; ConnectionReset on abrupt errors.
  Status ReadFromSocket(bool* eof);

  // Bytes currently buffered but not yet parsed into frames.
  Slice buffered() const { return Slice(inbuf_.data() + consumed_, inbuf_.size() - consumed_); }
  // Marks `n` leading buffered bytes as parsed. May compact the buffer, which
  // invalidates any Slice taken from buffered().
  void Consume(size_t n);

  // Queues one contiguous encoded frame for writing.
  void QueueFrame(std::string frame);

  // Queues a frame as two buffers — the fixed 8-byte header and the payload —
  // without concatenating them; FlushWrites stitches them back together on
  // the socket with scatter-gather I/O. An empty payload queues only the
  // header.
  void QueueFrameParts(std::string header, std::string payload);

  // Non-blocking write of as much of the outbox as the socket accepts, using
  // one sendmsg() per kernel round trip across all queued buffers. A send
  // that makes zero progress (a PreSend fault clamping the length to 0, or
  // send() returning 0) is treated as would-block, never spun on.
  Status FlushWrites();

  bool has_pending_writes() const { return !outbox_.empty(); }
  size_t outbox_bytes() const { return outbox_bytes_.load(std::memory_order_relaxed); }
  // True when the outbox is over budget and reads should stay paused.
  bool over_outbox_budget() const { return outbox_bytes() > max_outbox_bytes_; }

  // Close requested once the outbox drains (e.g. after a protocol error
  // response, or during drain).
  void set_close_after_flush() { close_after_flush_ = true; }
  bool close_after_flush() const { return close_after_flush_; }

 private:
  uint64_t id_;
  int fd_;
  size_t max_outbox_bytes_;

  std::string inbuf_;
  size_t consumed_ = 0;

  std::deque<std::string> outbox_;
  // Total unsent bytes across the outbox. Atomic only so the stats snapshot
  // can read another reactor's connections without a lock; all writes happen
  // on the owning reactor thread.
  std::atomic<size_t> outbox_bytes_{0};
  size_t front_offset_ = 0;  // bytes of outbox_.front() already written

  bool close_after_flush_ = false;
};

}  // namespace net
}  // namespace flowkv

#endif  // SRC_NET_CONN_H_
