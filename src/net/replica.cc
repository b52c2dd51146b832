#include "src/net/replica.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <cstring>

#include "src/common/clock.h"
#include "src/common/env.h"
#include "src/common/file.h"
#include "src/common/logging.h"
#include "src/common/net_hooks.h"
#include "src/net/client.h"
#include "src/obs/metrics.h"
#include "src/obs/reporter.h"

namespace flowkv {
namespace net {

namespace {

bool IsDirectory(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

}  // namespace

Status ListFilesRecursively(const std::string& root, std::vector<std::string>* rel_paths) {
  rel_paths->clear();
  std::vector<std::string> dirs = {""};
  while (!dirs.empty()) {
    const std::string rel_dir = dirs.back();
    dirs.pop_back();
    const std::string abs_dir = rel_dir.empty() ? root : JoinPath(root, rel_dir);
    std::vector<std::string> names;
    FLOWKV_RETURN_IF_ERROR(ListDir(abs_dir, &names));
    for (const std::string& name : names) {
      const std::string rel = rel_dir.empty() ? name : rel_dir + "/" + name;
      if (IsDirectory(JoinPath(root, rel))) {
        dirs.push_back(rel);
      } else {
        rel_paths->push_back(rel);
      }
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// ReplicaPuller
// ---------------------------------------------------------------------------

Status ReplicaPuller::Start(const ReplicaOptions& options,
                            std::unique_ptr<ReplicaPuller>* out) {
  if (options.snapshot_dir.empty()) {
    return Status::InvalidArgument("snapshot_dir is required");
  }
  if (options.primary_port <= 0 || options.self_port <= 0) {
    return Status::InvalidArgument("primary_port and self_port are required");
  }
  if (options.lease_ms > 0 && (!options.promote || !options.local_epoch)) {
    return Status::InvalidArgument(
        "failover (lease_ms > 0) requires the promote and local_epoch hooks");
  }
  auto puller = std::unique_ptr<ReplicaPuller>(new ReplicaPuller());
  puller->options_ = options;
  puller->backoff_rng_ = Random(
      options.jitter_seed != 0
          ? options.jitter_seed
          : static_cast<uint64_t>(MonotonicNanos()) ^
                reinterpret_cast<uintptr_t>(puller.get()));
  FLOWKV_RETURN_IF_ERROR(CreateDirs(options.snapshot_dir));
  puller->thread_ = std::thread(&ReplicaPuller::Run, puller.get());
  *out = std::move(puller);
  return Status::Ok();
}

ReplicaPuller::ReplicaPuller()
    : m_reconnects_(metrics_.GetCounter("repl.reconnects")),
      m_frames_pulled_(metrics_.GetCounter("repl.frames_pulled")),
      m_snapshots_restored_(metrics_.GetCounter("repl.snapshots_restored")),
      m_elections_(metrics_.GetCounter("repl.elections")),
      m_promotions_(metrics_.GetCounter("repl.promotions")) {}

ReplicaPuller::~ReplicaPuller() { Stop(); }

void ReplicaPuller::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    thread_.join();
  }
}

void ReplicaPuller::Run() {
  const bool failover = options_.lease_ms > 0;
  const int64_t lease_nanos = static_cast<int64_t>(options_.lease_ms) * 1'000'000;
  // A standby started with no reachable primary waits out one full lease
  // before its first election, same as losing an established one.
  last_frame_nanos_ = MonotonicNanos();
  int prev_sleep_ms = options_.resubscribe_backoff_ms;
  while (!stop_.load(std::memory_order_acquire)) {
    const int64_t cycle_start = MonotonicNanos();
    PullOnce();
    if (stop_.load(std::memory_order_acquire)) {
      break;
    }
    if (failover && snapshot_loaded() &&
        MonotonicNanos() - last_frame_nanos_ >= lease_nanos) {
      if (RunElection()) {
        break;  // promoted: there is no primary left to pull from
      }
      // Followed (or deferred to) another primary; restart the lease clock
      // so elections don't hot-loop while the new subscription establishes.
      last_frame_nanos_ = MonotonicNanos();
    }
    // A cycle that stayed subscribed a while was productive: restart the
    // backoff ladder instead of compounding it across unrelated outages.
    if (MonotonicNanos() - cycle_start >= 1'000'000'000) {
      prev_sleep_ms = options_.resubscribe_backoff_ms;
    }
    m_reconnects_->Add(1);
    BackoffSleep(&prev_sleep_ms);
  }
}

void ReplicaPuller::BackoffSleep(int* prev_sleep_ms) {
  // Decorrelated jitter, mirroring Client::BackoffSleep: uniform in
  // [base, min(cap, 3 * previous sleep)] so a herd of standbys spreads out
  // instead of re-dialing a restarted primary in lockstep.
  const int base = std::max(1, options_.resubscribe_backoff_ms);
  const int cap = std::max(base, options_.resubscribe_backoff_max_ms);
  const int hi = std::max(base, std::min(cap, *prev_sleep_ms * 3));
  const int sleep_ms = static_cast<int>(backoff_rng_.Range(base, hi));
  *prev_sleep_ms = sleep_ms;
  // Sliced so Stop() is honored within ~20 ms even mid-backoff.
  for (int slept = 0; slept < sleep_ms && !stop_.load(std::memory_order_acquire);
       slept += 20) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min(20, sleep_ms - slept)));
  }
}

Status ReplicaPuller::DialPrimary(int* fd_out) {
  if (NetHooks* hooks = GetNetHooks()) {
    FLOWKV_RETURN_IF_ERROR(hooks->PreConnect(options_.primary_host,
                                             static_cast<uint16_t>(options_.primary_port)));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::FromErrno("socket");
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.primary_port));
  if (::inet_pton(AF_INET, options_.primary_host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad primary address: " + options_.primary_host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status err = Status::ConnectionReset("connect primary: " +
                                               std::string(std::strerror(errno)));
    ::close(fd);
    return err;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Bounded recv so the thread notices Stop() while the primary is idle.
  timeval tv{0, 200 * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (NetHooks* hooks = GetNetHooks()) {
    hooks->DidConnect(fd, options_.primary_host,
                      static_cast<uint16_t>(options_.primary_port));
  }
  *fd_out = fd;
  return Status::Ok();
}

Status ReplicaPuller::SendFrame(int fd, const RequestMessage& msg) {
  std::string payload, frame;
  EncodeRequest(msg, &payload);
  AppendFrame(&frame, payload);
  size_t written = 0;
  while (written < frame.size()) {
    size_t to_send = frame.size() - written;
    if (NetHooks* hooks = GetNetHooks()) {
      FLOWKV_RETURN_IF_ERROR(hooks->PreSend(fd, &to_send));
      if (to_send == 0) {
        // Fault hook clamped the send to nothing (see SendAck); re-ask.
        std::this_thread::yield();
        continue;
      }
    }
    const ssize_t n = ::send(fd, frame.data() + written, to_send, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::ConnectionReset("send to primary: " +
                                     std::string(n < 0 ? std::strerror(errno) : "peer"));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

void ReplicaPuller::PullOnce() {
  // The loopback client applies shipped state to our own server; keep it
  // across cycles (it reconnects itself if the local server restarts).
  if (loopback_ == nullptr) {
    ClientOptions lo;
    lo.host = options_.self_host;
    lo.port = options_.self_port;
    lo.connect_timeout_ms = options_.connect_timeout_ms;
    // Mark the stream as the replication apply path: it must pass the
    // standby's own no-client-writes fence.
    lo.internal_apply = true;
    lo.jitter_seed = options_.jitter_seed;
    if (!Client::Connect(lo, &loopback_).ok()) {
      return;  // local server not up yet; retry next cycle
    }
  }

  int fd = -1;
  if (!DialPrimary(&fd).ok()) {
    return;
  }

  // Subscribe. A fresh snapshot is always shipped, so the carried sequence is
  // informational (logging/metrics on the primary). The carried epoch lets a
  // stale primary fence itself when a standby from a newer epoch shows up.
  {
    RequestMessage sub;
    sub.request_id = 1;
    sub.ops.resize(1);
    sub.ops[0].type = OpType::kReplicaSubscribe;
    sub.ops[0].timestamp = static_cast<int64_t>(applied_seq());
    if (options_.local_epoch) {
      sub.epoch = options_.local_epoch();
    }
    if (!SendFrame(fd, sub).ok()) {
      if (NetHooks* hooks = GetNetHooks()) {
        hooks->DidClose(fd);
      }
      ::close(fd);
      return;
    }
  }

  pending_path_.clear();
  pending_data_.clear();
  snapshot_started_in_cycle_ = false;
  std::string inbuf;

  // Both clocks restart per cycle: the subscribe itself is primary contact.
  last_frame_nanos_ = MonotonicNanos();
  int64_t last_heartbeat_nanos = 0;
  const int64_t lease_nanos = static_cast<int64_t>(options_.lease_ms) * 1'000'000;
  const int heartbeat_ms = options_.heartbeat_ms > 0
                               ? options_.heartbeat_ms
                               : std::max(50, options_.lease_ms / 3);
  const int64_t heartbeat_nanos = static_cast<int64_t>(heartbeat_ms) * 1'000'000;

  bool healthy = true;
  while (healthy && !stop_.load(std::memory_order_acquire)) {
    // Drain complete frames already buffered.
    while (true) {
      Slice input(inbuf);
      Slice payload;
      bool complete = false;
      const size_t before = input.size();
      const Status fs = TryDecodeFrame(&input, &payload, &complete);
      if (!fs.ok()) {
        FLOWKV_LOG(kWarn) << "replica stream corrupt; resubscribing "
                          << LogKv("status", fs.ToString());
        healthy = false;
        break;
      }
      if (!complete) {
        break;
      }
      RequestMessage frame;
      Status s = DecodeRequest(payload, &frame);
      inbuf.erase(0, before - input.size());
      if (s.ok()) {
        last_frame_nanos_ = MonotonicNanos();  // any complete frame renews the lease
        s = HandleFrame(fd, frame);
        m_frames_pulled_->Add(1);
      }
      if (!s.ok()) {
        FLOWKV_LOG(kWarn) << "replica apply failed; resubscribing "
                          << LogKv("status", s.ToString());
        healthy = false;
        break;
      }
    }
    if (!healthy) {
      break;
    }

    // Lease and heartbeat bookkeeping runs every loop turn — the recv below
    // wakes at least every 200 ms (SO_RCVTIMEO) even when the stream idles.
    if (options_.lease_ms > 0) {
      const int64_t now = MonotonicNanos();
      if (now - last_frame_nanos_ >= lease_nanos) {
        FLOWKV_LOG(kWarn) << "primary lease expired "
                          << LogKv("silent_ms", (now - last_frame_nanos_) / 1'000'000)
                          << LogKv("lease_ms", options_.lease_ms);
        break;  // Run() decides whether to elect
      }
      if (now - last_heartbeat_nanos >= heartbeat_nanos) {
        // request_id 0 marks a heartbeat, not an ack (acks carry seq >= 1);
        // the primary replies with a frame carrying its current epoch.
        if (!SendAck(fd, 0).ok()) {
          break;
        }
        last_heartbeat_nanos = now;
      }
    }

    char buf[64 * 1024];
    size_t to_recv = sizeof(buf);
    if (NetHooks* hooks = GetNetHooks()) {
      if (!hooks->PreRecv(fd, &to_recv).ok()) {
        break;
      }
    }
    const ssize_t n = ::recv(fd, buf, to_recv, 0);
    if (n > 0) {
      if (NetHooks* hooks = GetNetHooks()) {
        hooks->DidRecv(fd, buf, static_cast<size_t>(n));
      }
      inbuf.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      break;  // primary went away
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      continue;  // recv timeout: re-check stop flag
    }
    break;
  }

  if (NetHooks* hooks = GetNetHooks()) {
    hooks->DidClose(fd);
  }
  ::close(fd);
}

Status ReplicaPuller::HandleFrame(int fd, const RequestMessage& frame) {
  // Every frame from the primary carries its epoch; remember the newest so
  // an election can never pick an epoch the old primary already used.
  if (frame.epoch > known_primary_epoch_) {
    known_primary_epoch_ = frame.epoch;
  }
  if (frame.request_id == 0) {
    // Heartbeat reply: pure liveness (the lease clock was already renewed by
    // the frame's arrival) — nothing to apply, nothing to ack.
    return Status::Ok();
  }

  // Snapshot frames are applied locally; anything else is a forwarded op
  // batch applied through the loopback client. Every frame is acked with its
  // sequence (= request_id) only after it is durably applied, because the
  // primary releases client responses on our acks.
  if (!frame.ops.empty() && frame.ops[0].type == OpType::kSnapshotFile) {
    for (const OpRequest& op : frame.ops) {
      if (op.type != OpType::kSnapshotFile) {
        return Status::InvalidArgument("mixed snapshot frame");
      }
      FLOWKV_RETURN_IF_ERROR(ApplySnapshotChunk(op));
    }
    return SendAck(fd, frame.request_id);
  }
  if (!frame.ops.empty() && frame.ops[0].type == OpType::kSnapshotDone) {
    FLOWKV_RETURN_IF_ERROR(FinishSnapshot());
    FLOWKV_RETURN_IF_ERROR(SendAck(fd, frame.request_id));
    FLOWKV_LOG(kInfo) << "standby restored snapshot "
                      << LogKv("epoch", frame.ops[0].path);
    return Status::Ok();
  }

  std::vector<OpResult> results;
  FLOWKV_RETURN_IF_ERROR(loopback_->ExecuteRaw(frame.ops, &results));
  // Per-op failures (e.g. NotFound on a replayed remove) are expected and do
  // not break convergence; transport-level failure above does.
  FLOWKV_RETURN_IF_ERROR(SendAck(fd, frame.request_id));
  applied_seq_.store(frame.request_id, std::memory_order_release);
  return Status::Ok();
}

Status ReplicaPuller::ApplySnapshotChunk(const OpRequest& op) {
  if (op.path.empty() || op.path.find("..") != std::string::npos) {
    return Status::InvalidArgument("bad snapshot path: " + op.path);
  }
  if (op.timestamp == 0) {
    // New file begins: flush the previous one first. A fresh offset-0 chunk
    // for the first file of a new snapshot also wipes the staging dir.
    FLOWKV_RETURN_IF_ERROR(FlushPendingFile());
    if (!snapshot_started_in_cycle_) {
      FLOWKV_RETURN_IF_ERROR(RemoveDirRecursively(options_.snapshot_dir));
      FLOWKV_RETURN_IF_ERROR(CreateDirs(options_.snapshot_dir));
      snapshot_started_in_cycle_ = true;
    }
    pending_path_ = op.path;
    pending_data_ = op.value;
    return Status::Ok();
  }
  if (op.path != pending_path_ ||
      static_cast<uint64_t>(op.timestamp) != pending_data_.size()) {
    return Status::InvalidArgument("out-of-order snapshot chunk for " + op.path);
  }
  pending_data_ += op.value;
  return Status::Ok();
}

Status ReplicaPuller::FlushPendingFile() {
  if (pending_path_.empty()) {
    return Status::Ok();
  }
  const std::string abs = JoinPath(options_.snapshot_dir, pending_path_);
  const std::string dir = DirName(abs);
  if (!dir.empty()) {
    FLOWKV_RETURN_IF_ERROR(CreateDirs(dir));
  }
  FLOWKV_RETURN_IF_ERROR(WriteFileDurably(abs, pending_data_));
  pending_path_.clear();
  pending_data_.clear();
  return Status::Ok();
}

Status ReplicaPuller::FinishSnapshot() {
  FLOWKV_RETURN_IF_ERROR(FlushPendingFile());
  snapshot_started_in_cycle_ = false;

  std::string meta_bytes;
  FLOWKV_RETURN_IF_ERROR(
      ReadFileToString(JoinPath(options_.snapshot_dir, "stores.meta"), &meta_bytes));
  StoresMeta meta;
  FLOWKV_RETURN_IF_ERROR(DecodeStoresMeta(meta_bytes, &meta));

  // Restore in id order so a fresh standby assigns the same dense ids the
  // primary uses — forwarded ops reference them directly.
  for (const StoreMetaEntry& store : meta.stores) {
    std::vector<OpRequest> ops(1);
    ops[0].type = OpType::kRestoreStore;
    ops[0].store_id = store.id;
    ops[0].ns = store.ns;
    ops[0].spec = store.spec;
    ops[0].path = options_.snapshot_dir;
    std::vector<OpResult> results;
    FLOWKV_RETURN_IF_ERROR(loopback_->ExecuteRaw(std::move(ops), &results));
    FLOWKV_RETURN_IF_ERROR(results[0].status);
  }
  snapshot_loaded_.store(true, std::memory_order_release);
  m_snapshots_restored_->Add(1);
  return Status::Ok();
}

Status ReplicaPuller::SendAck(int fd, uint64_t seq) {
  ResponseMessage ack;
  ack.request_id = seq;
  ack.results.resize(1);
  ack.results[0].type = OpType::kReplicaSubscribe;
  ack.results[0].status = Status::Ok();
  std::string payload;
  EncodeResponse(ack, &payload);
  // Header and payload stay separate buffers (the server's scatter-gather
  // framing convention); stitch them on the wire per send call.
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(Slice(payload), header);
  const size_t total = kFrameHeaderBytes + payload.size();
  size_t written = 0;
  while (written < total) {
    size_t to_send = total - written;
    if (NetHooks* hooks = GetNetHooks()) {
      FLOWKV_RETURN_IF_ERROR(hooks->PreSend(fd, &to_send));
    }
    if (to_send == 0) {
      // A fault hook clamped the send to nothing. A zero-byte send() reports
      // 0 bytes written — previously misread as a dead peer, killing the
      // replication stream on an injected stall. Re-ask the hook instead.
      std::this_thread::yield();
      continue;
    }
    struct iovec iov[2];
    size_t niov = 0;
    if (written < kFrameHeaderBytes) {
      iov[niov].iov_base = header + written;
      iov[niov].iov_len = kFrameHeaderBytes - written;
      ++niov;
      iov[niov].iov_base = const_cast<char*>(payload.data());
      iov[niov].iov_len = payload.size();
      ++niov;
    } else {
      iov[niov].iov_base = const_cast<char*>(payload.data()) + (written - kFrameHeaderBytes);
      iov[niov].iov_len = payload.size() - (written - kFrameHeaderBytes);
      ++niov;
    }
    // Trim the scatter list to the (possibly clamped) send size.
    size_t remaining = to_send;
    size_t trimmed = 0;
    for (size_t k = 0; k < niov && remaining > 0; ++k) {
      const size_t take = std::min(remaining, static_cast<size_t>(iov[k].iov_len));
      iov[k].iov_len = take;
      remaining -= take;
      ++trimmed;
    }
    struct msghdr mh;
    std::memset(&mh, 0, sizeof(mh));
    mh.msg_iov = iov;
    mh.msg_iovlen = trimmed;
    const ssize_t n = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n == 0 || (n < 0 && errno == EINTR)) {
      continue;  // zero progress or a signal: retry, not a dead peer
    }
    return Status::ConnectionReset("ack send: " + std::string(std::strerror(errno)));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Election
// ---------------------------------------------------------------------------

bool ReplicaPuller::PollPeer(const Endpoint& ep, ClusterView* view) {
  ClientOptions co;
  co.host = ep.host;
  co.port = ep.port;
  // Short and single-shot: a dead peer must not stretch the election past
  // the stagger budget of lower-priority standbys.
  co.connect_timeout_ms = std::min(500, std::max(1, options_.connect_timeout_ms));
  co.request_timeout_ms = 500;
  co.max_retries = 0;
  co.max_reconnect_attempts = 1;
  co.jitter_seed = options_.jitter_seed != 0 ? options_.jitter_seed : 1;
  // The connect handshake carries the peer's view: one round trip.
  std::unique_ptr<Client> peer;
  if (!Client::Connect(co, &peer).ok()) {
    return false;
  }
  *view = peer->handshake_view();
  return view->epoch != 0;
}

bool ReplicaPuller::RunElection() {
  m_elections_->Add(1);
  const uint64_t local = options_.local_epoch();

  // One poll pass over the peers: the newest epoch anyone holds, and the
  // best live primary. `newest` seeds at everything we already know — an
  // election may never pick an epoch the old primary (or we) already used.
  auto poll_peers = [this](uint64_t* newest, Endpoint* primary_ep,
                           uint64_t* primary_epoch) {
    *primary_epoch = 0;
    for (const Endpoint& ep : options_.peers) {
      if (stop_.load(std::memory_order_acquire)) {
        return;
      }
      ClusterView view;
      if (!PollPeer(ep, &view)) {
        continue;
      }
      *newest = std::max(*newest, view.epoch);
      if (view.role == kRolePrimary && view.epoch > *primary_epoch) {
        *primary_epoch = view.epoch;
        *primary_ep = ep;
      }
    }
  };

  uint64_t newest = std::max(known_primary_epoch_, local);
  Endpoint primary_ep;
  uint64_t primary_epoch = 0;
  poll_peers(&newest, &primary_ep, &primary_epoch);

  // A live primary holding an epoch at least as new as anything we know is
  // legitimate: follow it instead of promoting. (Following an OLDER-epoch
  // primary would be a stale one — our epoch-stamped subscribe would only
  // fence it.)
  const auto follow = [this](const Endpoint& ep, uint64_t epoch) {
    FLOWKV_LOG(kInfo) << "election: following live primary "
                      << LogKv("endpoint", ep.host + ":" + std::to_string(ep.port))
                      << LogKv("epoch", static_cast<int64_t>(epoch));
    options_.primary_host = ep.host;
    options_.primary_port = ep.port;
    known_primary_epoch_ = std::max(known_primary_epoch_, epoch);
  };
  if (primary_epoch != 0 && primary_epoch >= newest) {
    follow(primary_ep, primary_epoch);
    return false;
  }

  // No legitimate primary: stagger by priority so the highest-priority live
  // standby promotes first and everyone else finds it on the re-poll. The
  // jitter breaks (probabilistically) ties between equal priorities.
  const int kMaxPriority = 10;
  const int steps = std::max(0, kMaxPriority - options_.promotion_priority);
  const int64_t stagger_ms =
      static_cast<int64_t>(steps) * std::max(0, options_.promotion_stagger_ms) +
      backoff_rng_.Range(0, std::max(1, options_.promotion_stagger_ms / 4));
  FLOWKV_LOG(kInfo) << "election: no live primary "
                    << LogKv("known_epoch", static_cast<int64_t>(newest))
                    << LogKv("stagger_ms", stagger_ms);
  for (int64_t slept = 0;
       slept < stagger_ms && !stop_.load(std::memory_order_acquire); slept += 20) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min<int64_t>(20, stagger_ms - slept)));
  }
  if (stop_.load(std::memory_order_acquire)) {
    return false;
  }

  // Re-poll: a higher-priority standby may have promoted during the wait.
  poll_peers(&newest, &primary_ep, &primary_epoch);
  if (primary_epoch != 0 && primary_epoch >= newest) {
    follow(primary_ep, primary_epoch);
    return false;
  }

  const uint64_t target = newest + 1;
  const Status s = options_.promote(target);
  if (!s.ok()) {
    // Promote() can lose benign races (a snapshot attach in flight, an epoch
    // adopted concurrently); the next lease expiry re-runs the election.
    FLOWKV_LOG(kWarn) << "election: promotion failed "
                      << LogKv("epoch", static_cast<int64_t>(target))
                      << LogKv("status", s.ToString());
    return false;
  }
  promoted_.store(true, std::memory_order_release);
  m_promotions_->Add(1);
  FLOWKV_LOG(kInfo) << "election: promoted self to primary "
                    << LogKv("epoch", static_cast<int64_t>(target));
  return true;
}

}  // namespace net
}  // namespace flowkv
