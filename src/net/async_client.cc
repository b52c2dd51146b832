#include "src/net/async_client.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/common/net_hooks.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flowkv {
namespace net {

namespace {

int64_t DeadlineFromNow(int timeout_ms) {
  return MonotonicNanos() + static_cast<int64_t>(timeout_ms) * 1'000'000;
}

int PollTimeoutMs(int64_t deadline_nanos) {
  const int64_t remaining = deadline_nanos - MonotonicNanos();
  if (remaining <= 0) {
    return 0;
  }
  return static_cast<int>(std::min<int64_t>(remaining / 1'000'000 + 1, 60'000));
}

// Rough wire footprint of a buffered op, for the batch byte threshold.
size_t OpFootprint(const OpRequest& op) {
  return 32 + op.key.size() + op.value.size() + op.ns.size() + op.path.size() +
         op.sources.size() * 20;
}

// A batch the server shed whole before dispatch: every result kOverloaded.
// Guaranteed un-executed, so the client may retry it like a fresh request.
bool ShedWhole(const std::vector<OpResult>& results) {
  if (results.empty()) {
    return false;
  }
  for (const OpResult& r : results) {
    if (!r.status.IsOverloaded()) {
      return false;
    }
  }
  return true;
}

// A batch the server fenced whole before dispatch (standby / stale-epoch
// target): like shedding, guaranteed un-executed and safe to blind-retry —
// against whichever endpoint the cluster-view refresh picks.
bool FencedWhole(const std::vector<OpResult>& results) {
  if (results.empty()) {
    return false;
  }
  for (const OpResult& r : results) {
    if (!r.status.IsFencedOff()) {
      return false;
    }
  }
  return true;
}

}  // namespace

AsyncClient::AsyncClient(ClientOptions options)
    : options_(std::move(options)),
      // Distinct seeds across clients is the point of the jitter; mix the
      // object address with the clock unless the test pinned a seed.
      backoff_rng_(options_.jitter_seed != 0
                       ? options_.jitter_seed
                       : static_cast<uint64_t>(MonotonicNanos()) ^
                             reinterpret_cast<uintptr_t>(this)),
      cache_(options_.read_ahead_cache_bytes) {
  primary_ = {options_.host, options_.port};
}

const Endpoint& AsyncClient::CurrentEndpoint() const {
  return endpoint_index_ == 0 ? primary_ : options_.standbys[endpoint_index_ - 1];
}

Status AsyncClient::Connect(const ClientOptions& options,
                            std::unique_ptr<AsyncClient>* out) {
  auto client = std::unique_ptr<AsyncClient>(new AsyncClient(options));
  // The reader starts parked (no fd yet); ConnectSocket wakes it. Starting it
  // before the first connect keeps the lifecycle uniform: there is never a
  // connected socket without a reader to drain it.
  client->reader_ = std::thread(&AsyncClient::ReaderMain, client.get());
  FLOWKV_RETURN_IF_ERROR(
      client->EnsureConnected(DeadlineFromNow(options.connect_timeout_ms)));
  *out = std::move(client);
  return Status::Ok();
}

AsyncClient::~AsyncClient() {
  CloseSocket();
  {
    MutexLock lock(&mu_);
    stop_ = true;
    cv_.notify_all();
  }
  if (reader_.joinable()) {
    reader_.join();
  }
}

bool AsyncClient::push_negotiated() const {
  MutexLock lock(&mu_);
  return cap_push_;
}

// ---------------------------------------------------------------------------
// Connection lifecycle
// ---------------------------------------------------------------------------

Status AsyncClient::ConnectSocket() {
  CloseSocket();
  const Endpoint& ep = CurrentEndpoint();
  // The unix path only replaces the primary endpoint; standby failover
  // stays on TCP (a standby is, by definition, on another host).
  const bool use_unix = endpoint_index_ == 0 && !options_.unix_socket_path.empty();
  int fd = -1;
  FLOWKV_RETURN_IF_ERROR(ConnectStreamSocket(options_, ep, use_unix, &fd));
  MutexLock lock(&mu_);
  fd_ = fd;
  // Publish the fd to the reader. reader_active_ is raised HERE, not by the
  // reader itself, so the CloseSocket handshake ("wait until reader_active_
  // drops, then close") is correct even if close races the reader's wake-up.
  reader_active_ = true;
  // A fresh connection may be to a different (older) server — e.g. a
  // failover standby — so capabilities must be re-negotiated.
  cap_trace_ = false;
  cap_push_ = false;
  cap_epoch_ = false;
  cv_.notify_all();
  return Status::Ok();
}

void AsyncClient::CloseSocket() {
  int doomed = -1;
  {
    MutexLock lock(&mu_);
    if (fd_ < 0) {
      return;
    }
    // Wake the reader out of poll()/recv() without invalidating the fd
    // number: the descriptor stays open until the reader confirms it will
    // never touch it again, so a recycled fd can never be read by a stale
    // recv. (shutdown() makes recv return 0 — a clean stream end.)
    ::shutdown(fd_, SHUT_RDWR);
    while (reader_active_) {
      cv_.wait(mu_);
    }
    doomed = fd_;
    fd_ = -1;
    cap_trace_ = false;
    cap_push_ = false;
    cap_epoch_ = false;
    // Release the reader parked on "fd_ unchanged" so it can re-park for the
    // next connection.
    cv_.notify_all();
  }
  if (NetHooks* hooks = GetNetHooks()) {
    hooks->DidClose(doomed);
  }
  ::close(doomed);
  // Reconnect coherence rule (prefetch.h): a promoted standby must never be
  // fronted by the dead primary's pushes. Local append counts survive — any
  // partial re-push against them fails the count equality, a safe miss.
  // served_hits_ also survives: those windows were already handed to the
  // caller, and their buffered kDropWindow replays at-least-once.
  cache_.Clear();
}

bool AsyncClient::BackoffSleep(int* prev_sleep_ms, int64_t deadline_nanos) {
  // Decorrelated jitter (Exponential Backoff And Jitter, AWS builders'
  // library): sleep uniform in [base, min(cap, 3 * previous sleep)] — herds
  // spread out instead of reconnecting in lockstep after a server restart.
  const int base = std::max(1, options_.reconnect_backoff_ms);
  const int cap = std::max(base, options_.reconnect_backoff_max_ms);
  const int hi = std::max(base, std::min(cap, *prev_sleep_ms * 3));
  int sleep_ms = static_cast<int>(backoff_rng_.Range(base, hi));
  *prev_sleep_ms = sleep_ms;
  const int64_t remaining_ms = (deadline_nanos - MonotonicNanos()) / 1'000'000;
  if (remaining_ms <= 0) {
    return false;
  }
  // Cap by the request deadline: sleeping past it just converts a retryable
  // failure into a guaranteed timeout.
  sleep_ms = static_cast<int>(std::min<int64_t>(sleep_ms, remaining_ms));
  std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  return MonotonicNanos() < deadline_nanos;
}

Status AsyncClient::EnsureConnected(int64_t deadline_nanos) {
  {
    MutexLock lock(&mu_);
    if (fd_ >= 0) {
      return Status::Ok();
    }
  }
  obs::Counter* failovers = obs::MetricsRegistry::Global().GetCounter("client.failovers");
  int prev_sleep_ms = options_.reconnect_backoff_ms;
  Status last = Status::ConnectionReset("not connected");
  for (int attempt = 0; attempt < options_.max_reconnect_attempts; ++attempt) {
    if (attempt > 0) {
      // The current endpoint refused us: advance round-robin through
      // primary + standbys before the next try.
      if (NumEndpoints() > 1) {
        endpoint_index_ = (endpoint_index_ + 1) % NumEndpoints();
        failovers->Add(1);
        FLOWKV_LOG(kInfo) << "async client failing over "
                          << LogKv("endpoint", CurrentEndpoint().host + ":" +
                                                   std::to_string(CurrentEndpoint().port));
      }
      if (!BackoffSleep(&prev_sleep_ms, deadline_nanos)) {
        return Status::TimedOut("reconnect deadline exhausted: " + last.ToString());
      }
    }
    last = ConnectSocket();
    if (last.ok()) {
      // Probe before re-opening stores: the probe adopts the server's
      // cluster epoch, so the re-opens below are already correctly stamped.
      NegotiateCaps(deadline_nanos);
      bool probe_ok = false;
      {
        MutexLock lock(&mu_);
        probe_ok = fd_ >= 0;
      }
      if (!probe_ok) {
        last = Status::ConnectionReset("capability probe failed");
        continue;
      }
      last = ReopenStores(deadline_nanos);
      if (last.ok()) {
        RegisterPushStores(deadline_nanos);
        return Status::Ok();
      }
      CloseSocket();
      // kFencedOff here means the endpoint is a standby (kOpenStore is a
      // replicated write): keep rotating until we land on the primary.
      if (!last.IsConnectionReset() && !last.IsOverloaded() && !last.IsFencedOff()) {
        return last;
      }
    }
  }
  return last;
}

void AsyncClient::NegotiateCaps(int64_t deadline_nanos) {
  // One kGatherStats capability probe (protocol.h) learns every extension.
  // Old servers answer the probe with a per-op error (harmless), so
  // mixed-version pairs interoperate with all extensions silently off.
  std::vector<OpRequest> ops(1);
  ops[0].type = OpType::kGatherStats;
  ops[0].store_id = kProbeStoreId;
  std::vector<OpResult> results;
  const Status s = TryRequest(ops, &results, deadline_nanos);
  if (!s.ok()) {
    // A failed probe leaves the stream state unknown; drop the socket so the
    // caller's retry machinery reconnects rather than reading a stale frame.
    CloseSocket();
    return;
  }
  bool trace = false;
  bool push = false;
  bool epoch_cap = false;
  uint64_t seen_epoch = 0;
  if (results[0].status.ok()) {
    for (const auto& field : results[0].stat_fields) {
      if (field.first == kCapTraceContext && field.second != 0) {
        trace = true;
      } else if (field.first == kCapPrefetchPush && field.second != 0) {
        push = true;
      } else if (field.first == kCapClusterEpoch && field.second != 0) {
        epoch_cap = true;
      } else if (field.first == kStatClusterEpoch) {
        seen_epoch = static_cast<uint64_t>(field.second);
      }
    }
  }
  MutexLock lock(&mu_);
  cap_trace_ = trace;
  cap_push_ = push && options_.enable_prefetch_push;
  cap_epoch_ = epoch_cap;
  // Epochs are cluster-wide monotonic; keeping the max ever seen is what
  // fences a stale former primary.
  cluster_epoch_ = std::max(cluster_epoch_, seen_epoch);
}

void AsyncClient::RegisterPushStores(int64_t deadline_nanos) {
  {
    MutexLock lock(&mu_);
    if (!cap_push_) {
      return;
    }
  }
  // (Re)register every open AAR store for pushes on this connection. Server
  // ids are already fresh (ReopenStores ran on this connection), so no
  // handle translation. Best-effort: a transport failure drops the socket
  // and the next request's reconnect negotiates again.
  std::vector<OpRequest> regs;
  for (const StoreReg& reg : stores_) {
    if (reg.pattern != StorePattern::kAppendAligned) {
      continue;
    }
    OpRequest op;
    op.type = OpType::kEttRegister;
    op.store_id = reg.server_id;
    regs.push_back(std::move(op));
  }
  if (regs.empty()) {
    return;
  }
  std::vector<OpResult> reg_results;
  if (!TryRequest(regs, &reg_results, deadline_nanos).ok()) {
    CloseSocket();
  }
}

void AsyncClient::RefreshClusterView(int64_t deadline_nanos) {
  CloseSocket();
  obs::MetricsRegistry::Global().GetCounter("client.cluster_refreshes")->Add(1);
  const size_t start = endpoint_index_;
  size_t best_index = start;
  uint64_t best_epoch = 0;
  for (size_t i = 0; i < NumEndpoints(); ++i) {
    if (MonotonicNanos() >= deadline_nanos) {
      break;
    }
    endpoint_index_ = (start + i) % NumEndpoints();
    const Endpoint& ep = CurrentEndpoint();
    // A short-lived blocking client keeps the poll off the reader-thread
    // machinery (there is no connected socket to demux right now anyway).
    ClientOptions co;
    co.host = ep.host;
    co.port = ep.port;
    co.connect_timeout_ms = std::min(500, std::max(1, options_.connect_timeout_ms));
    co.request_timeout_ms = 500;
    co.max_retries = 0;
    co.max_reconnect_attempts = 1;
    co.jitter_seed = options_.jitter_seed != 0 ? options_.jitter_seed : 1;
    std::unique_ptr<Client> peer;
    if (!Client::Connect(co, &peer).ok()) {
      continue;
    }
    std::vector<std::pair<std::string, int64_t>> fields;
    if (!peer->ClusterInfo(&fields).ok()) {
      continue;
    }
    int64_t role = -1;
    uint64_t epoch = 0;
    for (const auto& field : fields) {
      if (field.first == kStatClusterRole) {
        role = field.second;
      } else if (field.first == kStatClusterEpoch) {
        epoch = static_cast<uint64_t>(field.second);
      }
    }
    // Only a primary is worth redirecting to; between two claimants the
    // higher epoch is the real one.
    if (role == kRolePrimary && epoch > best_epoch) {
      best_epoch = epoch;
      best_index = endpoint_index_;
    }
  }
  endpoint_index_ = best_index;
  if (best_epoch != 0) {
    MutexLock lock(&mu_);
    cluster_epoch_ = std::max(cluster_epoch_, best_epoch);
  }
}

Status AsyncClient::ReopenStores(int64_t deadline_nanos) {
  // Server ids are not stable across a server restart or failover; refresh
  // the handle → server-id mapping by re-opening every registered store.
  for (StoreReg& reg : stores_) {
    std::vector<OpRequest> ops(1);
    ops[0].type = OpType::kOpenStore;
    ops[0].ns = reg.ns;
    ops[0].spec = reg.spec;
    std::vector<OpResult> results;
    FLOWKV_RETURN_IF_ERROR(TryRequest(ops, &results, deadline_nanos));
    FLOWKV_RETURN_IF_ERROR(results[0].status);
    if (results[0].pattern != reg.pattern) {
      return Status::Internal("store " + reg.ns + " changed pattern across reconnect");
    }
    reg.server_id = results[0].store_id;
  }
  // Rebuild the push-routing map for the new server-id generation.
  MutexLock lock(&mu_);
  sid_to_handle_.clear();
  for (uint64_t h = 0; h < stores_.size(); ++h) {
    sid_to_handle_[stores_[h].server_id] = h;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Reader thread
// ---------------------------------------------------------------------------

void AsyncClient::ReaderMain() {
  mu_.Lock();
  while (true) {
    // Park until the caller publishes a connected fd (or shuts down).
    while (!stop_ && !(reader_active_ && fd_ >= 0)) {
      cv_.wait(mu_);
    }
    if (stop_) {
      break;
    }
    const int fd = fd_;
    mu_.Unlock();
    ReaderLoop(fd);
    mu_.Lock();
    // The stream is gone — broken by the peer, or shut down by the caller.
    // Either way every in-flight call fails as a retryable reset, and the
    // caller may now close the descriptor.
    FailPendingLocked(Status::ConnectionReset("connection lost"));
    reader_active_ = false;
    cv_.notify_all();
    // Wait for CloseSocket to retire this fd before re-parking, so the
    // "reader_active_ && fd_ >= 0" predicate above can only ever refer to a
    // NEW connection, never the one that just died.
    while (!stop_ && fd_ == fd) {
      cv_.wait(mu_);
    }
    if (stop_) {
      break;
    }
  }
  mu_.Unlock();
}

void AsyncClient::ReaderLoop(int fd) {
  std::string inbuf;
  int64_t last_progress_nanos = MonotonicNanos();
  while (true) {
    // Drain every complete frame already buffered before blocking again.
    while (true) {
      Slice input(inbuf);
      Slice payload;
      bool complete = false;
      const size_t before = input.size();
      if (!TryDecodeFrame(&input, &payload, &complete, options_.max_frame_bytes).ok()) {
        // A corrupt frame means the byte stream is unsyncable — treat it
        // like a peer reset; pending calls fail and retry on a fresh
        // connection.
        return;
      }
      if (!complete) {
        break;
      }
      ResponseMessage response;
      const bool decoded = DecodeResponse(payload, &response).ok();
      inbuf.erase(0, before - input.size());
      if (!decoded || !DispatchFrame(std::move(response))) {
        return;
      }
      last_progress_nanos = MonotonicNanos();
    }

    // A partially-buffered frame is subject to the mid-frame stall bound:
    // the server writes frames contiguously, so prolonged silence here means
    // a broken (or length-corrupted) stream, not a quiet connection.
    const bool mid_frame = !inbuf.empty();
    int timeout_ms = 60'000;  // idle wake-up slice; shutdown() also wakes us
    if (mid_frame && options_.frame_stall_timeout_ms > 0) {
      const int64_t stall_left_ms =
          options_.frame_stall_timeout_ms -
          (MonotonicNanos() - last_progress_nanos) / 1'000'000;
      timeout_ms = static_cast<int>(
          std::min<int64_t>(timeout_ms, std::max<int64_t>(stall_left_ms, 0)));
    }
    pollfd pfd = {fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r == 0) {
      if (mid_frame && options_.frame_stall_timeout_ms > 0 &&
          MonotonicNanos() - last_progress_nanos >=
              static_cast<int64_t>(options_.frame_stall_timeout_ms) * 1'000'000) {
        return;  // frame stalled mid-read
      }
      continue;
    }
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    char buf[64 * 1024];
    size_t to_recv = sizeof(buf);
    if (NetHooks* hooks = GetNetHooks()) {
      if (!hooks->PreRecv(fd, &to_recv).ok()) {
        return;
      }
    }
    const ssize_t n = ::recv(fd, buf, to_recv, 0);
    if (n > 0) {
      if (NetHooks* hooks = GetNetHooks()) {
        hooks->DidRecv(fd, buf, static_cast<size_t>(n));
      }
      inbuf.append(buf, static_cast<size_t>(n));
      last_progress_nanos = MonotonicNanos();
      continue;
    }
    if (n == 0) {
      return;  // clean close (includes our own shutdown())
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      continue;
    }
    return;
  }
}

bool AsyncClient::DispatchFrame(ResponseMessage response) {
  if (response.request_id == kPushRequestId) {
    // Unsolicited server push of a closed window's chunk.
    if (response.results.size() != 1 ||
        response.results[0].type != OpType::kPushChunk) {
      return false;  // protocol violation: unsyncable stream
    }
    OpResult& push = response.results[0];
    uint64_t handle = 0;
    {
      MutexLock lock(&mu_);
      auto it = sid_to_handle_.find(push.store_id);
      if (it == sid_to_handle_.end()) {
        // A push for a store this client never mapped (e.g. raced a
        // reconnect's remapping). Dropping it is always safe: the read
        // degrades to a remote miss.
        return true;
      }
      handle = it->second;
    }
    cache_.OnPush(handle, push.window, push.push_seq, std::move(push.chunk));
    return true;
  }

  MutexLock lock(&mu_);
  auto it = pending_.find(response.request_id);
  if (it == pending_.end()) {
    // A late response to a call that already timed out — the caller closes
    // the socket after any failed attempt, but the frame may have been
    // buffered before the close landed. Dropping it is safe.
    return true;
  }
  PendingCall* call = it->second;
  pending_.erase(it);
  call->response = std::move(response);
  call->status = Status::Ok();
  call->done = true;
  cv_.notify_all();
  return true;
}

void AsyncClient::FailPendingLocked(const Status& status) {
  for (auto& [id, call] : pending_) {
    call->status = status;
    call->done = true;
  }
  pending_.clear();
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Request path (caller thread)
// ---------------------------------------------------------------------------

Status AsyncClient::WriteAll(int fd, const Slice& data, int64_t deadline_nanos) {
  size_t written = 0;
  while (written < data.size()) {
    size_t to_send = data.size() - written;
    if (NetHooks* hooks = GetNetHooks()) {
      FLOWKV_RETURN_IF_ERROR(hooks->PreSend(fd, &to_send));
    }
    const ssize_t n = ::send(fd, data.data() + written, to_send, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd = {fd, POLLOUT, 0};
      const int r = ::poll(&pfd, 1, PollTimeoutMs(deadline_nanos));
      if (r == 0) {
        // poll slices are capped (PollTimeoutMs), so a zero return only
        // means this slice elapsed — time out on the deadline, not the cap.
        if (MonotonicNanos() >= deadline_nanos) {
          return Status::TimedOut("request write");
        }
        continue;
      }
      if (r < 0 && errno != EINTR) {
        return Status::FromErrno("poll");
      }
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return Status::ConnectionReset("send: " + std::string(std::strerror(errno)));
  }
  return Status::Ok();
}

Status AsyncClient::AwaitCall(uint64_t request_id, PendingCall* call,
                              int64_t deadline_nanos) {
  MutexLock lock(&mu_);
  while (!call->done) {
    if (MonotonicNanos() >= deadline_nanos) {
      // Unlink first so the reader can never fill a stack frame we are
      // about to leave.
      pending_.erase(request_id);
      return Status::TimedOut("response wait");
    }
    cv_.wait_for(mu_, std::chrono::milliseconds(PollTimeoutMs(deadline_nanos)));
  }
  return call->status;
}

Status AsyncClient::TryRequest(const std::vector<OpRequest>& ops,
                               std::vector<OpResult>* results, int64_t deadline_nanos) {
  RequestMessage request;
  request.ops = ops;
  // Propagate the remaining time so the server can shed the batch once we
  // have given up on it.
  const int64_t remaining_ms = (deadline_nanos - MonotonicNanos()) / 1'000'000;
  if (remaining_ms <= 0) {
    return Status::TimedOut("request deadline exhausted before send");
  }
  request.deadline_ms = static_cast<uint32_t>(remaining_ms);

  PendingCall call;
  int fd = -1;
  {
    MutexLock lock(&mu_);
    if (fd_ < 0 || !reader_active_) {
      return Status::ConnectionReset("not connected");
    }
    fd = fd_;
    request.request_id = next_request_id_++;
    // Distributed tracing: only once the capability probe has confirmed the
    // server accepts the extension block (old decoders reject trailing
    // bytes and would drop the connection).
    if (cap_trace_ && obs::Tracing::enabled()) {
      request.trace_id = backoff_rng_.Next() | 1;  // nonzero: 0 means untraced
      request.span_id = request.request_id;
      request.trace_flags = 1;  // sampled
    }
    // Epoch fencing (client.h): stamp the newest adopted epoch so a stale
    // former primary fences itself instead of committing our writes.
    if (cap_epoch_) {
      request.epoch = cluster_epoch_;
      request.internal_apply = options_.internal_apply;
    }
    pending_[request.request_id] = &call;
  }
  obs::TraceSpan batch_span("client_batch", "client");
  batch_span.AddArg("trace_id", static_cast<int64_t>(request.trace_id));
  batch_span.AddArg("ops", static_cast<int64_t>(ops.size()));

  std::string payload;
  EncodeRequest(request, &payload);
  if (payload.size() > options_.max_frame_bytes) {
    MutexLock lock(&mu_);
    pending_.erase(request.request_id);
    return Status::InvalidArgument("request exceeds max frame size (" +
                                   std::to_string(payload.size()) + " bytes)");
  }
  std::string frame;
  frame.reserve(payload.size() + kFrameHeaderBytes);
  AppendFrame(&frame, payload);

  const Status write_status = WriteAll(fd, frame, deadline_nanos);
  if (!write_status.ok()) {
    MutexLock lock(&mu_);
    pending_.erase(request.request_id);
    return write_status;
  }

  FLOWKV_RETURN_IF_ERROR(AwaitCall(request.request_id, &call, deadline_nanos));
  if (call.response.results.size() != ops.size()) {
    return Status::Internal("response arity mismatch");
  }
  *results = std::move(call.response.results);
  return Status::Ok();
}

Status AsyncClient::SendRequest(const std::vector<OpRequest>& ops,
                                std::vector<OpResult>* results,
                                bool translate_handles) {
  obs::Counter* retries = obs::MetricsRegistry::Global().GetCounter("client.retries");
  const int64_t deadline = DeadlineFromNow(options_.request_timeout_ms);
  int prev_sleep_ms = options_.reconnect_backoff_ms;
  Status last;
  // One initial attempt plus up to max_retries re-sends, all under one
  // deadline: a dead server costs one request_timeout_ms, not a livelock.
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      retries->Add(1);
      if (!BackoffSleep(&prev_sleep_ms, deadline)) {
        return Status::TimedOut("retry deadline exhausted: " + last.ToString());
      }
    }
    last = EnsureConnected(deadline);
    if (last.ok()) {
      // Translate client handles to the server ids of the current
      // connection generation (they change across a server restart).
      std::vector<OpRequest> wire = ops;
      if (translate_handles) {
        for (OpRequest& op : wire) {
          if (op.type != OpType::kPing && op.type != OpType::kOpenStore) {
            if (op.store_id >= stores_.size()) {
              return Status::InvalidArgument("unknown store handle " +
                                             std::to_string(op.store_id));
            }
            op.store_id = stores_[op.store_id].server_id;
          }
        }
      }
      last = TryRequest(wire, results, deadline);
      if (last.ok()) {
        if (ShedWhole(*results)) {
          // Nothing executed; back off and re-send on the same connection.
          last = Status::Overloaded("server shed the batch");
          continue;
        }
        if (FencedWhole(*results)) {
          // Fenced pre-dispatch, nothing executed: this endpoint is a
          // standby or our epoch is stale. Re-learn who the primary is and
          // re-send there within the same deadline/budget.
          last = Status::FencedOff(results->front().status.message());
          RefreshClusterView(deadline);
          continue;
        }
        return Status::Ok();
      }
      // Any failed attempt leaves the stream in an unknown state (a late or
      // half-read response may still be queued on the socket); drop the
      // connection so the next request starts on a fresh one instead of
      // reading a stale frame.
      CloseSocket();
    }
    if (!last.IsConnectionReset() && !last.IsOverloaded() && !last.IsFencedOff()) {
      // Timeouts and hard errors are not retried: the request may have been
      // applied, and only the caller knows whether re-sending is safe.
      return last;
    }
  }
  return last;
}

// ---------------------------------------------------------------------------
// Public ops
// ---------------------------------------------------------------------------

Status AsyncClient::Ping() {
  FLOWKV_RETURN_IF_ERROR(Flush());
  std::vector<OpRequest> ops(1);
  ops[0].type = OpType::kPing;
  std::vector<OpResult> results;
  FLOWKV_RETURN_IF_ERROR(SendRequest(ops, &results));
  return results[0].status;
}

Status AsyncClient::OpenStore(const std::string& ns, const OperatorStateSpec& spec,
                              uint64_t* handle, StorePattern* pattern) {
  FLOWKV_RETURN_IF_ERROR(Flush());
  std::vector<OpRequest> ops(1);
  ops[0].type = OpType::kOpenStore;
  ops[0].ns = ns;
  ops[0].spec = spec;
  std::vector<OpResult> results;
  FLOWKV_RETURN_IF_ERROR(SendRequest(ops, &results));
  FLOWKV_RETURN_IF_ERROR(results[0].status);

  StoreReg reg;
  reg.ns = ns;
  reg.spec = spec;
  reg.server_id = results[0].store_id;
  reg.pattern = results[0].pattern;
  *handle = stores_.size();
  if (pattern != nullptr) {
    *pattern = reg.pattern;
  }
  const StorePattern opened_pattern = reg.pattern;
  stores_.push_back(std::move(reg));

  bool push = false;
  {
    MutexLock lock(&mu_);
    sid_to_handle_[stores_.back().server_id] = *handle;
    push = cap_push_;
  }
  if (push && opened_pattern == StorePattern::kAppendAligned) {
    // Subscribe the new store to pushes. Best-effort — a failure (or a
    // reconnect mid-send, which re-registers everything in NegotiateCaps
    // anyway) degrades to plain remote reads. Sent with handle translation
    // so a retry after failover targets the fresh server id.
    std::vector<OpRequest> reg_ops(1);
    reg_ops[0].type = OpType::kEttRegister;
    reg_ops[0].store_id = *handle;
    std::vector<OpResult> reg_results;
    SendRequest(reg_ops, &reg_results).IgnoreError();
  }
  return Status::Ok();
}

Status AsyncClient::BufferWrite(OpRequest op) {
  batch_bytes_ += OpFootprint(op);
  batch_.push_back(std::move(op));
  if (batch_.size() < options_.max_batch_ops && batch_bytes_ < options_.max_batch_bytes) {
    return Status::Ok();
  }
  const Status s = Flush();
  if (!s.ok() && !batch_.empty()) {
    // As in Client::BufferWrite: earlier writes stay pending, this one is
    // handed back to its caller.
    batch_bytes_ -= OpFootprint(batch_.back());
    batch_.pop_back();
  }
  return s;
}

Status AsyncClient::Flush() {
  if (batch_.empty()) {
    return Status::Ok();
  }
  return SendBatch(nullptr, nullptr);
}

Status AsyncClient::RoundTripOne(OpRequest op, OpResult* result) {
  return SendBatch(&op, result);
}

Status AsyncClient::SendBatch(OpRequest* read, OpResult* result) {
  if (read != nullptr) {
    if (read->store_id >= stores_.size()) {
      // Checked before the frame is built, so a bad read cannot fail — and
      // clear — the writes it would have carried.
      return Status::InvalidArgument("unknown store handle " + std::to_string(read->store_id));
    }
    batch_.push_back(std::move(*read));
  }
  std::vector<OpResult> results;
  const Status sent = SendRequest(batch_, &results);
  if (read != nullptr) {
    batch_.pop_back();
  }
  if (!sent.ok() && MayBeUndelivered(sent)) {
    // No answer: the writes stay pending and ride the next frame.
    return sent;
  }
  const size_t writes = batch_.size();
  batch_.clear();
  batch_bytes_ = 0;
  FLOWKV_RETURN_IF_ERROR(sent);
  for (size_t i = 0; i < writes; ++i) {
    FLOWKV_RETURN_IF_ERROR(results[i].status);
  }
  if (read != nullptr) {
    *result = std::move(results.back());
  }
  return Status::Ok();
}

Status AsyncClient::AppendAligned(uint64_t handle, const Slice& key, const Slice& value,
                                  const Window& w) {
  if (options_.enable_prefetch_push) {
    // Record BEFORE buffering the write: if the at-least-once retry path
    // replays this append, only the server-side (pushed) count can inflate,
    // which breaks the hit equality in the safe (miss) direction.
    cache_.OnLocalAppend(handle, w);
  }
  OpRequest op;
  op.type = OpType::kAppendAligned;
  op.store_id = handle;
  op.key = key.ToString();
  op.value = value.ToString();
  op.window = w;
  return BufferWrite(std::move(op));
}

Status AsyncClient::AppendUnaligned(uint64_t handle, const Slice& key, const Slice& value,
                                    const Window& w, int64_t timestamp) {
  OpRequest op;
  op.type = OpType::kAppendUnaligned;
  op.store_id = handle;
  op.key = key.ToString();
  op.value = value.ToString();
  op.window = w;
  op.timestamp = timestamp;
  return BufferWrite(std::move(op));
}

Status AsyncClient::MergeWindows(uint64_t handle, const Slice& key,
                                 const std::vector<Window>& sources, const Window& dst) {
  OpRequest op;
  op.type = OpType::kMergeWindows;
  op.store_id = handle;
  op.key = key.ToString();
  op.sources = sources;
  op.window = dst;
  return BufferWrite(std::move(op));
}

Status AsyncClient::RmwPut(uint64_t handle, const Slice& key, const Window& w,
                           const Slice& accumulator) {
  OpRequest op;
  op.type = OpType::kRmwPut;
  op.store_id = handle;
  op.key = key.ToString();
  op.value = accumulator.ToString();
  op.window = w;
  return BufferWrite(std::move(op));
}

Status AsyncClient::RmwRemove(uint64_t handle, const Slice& key, const Window& w) {
  OpRequest op;
  op.type = OpType::kRmwRemove;
  op.store_id = handle;
  op.key = key.ToString();
  op.window = w;
  return BufferWrite(std::move(op));
}

Status AsyncClient::GetWindowChunk(uint64_t handle, const Window& w,
                                   std::vector<WindowChunkEntry>* chunk, bool* done) {
  chunk->clear();
  if (options_.enable_prefetch_push) {
    const auto key = std::make_pair(handle, w);
    const auto hit_it = served_hits_.find(key);
    if (hit_it != served_hits_.end()) {
      // Second call of the caller's drain loop for a window served whole
      // from the cache: report end-of-stream.
      served_hits_.erase(hit_it);
      *done = true;
      return Status::Ok();
    }
    // Flush first: the server queues a fired push on this connection BEFORE
    // acking the append that closed the window, so once the flush has been
    // acked the reader has banked any push this batch triggered — the cache
    // probe below is deterministic, not a race.
    FLOWKV_RETURN_IF_ERROR(Flush());
    if (cache_.TryServe(handle, w, chunk)) {
      // Consume the server-side copy. Buffered like any write so ordering
      // with later ops holds; kDropWindow is idempotent, so the
      // at-least-once replay after a reset is harmless.
      OpRequest drop;
      drop.type = OpType::kDropWindow;
      drop.store_id = handle;
      drop.window = w;
      FLOWKV_RETURN_IF_ERROR(BufferWrite(std::move(drop)));
      served_hits_.insert(key);
      *done = false;
      return Status::Ok();
    }
  }
  OpRequest op;
  op.type = OpType::kGetWindowChunk;
  op.store_id = handle;
  op.window = w;
  OpResult result;
  FLOWKV_RETURN_IF_ERROR(RoundTripOne(std::move(op), &result));
  FLOWKV_RETURN_IF_ERROR(result.status);
  *chunk = std::move(result.chunk);
  *done = result.done;
  if (options_.enable_prefetch_push) {
    // From the first remote chunk on, this window drains remotely: a push
    // completing mid-drain must not serve slices already read.
    cache_.OnRemoteRead(handle, w);
  }
  return Status::Ok();
}

Status AsyncClient::GetUnaligned(uint64_t handle, const Slice& key, const Window& w,
                                 std::vector<std::string>* values) {
  OpRequest op;
  op.type = OpType::kGetUnaligned;
  op.store_id = handle;
  op.key = key.ToString();
  op.window = w;
  OpResult result;
  FLOWKV_RETURN_IF_ERROR(RoundTripOne(std::move(op), &result));
  if (result.status.ok() || result.status.IsNotFound()) {
    *values = std::move(result.values);
  }
  return result.status;
}

Status AsyncClient::RmwGet(uint64_t handle, const Slice& key, const Window& w,
                           std::string* accumulator) {
  OpRequest op;
  op.type = OpType::kRmwGet;
  op.store_id = handle;
  op.key = key.ToString();
  op.window = w;
  OpResult result;
  FLOWKV_RETURN_IF_ERROR(RoundTripOne(std::move(op), &result));
  if (result.status.ok()) {
    *accumulator = std::move(result.accumulator);
  }
  return result.status;
}

Status AsyncClient::Checkpoint(uint64_t handle, const std::string& server_dir) {
  OpRequest op;
  op.type = OpType::kCheckpoint;
  op.store_id = handle;
  op.path = server_dir;
  OpResult result;
  FLOWKV_RETURN_IF_ERROR(RoundTripOne(std::move(op), &result));
  return result.status;
}

Status AsyncClient::Stats(std::string* json) {
  FLOWKV_RETURN_IF_ERROR(Flush());
  std::vector<OpRequest> ops(1);
  ops[0].type = OpType::kStats;
  std::vector<OpResult> results;
  // No handle translation: kStats addresses the server, not a store.
  FLOWKV_RETURN_IF_ERROR(SendRequest(ops, &results, /*translate_handles=*/false));
  FLOWKV_RETURN_IF_ERROR(results[0].status);
  *json = std::move(results[0].stats_json);
  return Status::Ok();
}

Status AsyncClient::GatherStats(uint64_t handle,
                                std::vector<std::pair<std::string, int64_t>>* fields) {
  OpRequest op;
  op.type = OpType::kGatherStats;
  op.store_id = handle;
  OpResult result;
  FLOWKV_RETURN_IF_ERROR(RoundTripOne(std::move(op), &result));
  FLOWKV_RETURN_IF_ERROR(result.status);
  *fields = std::move(result.stat_fields);
  return Status::Ok();
}

}  // namespace net
}  // namespace flowkv
