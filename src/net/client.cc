#include "src/net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
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

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::FromErrno("fcntl(O_NONBLOCK)");
  }
  return Status::Ok();
}

// A write batch flushes once its buffered ops reach this footprint.
constexpr size_t kMaxBatchBytes = 1u << 20;

// Rough wire footprint of a buffered op, for the batch byte threshold.
size_t OpFootprint(const OpRequest& op) {
  return 32 + op.key.size() + op.value.size() + op.ns.size() + op.path.size() +
         op.sources.size() * 20;
}

}  // namespace

Client::Client(ClientOptions options)
    : options_(std::move(options)),
      // Distinct seeds across clients is the point of the jitter; mix the
      // object address with the clock unless the test pinned a seed.
      backoff_rng_(options_.jitter_seed != 0
                       ? options_.jitter_seed
                       : static_cast<uint64_t>(MonotonicNanos()) ^
                             reinterpret_cast<uintptr_t>(this)),
      m_retries_(metrics_.GetCounter("client.retries")),
      m_failovers_(metrics_.GetCounter("client.failovers")),
      m_cluster_refreshes_(metrics_.GetCounter("client.cluster_refreshes")),
      cache_(options_.read_ahead_cache_bytes, &metrics_) {
  primary_ = {options_.host, options_.port};
}

const Endpoint& Client::CurrentEndpoint() const {
  return endpoint_index_ == 0 ? primary_ : options_.standbys[endpoint_index_ - 1];
}

Status Client::Connect(const ClientOptions& options, std::unique_ptr<Client>* out) {
  auto client = std::unique_ptr<Client>(new Client(options));
  FLOWKV_RETURN_IF_ERROR(
      client->EnsureConnected(DeadlineFromNow(options.connect_timeout_ms)));
  *out = std::move(client);
  return Status::Ok();
}

Client::~Client() { CloseSocket(); }

void Client::CloseSocket() {
  if (fd_ >= 0) {
    if (NetHooks* hooks = GetNetHooks()) {
      hooks->DidClose(fd_);
    }
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
  // Reconnect coherence rule (prefetch.h): a promoted standby must never be
  // fronted by the dead primary's pushes. Local append counts survive — any
  // partial re-push against them fails the count equality, a safe miss.
  // served_hits_ also survives: those windows were already handed to the
  // caller, and their buffered kDropWindow replays at-least-once.
  cache_.Clear();
}

namespace {

// Opens a non-blocking SOCK_STREAM connection to `ep` — or to
// `options.unix_socket_path` when `use_unix` — applying
// options.connect_timeout_ms and the net-hooks fault points. On success the
// connected fd (TCP_NODELAY set for TCP) is stored in `*fd_out`.
Status ConnectStreamSocket(const ClientOptions& options, const Endpoint& ep, bool use_unix,
                           int* fd_out) {
  if (NetHooks* hooks = GetNetHooks()) {
    FLOWKV_RETURN_IF_ERROR(hooks->PreConnect(ep.host, static_cast<uint16_t>(ep.port)));
  }
  const int fd = ::socket(use_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::FromErrno("socket");
  }
  Status s = SetNonBlocking(fd);
  if (!s.ok()) {
    ::close(fd);
    return s;
  }

  sockaddr_storage addr_storage;
  std::memset(&addr_storage, 0, sizeof(addr_storage));
  socklen_t addr_len = 0;
  if (use_unix) {
    auto* uaddr = reinterpret_cast<sockaddr_un*>(&addr_storage);
    uaddr->sun_family = AF_UNIX;
    if (options.unix_socket_path.size() >= sizeof(uaddr->sun_path)) {
      ::close(fd);
      return Status::InvalidArgument("unix socket path too long: " +
                                     options.unix_socket_path);
    }
    std::memcpy(uaddr->sun_path, options.unix_socket_path.c_str(),
                options.unix_socket_path.size() + 1);
    addr_len = sizeof(sockaddr_un);
  } else {
    auto* iaddr = reinterpret_cast<sockaddr_in*>(&addr_storage);
    iaddr->sin_family = AF_INET;
    iaddr->sin_port = htons(static_cast<uint16_t>(ep.port));
    if (::inet_pton(AF_INET, ep.host.c_str(), &iaddr->sin_addr) != 1) {
      ::close(fd);
      return Status::InvalidArgument("bad host address: " + ep.host);
    }
    addr_len = sizeof(sockaddr_in);
  }

  // EINTR on a non-blocking connect() means the attempt proceeds
  // asynchronously, exactly like EINPROGRESS (POSIX) — treating it as a
  // failure would leak a half-open socket on every signal-heavy host.
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr_storage), addr_len) != 0) {
    if (errno != EINPROGRESS && errno != EINTR) {
      const Status err = Status::FromErrno("connect " + ep.host);
      ::close(fd);
      return err;
    }
    // Non-blocking connect: wait for writability, then check SO_ERROR. The
    // wait runs against one absolute deadline so a signal interrupting
    // poll() resumes with the time remaining rather than restarting the full
    // timeout (or, worse, surfacing EINTR as a connection failure).
    const int64_t deadline_nanos = DeadlineFromNow(options.connect_timeout_ms);
    while (true) {
      pollfd pfd = {fd, POLLOUT, 0};
      const int n = ::poll(&pfd, 1, PollTimeoutMs(deadline_nanos));
      if (n > 0) {
        break;
      }
      if (n < 0 && errno != EINTR) {
        const Status err = Status::FromErrno("poll(connect " + ep.host + ")");
        ::close(fd);
        return err;
      }
      if (MonotonicNanos() >= deadline_nanos) {
        ::close(fd);
        return Status::TimedOut("connect to " + ep.host + ":" + std::to_string(ep.port));
      }
      // EINTR, or a zero return from a capped poll slice: keep waiting.
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 || so_error != 0) {
      ::close(fd);
      return Status::ConnectionReset("connect to " + ep.host + ":" +
                                     std::to_string(ep.port) + ": " +
                                     std::strerror(so_error != 0 ? so_error : errno));
    }
  }

  if (!use_unix) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  if (NetHooks* hooks = GetNetHooks()) {
    hooks->DidConnect(fd, ep.host, static_cast<uint16_t>(ep.port));
  }
  *fd_out = fd;
  return Status::Ok();
}

}  // namespace

Status Client::ConnectSocket(int64_t deadline_nanos) {
  CloseSocket();
  const Endpoint& ep = CurrentEndpoint();
  // The unix path only replaces the primary endpoint; standby failover
  // stays on TCP (a standby is, by definition, on another host).
  const bool use_unix = endpoint_index_ == 0 && !options_.unix_socket_path.empty();
  int fd = -1;
  FLOWKV_RETURN_IF_ERROR(ConnectStreamSocket(options_, ep, use_unix, &fd));
  fd_ = fd;
  // The handshake. It runs before anything else on the connection, so the
  // store re-opens that follow are already stamped with the adopted epoch.
  handshake_view_ = ClusterView{};
  push_ = false;
  std::vector<OpRequest> ops(1);
  ops[0].type = OpType::kClusterInfo;
  std::vector<OpResult> results;
  Status s = TryRequest(ops, &results, deadline_nanos);
  if (s.ok()) {
    s = results[0].status;
  }
  if (!s.ok()) {
    CloseSocket();
    return s;
  }
  handshake_view_ = ParseClusterView(results[0].stat_fields);
  // Epochs are cluster-wide monotonic; keep the max we have ever seen so a
  // write routed to a stale former primary fences instead of committing.
  cluster_epoch_ = std::max(cluster_epoch_, handshake_view_.epoch);
  push_ = options_.enable_prefetch_push && handshake_view_.prefetch_push;
  return Status::Ok();
}

bool Client::BackoffSleep(int* prev_sleep_ms, int64_t deadline_nanos) {
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

Status Client::EnsureConnected(int64_t deadline_nanos) {
  if (fd_ >= 0) {
    return Status::Ok();
  }
  int prev_sleep_ms = options_.reconnect_backoff_ms;
  Status last = Status::ConnectionReset("not connected");
  for (int attempt = 0; attempt < options_.max_reconnect_attempts; ++attempt) {
    if (attempt > 0) {
      // The current endpoint refused us: advance round-robin through
      // primary + standbys before the next try.
      if (NumEndpoints() > 1) {
        endpoint_index_ = (endpoint_index_ + 1) % NumEndpoints();
        m_failovers_->Add(1);
        FLOWKV_LOG(kInfo) << "client failing over "
                          << LogKv("endpoint", CurrentEndpoint().host + ":" +
                                                   std::to_string(CurrentEndpoint().port));
      }
      if (!BackoffSleep(&prev_sleep_ms, deadline_nanos)) {
        return Status::TimedOut("reconnect deadline exhausted: " + last.ToString());
      }
    }
    last = ConnectSocket(deadline_nanos);
    if (last.IsFailedPrecondition()) {
      // A peer of another wire version: reconnecting cannot help.
      return last;
    }
    if (last.ok()) {
      last = ReopenStores(deadline_nanos);
      if (last.ok()) {
        last = RegisterPushStores(deadline_nanos);
      }
      if (last.ok()) {
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

void Client::RefreshClusterView(int64_t deadline_nanos) {
  CloseSocket();
  m_cluster_refreshes_->Add(1);
  const size_t start = endpoint_index_;
  size_t best_index = start;
  uint64_t best_epoch = 0;
  for (size_t i = 0; i < NumEndpoints(); ++i) {
    if (MonotonicNanos() >= deadline_nanos) {
      break;
    }
    endpoint_index_ = (start + i) % NumEndpoints();
    // The handshake is the poll: its view says who this endpoint is.
    const bool answered = ConnectSocket(deadline_nanos).ok();
    CloseSocket();
    if (!answered) {
      continue;
    }
    // Only a PRIMARY is worth redirecting to, and when a stale former
    // primary and a freshly promoted one both claim the role, the higher
    // epoch is the real one.
    if (handshake_view_.role == kRolePrimary && handshake_view_.epoch > best_epoch) {
      best_epoch = handshake_view_.epoch;
      best_index = endpoint_index_;
    }
  }
  endpoint_index_ = best_index;
  if (best_epoch != 0) {
    FLOWKV_LOG(kInfo) << "cluster view refreshed "
                      << LogKv("primary", CurrentEndpoint().host + ":" +
                                              std::to_string(CurrentEndpoint().port))
                      << LogKv("epoch", static_cast<int64_t>(best_epoch));
  }
}

Status Client::ReopenStores(int64_t deadline_nanos) {
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
  RebuildPushRoutes();
  return Status::Ok();
}

Status Client::RegisterPushStores(int64_t deadline_nanos) {
  if (!push_) {
    return Status::Ok();
  }
  // Server ids are already fresh (ReopenStores ran on this connection), so
  // no handle translation.
  std::vector<OpRequest> regs;
  for (const StoreReg& reg : stores_) {
    if (reg.pattern == StorePattern::kAppendAligned) {
      OpRequest op;
      op.type = OpType::kEttRegister;
      op.store_id = reg.server_id;
      regs.push_back(std::move(op));
    }
  }
  if (regs.empty()) {
    return Status::Ok();
  }
  std::vector<OpResult> results;
  return TryRequest(regs, &results, deadline_nanos);
}

void Client::RebuildPushRoutes() {
  push_routes_.clear();
  for (uint64_t h = 0; h < stores_.size(); ++h) {
    push_routes_[stores_[h].server_id] = h;
  }
}

Status Client::WriteAll(const Slice& data, int64_t deadline_nanos) {
  size_t written = 0;
  while (written < data.size()) {
    size_t to_send = data.size() - written;
    if (NetHooks* hooks = GetNetHooks()) {
      FLOWKV_RETURN_IF_ERROR(hooks->PreSend(fd_, &to_send));
    }
    const ssize_t n = ::send(fd_, data.data() + written, to_send, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd = {fd_, POLLOUT, 0};
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

Status Client::ReadResponse(int64_t deadline_nanos, ResponseMessage* response) {
  int64_t last_progress_nanos = MonotonicNanos();
  while (true) {
    Slice input(inbuf_);
    Slice payload;
    bool complete = false;
    const size_t before = input.size();
    const Status frame_status = TryDecodeFrame(&input, &payload, &complete);
    if (!frame_status.ok()) {
      // A corrupt frame means the byte stream is unsyncable — the transport
      // is broken, exactly like a peer reset, and equally safe to retry on a
      // fresh connection.
      return Status::ConnectionReset("corrupt response frame: " + frame_status.ToString());
    }
    if (complete) {
      const Status s = DecodeResponse(payload, response);
      inbuf_.erase(0, before - input.size());
      if (s.IsFailedPrecondition()) {
        return s;  // a peer of another wire version; retrying cannot help
      }
      if (!s.ok()) {
        return Status::ConnectionReset("corrupt response body: " + s.ToString());
      }
      if (response->request_id != kPushRequestId) {
        return s;
      }
      // An unsolicited push queued ahead of our response: bank it and keep
      // reading.
      FLOWKV_RETURN_IF_ERROR(AcceptPush(std::move(*response)));
      continue;
    }

    // A partially-buffered frame is subject to the mid-frame stall bound:
    // the server writes frames contiguously, so prolonged silence here means
    // a broken (or length-corrupted) stream, not a slow response.
    const bool mid_frame = !inbuf_.empty();
    int timeout_ms = PollTimeoutMs(deadline_nanos);
    if (mid_frame && options_.frame_stall_timeout_ms > 0) {
      const int64_t stall_left_ms =
          options_.frame_stall_timeout_ms -
          (MonotonicNanos() - last_progress_nanos) / 1'000'000;
      timeout_ms = static_cast<int>(
          std::min<int64_t>(timeout_ms, std::max<int64_t>(stall_left_ms, 0)));
    }
    pollfd pfd = {fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r == 0) {
      // poll slices are capped, so a zero return is not itself the deadline.
      if (MonotonicNanos() >= deadline_nanos) {
        return Status::TimedOut("response read");
      }
      if (mid_frame && options_.frame_stall_timeout_ms > 0 &&
          MonotonicNanos() - last_progress_nanos >=
              static_cast<int64_t>(options_.frame_stall_timeout_ms) * 1'000'000) {
        return Status::ConnectionReset("response frame stalled mid-read");
      }
      continue;
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::FromErrno("poll");
    }
    char buf[64 * 1024];
    size_t to_recv = sizeof(buf);
    if (NetHooks* hooks = GetNetHooks()) {
      FLOWKV_RETURN_IF_ERROR(hooks->PreRecv(fd_, &to_recv));
    }
    const ssize_t n = ::recv(fd_, buf, to_recv, 0);
    if (n > 0) {
      if (NetHooks* hooks = GetNetHooks()) {
        hooks->DidRecv(fd_, buf, static_cast<size_t>(n));
      }
      inbuf_.append(buf, static_cast<size_t>(n));
      last_progress_nanos = MonotonicNanos();
      continue;
    }
    if (n == 0) {
      return Status::ConnectionReset("server closed connection");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      continue;
    }
    return Status::ConnectionReset("recv: " + std::string(std::strerror(errno)));
  }
}

Status Client::AcceptPush(ResponseMessage push) {
  if (push.results.size() != 1 || push.results[0].type != OpType::kPushChunk) {
    // Protocol violation: the stream cannot be trusted any more.
    return Status::ConnectionReset("malformed push frame");
  }
  OpResult& chunk = push.results[0];
  const auto route = push_routes_.find(chunk.store_id);
  if (route == push_routes_.end()) {
    // A store this client never mapped. Dropping the push is always safe:
    // the read degrades to a remote miss.
    return Status::Ok();
  }
  cache_.OnPush(route->second, chunk.window, std::move(chunk.chunk));
  return Status::Ok();
}

Status Client::TryRequest(const std::vector<OpRequest>& ops,
                          std::vector<OpResult>* results, int64_t deadline_nanos) {
  RequestMessage request;
  request.request_id = next_request_id_++;
  request.ops = ops;
  // Propagate the remaining time so the server can shed the batch once we
  // have given up on it.
  const int64_t remaining_ms = (deadline_nanos - MonotonicNanos()) / 1'000'000;
  if (remaining_ms <= 0) {
    return Status::TimedOut("request deadline exhausted before send");
  }
  request.deadline_ms = static_cast<uint32_t>(remaining_ms);

  // Epoch fencing: stamp the newest epoch we have adopted so a stale former
  // primary rejects (and fences itself on) our writes instead of committing
  // them. The kClusterInfo handshake is a read-only discovery op and goes
  // unstamped: a standby's own epoch lags its primary's by design, and a
  // server fences on any higher stamped epoch, so a stamped handshake would
  // fence a healthy standby while RefreshClusterView walks the endpoints.
  const bool discovery = ops.size() == 1 && ops[0].type == OpType::kClusterInfo;
  request.epoch = discovery ? 0 : cluster_epoch_;
  request.internal_apply = options_.internal_apply;
  // Distributed tracing: open a span covering this batch's round trip and
  // propagate a fresh trace id.
  if (obs::Tracing::enabled()) {
    request.trace_id = backoff_rng_.Next() | 1;  // nonzero: 0 means untraced
    request.span_id = request.request_id;
    request.trace_flags = 1;  // sampled
  }
  obs::TraceSpan batch_span("client_batch", "client");
  batch_span.AddArg("trace_id", static_cast<int64_t>(request.trace_id));
  batch_span.AddArg("ops", static_cast<int64_t>(ops.size()));

  std::string payload;
  EncodeRequest(request, &payload);
  if (payload.size() > kDefaultMaxFrameBytes) {
    return Status::InvalidArgument("request exceeds max frame size (" +
                                   std::to_string(payload.size()) + " bytes)");
  }
  std::string frame;
  frame.reserve(payload.size() + kFrameHeaderBytes);
  AppendFrame(&frame, payload);

  FLOWKV_RETURN_IF_ERROR(WriteAll(frame, deadline_nanos));

  ResponseMessage response;
  FLOWKV_RETURN_IF_ERROR(ReadResponse(deadline_nanos, &response));
  if (response.request_id != request.request_id) {
    return Status::Internal("response id mismatch");
  }
  if (response.results.size() != ops.size()) {
    return Status::Internal("response arity mismatch");
  }
  *results = std::move(response.results);
  return Status::Ok();
}

namespace {

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

Status Client::SendRequest(const std::vector<OpRequest>& ops, std::vector<OpResult>* results,
                           bool translate_handles) {
  const int64_t deadline = DeadlineFromNow(options_.request_timeout_ms);
  int prev_sleep_ms = options_.reconnect_backoff_ms;
  Status last;
  // One initial attempt plus up to max_retries re-sends, all under one
  // deadline: a dead server costs one request_timeout_ms, not a livelock.
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      m_retries_->Add(1);
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
          if (OpInfoOf(op.type).Carries(RequestField::kStoreId)) {
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
      // reading a stale frame and failing with a spurious id mismatch.
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

Status Client::ExecuteRaw(std::vector<OpRequest> ops, std::vector<OpResult>* results) {
  return SendRequest(ops, results, /*translate_handles=*/false);
}

// ---------------------------------------------------------------------------
// Public ops
// ---------------------------------------------------------------------------

Status Client::Ping() {
  FLOWKV_RETURN_IF_ERROR(Flush());
  std::vector<OpRequest> ops(1);
  ops[0].type = OpType::kPing;
  std::vector<OpResult> results;
  FLOWKV_RETURN_IF_ERROR(SendRequest(ops, &results));
  return results[0].status;
}

Status Client::OpenStore(const std::string& ns, const OperatorStateSpec& spec,
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
  const bool subscribe = push_ && reg.pattern == StorePattern::kAppendAligned;
  stores_.push_back(std::move(reg));
  RebuildPushRoutes();
  if (subscribe) {
    // Best-effort: a failure degrades to plain remote reads, and a reconnect
    // mid-send re-registers every store anyway. Sent with handle translation
    // so a retry after failover targets the fresh server id.
    std::vector<OpRequest> reg_ops(1);
    reg_ops[0].type = OpType::kEttRegister;
    reg_ops[0].store_id = *handle;
    std::vector<OpResult> reg_results;
    SendRequest(reg_ops, &reg_results).IgnoreError();
  }
  return Status::Ok();
}

Status Client::BufferWrite(OpRequest op) {
  batch_bytes_ += OpFootprint(op);
  batch_.push_back(std::move(op));
  if (batch_.size() < options_.max_batch_ops && batch_bytes_ < kMaxBatchBytes) {
    return Status::Ok();
  }
  const Status s = Flush();
  if (!s.ok() && !batch_.empty()) {
    // The earlier writes stay pending (they were acked to their callers),
    // but this op's caller is told it failed: un-buffer it so whatever the
    // caller does next (retry, replay buffer) holds its only copy.
    batch_bytes_ -= OpFootprint(batch_.back());
    batch_.pop_back();
  }
  return s;
}

Status Client::Flush() {
  if (batch_.empty()) {
    return Status::Ok();
  }
  return SendBatch(nullptr, nullptr);
}

Status Client::RoundTripOne(OpRequest op, OpResult* result) {
  return SendBatch(&op, result);
}

Status Client::SendBatch(OpRequest* read, OpResult* result) {
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

Status Client::AppendAligned(uint64_t handle, const Slice& key, const Slice& value,
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

Status Client::AppendUnaligned(uint64_t handle, const Slice& key, const Slice& value,
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

Status Client::MergeWindows(uint64_t handle, const Slice& key,
                            const std::vector<Window>& sources, const Window& dst) {
  OpRequest op;
  op.type = OpType::kMergeWindows;
  op.store_id = handle;
  op.key = key.ToString();
  op.sources = sources;
  op.window = dst;
  return BufferWrite(std::move(op));
}

Status Client::RmwPut(uint64_t handle, const Slice& key, const Window& w,
                      const Slice& accumulator) {
  OpRequest op;
  op.type = OpType::kRmwPut;
  op.store_id = handle;
  op.key = key.ToString();
  op.value = accumulator.ToString();
  op.window = w;
  return BufferWrite(std::move(op));
}

Status Client::RmwRemove(uint64_t handle, const Slice& key, const Window& w) {
  OpRequest op;
  op.type = OpType::kRmwRemove;
  op.store_id = handle;
  op.key = key.ToString();
  op.window = w;
  return BufferWrite(std::move(op));
}

Status Client::GetWindowChunk(uint64_t handle, const Window& w,
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
    // acked ReadResponse has banked any push this batch triggered — the
    // cache probe below is deterministic, not a race.
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

Status Client::GetUnaligned(uint64_t handle, const Slice& key, const Window& w,
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

Status Client::RmwGet(uint64_t handle, const Slice& key, const Window& w,
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

Status Client::Checkpoint(uint64_t handle, const std::string& server_dir) {
  OpRequest op;
  op.type = OpType::kCheckpoint;
  op.store_id = handle;
  op.path = server_dir;
  OpResult result;
  FLOWKV_RETURN_IF_ERROR(RoundTripOne(std::move(op), &result));
  return result.status;
}

Status Client::Stats(std::string* json) {
  FLOWKV_RETURN_IF_ERROR(Flush());
  std::vector<OpRequest> ops(1);
  ops[0].type = OpType::kStats;
  std::vector<OpResult> results;
  FLOWKV_RETURN_IF_ERROR(SendRequest(ops, &results));
  FLOWKV_RETURN_IF_ERROR(results[0].status);
  *json = std::move(results[0].stats_json);
  return Status::Ok();
}

Status Client::ClusterAdmin(const std::string& command, uint64_t target_epoch,
                            ClusterView* view) {
  FLOWKV_RETURN_IF_ERROR(Flush());
  std::vector<OpRequest> ops(1);
  ops[0].type = OpType::kClusterAdmin;
  ops[0].path = command;
  ops[0].timestamp = static_cast<int64_t>(target_epoch);
  std::vector<OpResult> results;
  FLOWKV_RETURN_IF_ERROR(SendRequest(ops, &results));
  FLOWKV_RETURN_IF_ERROR(results[0].status);
  if (view != nullptr) {
    *view = ParseClusterView(results[0].stat_fields);
  }
  return Status::Ok();
}

Status Client::GatherStats(uint64_t handle,
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
