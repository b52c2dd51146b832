// Non-blocking completion client for the FlowKV state server, built for the
// ETT-driven prefetch path (src/net/prefetch.h, docs/NETWORK.md).
//
// Where the blocking `Client` reads its response inline on the caller
// thread, an AsyncClient runs ONE dedicated reader thread that demultiplexes
// everything arriving on the socket:
//
//   - ordinary responses (request_id >= 1) complete the caller's pending
//     call and wake it;
//   - unsolicited kPushChunk frames (request_id == kPushRequestId) carry a
//     closed window's chunk the server materialized ahead of the trigger;
//     they land in the ReadAheadCache, keyed by (store handle, window).
//
// GetWindowChunk() then serves from the cache when the pushed value count
// exactly equals the locally recorded append count (the coherence rule in
// prefetch.h) and consumes the server-side copy with a buffered kDropWindow
// — the trigger read costs no network round trip. Any mismatch falls back
// to the ordinary remote read.
//
// Because the server queues a fired push on the subscriber's connection
// BEFORE it acks the append that closed the window, a caller that has seen
// Flush() succeed is guaranteed the reader thread has already banked any
// push that flush triggered: the cache hit is deterministic, not a race.
//
// The public API, batching behavior (a read carries the pending writes in
// its own frame; writes that got no answer stay pending for the next one),
// retry policy (shared absolute deadline, reconnect + replay on
// kConnectionReset, whole-batch kOverloaded backoff, round-robin failover,
// no retry after kTimedOut), and the at-least-once caveats are identical to
// `Client` — see client.h. Registration for pushes
// (kEttRegister) is automatic: on every fresh connection the capability
// probe checks caps.prefetch_push, and each open AAR store is (re)registered
// when the server supports it, so failover to a legacy or freshly promoted
// peer degrades to plain remote reads with no caller involvement. Every
// reconnect clears the cache first — a promoted standby must never be
// fronted by the dead primary's pushes.
#ifndef SRC_NET_ASYNC_CLIENT_H_
#define SRC_NET_ASYNC_CLIENT_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/net/client.h"
#include "src/net/prefetch.h"
#include "src/net/protocol.h"
#include "src/net/store_client.h"

namespace flowkv {
namespace net {

class AsyncClient : public StoreClient {
 public:
  // Connects (with timeout), starts the reader thread, and returns a ready
  // client. Shares ClientOptions with the blocking client; the prefetch
  // fields (enable_prefetch_push, read_ahead_cache_bytes) take effect here.
  static Status Connect(const ClientOptions& options, std::unique_ptr<AsyncClient>* out);

  ~AsyncClient() override;

  AsyncClient(const AsyncClient&) = delete;
  AsyncClient& operator=(const AsyncClient&) = delete;

  Status Ping() override;
  Status OpenStore(const std::string& ns, const OperatorStateSpec& spec,
                   uint64_t* handle, StorePattern* pattern) override;

  Status AppendAligned(uint64_t handle, const Slice& key, const Slice& value,
                       const Window& w) override;
  Status AppendUnaligned(uint64_t handle, const Slice& key, const Slice& value,
                         const Window& w, int64_t timestamp) override;
  Status MergeWindows(uint64_t handle, const Slice& key,
                      const std::vector<Window>& sources, const Window& dst) override;
  Status RmwPut(uint64_t handle, const Slice& key, const Window& w,
                const Slice& accumulator) override;
  Status RmwRemove(uint64_t handle, const Slice& key, const Window& w) override;

  Status Flush() override;

  Status GetWindowChunk(uint64_t handle, const Window& w,
                        std::vector<WindowChunkEntry>* chunk, bool* done) override;
  Status GetUnaligned(uint64_t handle, const Slice& key, const Window& w,
                      std::vector<std::string>* values) override;
  Status RmwGet(uint64_t handle, const Slice& key, const Window& w,
                std::string* accumulator) override;

  Status Checkpoint(uint64_t handle, const std::string& server_dir) override;
  Status GatherStats(uint64_t handle,
                     std::vector<std::pair<std::string, int64_t>>* fields) override;
  Status Stats(std::string* json) override;

  // Read-ahead cache introspection (tests, bench reporting).
  ReadAheadCounters cache_counters() const { return cache_.counters(); }
  size_t cache_bytes() const { return cache_.bytes(); }
  // Whether the CURRENT connection negotiated push support.
  bool push_negotiated() const EXCLUDES(mu_);

  size_t endpoint_index() const { return endpoint_index_; }

 private:
  struct StoreReg {
    std::string ns;
    OperatorStateSpec spec;
    uint64_t server_id = 0;
    StorePattern pattern = StorePattern::kReadModifyWrite;
  };

  // One in-flight request, owned by the caller's stack; the reader fills it
  // and signals cv_. All fields guarded by mu_.
  struct PendingCall {
    ResponseMessage response;
    Status status;
    bool done = false;
  };

  explicit AsyncClient(ClientOptions options);

  // ----- caller-thread internals (mirror Client's; see client.h) -----

  Status BufferWrite(OpRequest op);
  Status RoundTripOne(OpRequest op, OpResult* result);
  Status SendBatch(OpRequest* read, OpResult* result);
  Status SendRequest(const std::vector<OpRequest>& ops, std::vector<OpResult>* results,
                     bool translate_handles = true);
  Status TryRequest(const std::vector<OpRequest>& ops, std::vector<OpResult>* results,
                    int64_t deadline_nanos) EXCLUDES(mu_);
  Status EnsureConnected(int64_t deadline_nanos) EXCLUDES(mu_);
  Status ConnectSocket() EXCLUDES(mu_);
  // Probes caps.trace_context + caps.prefetch_push + caps.cluster_epoch in
  // one round trip and adopts the server's cluster epoch. Runs BEFORE
  // ReopenStores so the re-opens are epoch-stamped.
  void NegotiateCaps(int64_t deadline_nanos);
  // (Re)registers every open AAR store for pushes when the connection
  // negotiated them. Runs AFTER ReopenStores (needs fresh server ids).
  void RegisterPushStores(int64_t deadline_nanos);
  // Fenced-batch recovery, mirroring Client::RefreshClusterView: polls
  // kClusterInfo across every endpoint (on short-lived blocking Clients),
  // adopts the highest epoch a live primary reports, and retargets
  // endpoint_index_ there.
  void RefreshClusterView(int64_t deadline_nanos) EXCLUDES(mu_);
  Status ReopenStores(int64_t deadline_nanos);
  // Shut down the stream, wait for the reader to park, close the fd, and
  // clear the read-ahead cache (reconnect coherence rule).
  void CloseSocket() EXCLUDES(mu_);
  bool BackoffSleep(int* prev_sleep_ms, int64_t deadline_nanos);
  Status WriteAll(int fd, const Slice& data, int64_t deadline_nanos);
  // Blocks until the reader completes `call` or the deadline passes.
  Status AwaitCall(uint64_t request_id, PendingCall* call, int64_t deadline_nanos)
      EXCLUDES(mu_);

  const Endpoint& CurrentEndpoint() const;
  size_t NumEndpoints() const { return 1 + options_.standbys.size(); }

  // ----- reader thread -----

  void ReaderMain();
  // Reads and demuxes frames on `fd` until the stream breaks or the caller
  // shuts it down; never touches the fd again after returning.
  void ReaderLoop(int fd);
  // Routes one decoded response: push frames to the cache, everything else
  // to its pending call. Returns false on a protocol violation (treated as
  // a broken stream).
  bool DispatchFrame(ResponseMessage response) EXCLUDES(mu_);
  // Fails every in-flight call with kConnectionReset (broken stream).
  void FailPendingLocked(const Status& status) REQUIRES(mu_);

  // INVARIANT(two threads): exactly one caller thread drives the public API
  // (same contract as Client) and one reader thread drives ReaderMain. All
  // shared state below is guarded by mu_; fields without a GUARDED_BY are
  // either confined to the caller thread (options_, batch_, stores_,
  // endpoint_index_, rng) or internally synchronized (cache_).
  ClientOptions options_;
  Endpoint primary_;
  size_t endpoint_index_ = 0;  // caller thread only
  Random backoff_rng_;         // caller thread only

  std::vector<StoreReg> stores_;  // caller thread only; handle = index
  std::vector<OpRequest> batch_;  // caller thread only
  size_t batch_bytes_ = 0;        // caller thread only
  // Windows already served from the cache whose terminating empty+done
  // chunk is still owed to the store layer's read loop. Caller thread only.
  std::set<std::pair<uint64_t, Window>> served_hits_;

  ReadAheadCache cache_;  // internally locked; shared by both threads

  mutable Mutex mu_;
  std::condition_variable_any cv_;
  // Connected socket, or -1. Written by the caller (connect/close); the
  // reader holds a copy only between the shutdown handshake's bounds.
  int fd_ GUARDED_BY(mu_) = -1;
  // True while the reader is inside ReaderLoop for the current fd; the
  // caller may only ::close() after it drops (shutdown() wakes the reader).
  bool reader_active_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;
  uint64_t next_request_id_ GUARDED_BY(mu_) = 1;
  std::map<uint64_t, PendingCall*> pending_ GUARDED_BY(mu_);
  // Capabilities of the CURRENT connection (reset on reconnect).
  bool cap_trace_ GUARDED_BY(mu_) = false;
  bool cap_push_ GUARDED_BY(mu_) = false;
  bool cap_epoch_ GUARDED_BY(mu_) = false;
  // Newest cluster epoch adopted from any probe / cluster-view refresh;
  // stamped on requests while cap_epoch_ holds. Never reset — epochs are
  // cluster-wide monotonic, which is what fences a stale former primary.
  uint64_t cluster_epoch_ GUARDED_BY(mu_) = 0;
  // server store id -> client handle, for routing pushes; rebuilt whenever
  // the handle mapping changes (open / reopen).
  std::unordered_map<uint64_t, uint64_t> sid_to_handle_ GUARDED_BY(mu_);

  std::thread reader_;
};

}  // namespace net
}  // namespace flowkv

#endif  // SRC_NET_ASYNC_CLIENT_H_
