// The client for the FlowKV state server. One socket, one outstanding
// request at a time, one caller thread; writes (appends, puts, merges,
// removes) are buffered into a batch that is sent when it fills, when
// Flush() is called, or with the next read. A read carries the pending writes
// in its own frame — writes first, the read last — so it costs one round
// trip, not a flush plus a read. Per-key op order is preserved end to end: a
// key always maps to the same server shard, and a batch executes in op order
// per shard, so the read observes every write before it. A failed write in
// that frame surfaces as the read's status.
//
// Buffered writes are never dropped on a transport failure: when a batch
// (or a read carrying one) gets no answer — kConnectionReset, kTimedOut, or
// a batch shed or fenced whole — the writes stay pending, in order, and
// ride the next frame. Only the op whose call reported the failure is
// handed back to its caller.
//
// Stores are addressed by client-side handles. The client remembers every
// (namespace, spec) it opened; after a reconnect — exponential backoff, up
// to ClientOptions::max_reconnect_attempts — it re-opens them and re-maps
// handles to the server's (possibly new) store ids, so a server drain +
// restart is transparent to callers.
//
// Handshake: every fresh connection opens with one kClusterInfo round trip.
// The client adopts the server's cluster epoch from the answer (keeping the
// max it has seen) and learns whether the server pushes prefetches. The
// handshake itself carries epoch 0, so it never fences the server it asks (a
// standby's epoch lags its primary's by design). A server of another wire
// version fails the call with kFailedPrecondition, which is never retried.
//
// Prefetch push (ClientOptions::enable_prefetch_push, src/net/prefetch.h,
// docs/NETWORK.md): when the handshake reports prefetch_push, every open AAR
// store is subscribed with kEttRegister (again after each reconnect), and
// the server pushes each closed window's chunk ahead of the
// trigger read as an unsolicited kPushChunk frame (request_id
// kPushRequestId). Pushes are read inline on the caller thread:
// ReadResponse banks each one in the ReadAheadCache and keeps reading until
// the caller's own response arrives. The server queues a push on the subscriber's
// connection BEFORE it acks the append that closed the window, so once
// Flush() returns every push that flush triggered is already banked and the
// cache hit is deterministic. GetWindowChunk() serves from the cache when the
// pushed value count equals the locally recorded append count, and consumes
// the server-side copy with a buffered kDropWindow; any mismatch is a plain
// remote read. Pushes triggered by other connections wait in the socket
// until this client's next call (the server sheds them rather than grow the
// outbox past its bound). Every reconnect clears the cache — a promoted
// standby must never be fronted by the dead primary's pushes.
//
// Retry policy: a request that fails with kConnectionReset is retried after
// reconnecting (the server may have restarted), and a batch the server shed
// whole with kOverloaded is retried after backoff (shedding happens before
// dispatch, so nothing was applied). A batch fenced whole with kFencedOff
// (standby / stale-epoch target — also pre-dispatch, nothing applied) first
// refreshes the cluster view: the client polls kClusterInfo across all its
// endpoints, adopts the highest primary epoch it finds, reconnects there,
// and re-sends — so a failover converges inside one request's retry budget.
// A kTimedOut request is NOT retried within the call — the op may have been
// applied, and the caller decides whether re-sending is safe for its
// pattern. (Buffered writes it carried stay pending and go out with the next
// frame, as described above.) All attempts of one request share a single
// deadline (request_timeout_ms) and a retry budget; backoff sleeps use
// decorrelated jitter and are capped so they never outlive the deadline.
//
// Failover: `standbys` lists fallback endpoints. When a connect attempt to
// the current endpoint fails, the client advances round-robin through
// primary + standbys and, once connected, re-opens every registered store —
// so a primary killed mid-run degrades to a reconnect-and-replay against the
// standby rather than an error surfacing to the SPE.
//
// Delivery semantics: automatic reset retries, and re-sending a pending
// batch that got no answer, make writes at-least-once. If the connection
// drops after the server executed a batch but before the response arrived,
// the replayed batch re-applies its ops — idempotent ops
// (Put/Remove, OpenStore) are unaffected, but Append/Merge can duplicate
// values. Callers that cannot tolerate duplicates should checkpoint/replay
// at a higher level (as the SPE's exactly-once recovery does) rather than
// rely on the transport. Any failed attempt also closes the socket, so a
// late response can never be mis-read as the reply to the next request.
#ifndef SRC_NET_CLIENT_H_
#define SRC_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/net/prefetch.h"
#include "src/net/protocol.h"
#include "src/obs/metrics.h"

namespace flowkv {
namespace net {

struct Endpoint {
  std::string host;
  int port = 0;
};

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;

  // When non-empty, connect over AF_UNIX to this socket path instead of
  // host:port (the server must have been started with the matching
  // ServerOptions::unix_socket_path). Identical wire protocol; skips the
  // TCP loopback stack for co-located clients. Standby failover still uses
  // the TCP endpoints in `standbys`.
  std::string unix_socket_path;

  // Fallback endpoints tried round-robin (after host:port) when a connect
  // attempt fails — typically the standby of a replicated pair.
  std::vector<Endpoint> standbys;

  int connect_timeout_ms = 2000;
  // Deadline for one request across ALL attempts (send, response, backoff
  // sleeps, reconnects). Also propagated to the server in the frame header
  // so it can shed the batch once the client has given up.
  int request_timeout_ms = 10000;

  // Retry budget per request: at most this many re-sends after a
  // kConnectionReset or whole-batch kOverloaded, within the deadline.
  int max_retries = 5;

  // Reconnect: decorrelated-jitter backoff — each sleep is uniform in
  // [reconnect_backoff_ms, min(3 * previous sleep, reconnect_backoff_max_ms)]
  // — at most `max_reconnect_attempts` connect tries per EnsureConnected
  // call, never sleeping past the request deadline.
  int max_reconnect_attempts = 5;
  int reconnect_backoff_ms = 20;
  int reconnect_backoff_max_ms = 1000;

  // Seed for the backoff jitter PRNG; 0 = derive a per-client seed (distinct
  // across clients, which is the point of the jitter). Tests pin it.
  uint64_t jitter_seed = 0;

  // Mid-frame progress bound: once part of a response frame has arrived, the
  // rest follows within an RTT on a healthy stream — the server writes each
  // frame contiguously. If no further bytes arrive for this long the stream
  // is treated as broken (kConnectionReset, retryable under the at-least-
  // once contract) instead of waiting out the full request deadline. This is
  // what catches a corrupted length prefix that grew the frame: the client
  // would otherwise block for bytes the server never sent. 0 disables the
  // bound (stalls then run to the request deadline).
  int frame_stall_timeout_ms = 10'000;

  // Write-batch flush threshold; a batch also flushes at 1 MiB of buffered
  // writes.
  size_t max_batch_ops = 256;

  // ----- prefetch push -----

  // Subscribe to server pushes of closed AAR windows (kEttRegister /
  // kPushChunk, docs/NETWORK.md) and serve window reads from the client-side
  // read-ahead cache when the pushed chunk provably matches local history.
  // Takes effect only on connections whose handshake reports that the server
  // pushes; otherwise reads stay remote.
  bool enable_prefetch_push = false;
  // Client-side cache budget. Bounds the read-ahead cache of pushed windows
  // (LRU eviction past it) and, per RemoteBackend, the write-through RMW
  // accumulator cache (remote_backend.h): a put that would exceed it is not
  // cached, so a later get goes to the server.
  size_t read_ahead_cache_bytes = 16u << 20;

  // Marks every request as the replication apply stream (protocol.h,
  // RequestMessage::internal_apply). Set ONLY by the standby's ReplicaPuller
  // loopback client: it exempts the stream from the standby's
  // no-client-writes fence. Ordinary clients must leave this false.
  bool internal_apply = false;
};

// Whether a failed request may not have reached the server, or its answer
// may not have come back: a reset or timeout, or a batch the server shed or
// fenced whole. Buffered writes in such a request stay pending for the next
// frame rather than being dropped.
inline bool MayBeUndelivered(const Status& s) {
  return s.IsConnectionReset() || s.IsTimedOut() || s.IsOverloaded() || s.IsFencedOff();
}

class Client {
 public:
  // Connects (with timeout) and returns a ready client.
  static Status Connect(const ClientOptions& options, std::unique_ptr<Client>* out);

  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Round-trip no-op, for tests and liveness checks.
  Status Ping();

  // Opens (or re-attaches to) the server-side store for `ns` and returns a
  // client handle plus the server-classified pattern.
  Status OpenStore(const std::string& ns, const OperatorStateSpec& spec,
                   uint64_t* handle, StorePattern* pattern);

  // ----- buffered writes (sent on batch-full / Flush() / with any read) -----
  Status AppendAligned(uint64_t handle, const Slice& key, const Slice& value,
                       const Window& w);
  Status AppendUnaligned(uint64_t handle, const Slice& key, const Slice& value,
                         const Window& w, int64_t timestamp);
  Status MergeWindows(uint64_t handle, const Slice& key,
                      const std::vector<Window>& sources, const Window& dst);
  Status RmwPut(uint64_t handle, const Slice& key, const Window& w,
                const Slice& accumulator);
  Status RmwRemove(uint64_t handle, const Slice& key, const Window& w);

  // Sends any buffered writes and waits for their acks.
  Status Flush();

  // ----- reads (carry the pending writes in the same frame) -----
  Status GetWindowChunk(uint64_t handle, const Window& w,
                        std::vector<WindowChunkEntry>* chunk, bool* done);
  Status GetUnaligned(uint64_t handle, const Slice& key, const Window& w,
                      std::vector<std::string>* values);
  Status RmwGet(uint64_t handle, const Slice& key, const Window& w,
                std::string* accumulator);

  // ----- store management (carry the pending writes, like reads) -----
  Status Checkpoint(uint64_t handle, const std::string& server_dir);
  Status GatherStats(uint64_t handle,
                     std::vector<std::pair<std::string, int64_t>>* fields);

  // Fetches the server's live introspection snapshot (kStats) as one JSON
  // document: per-shard req/s, queue depth, op latency percentiles,
  // replication lag, connection table, and the slow-request log.
  Status Stats(std::string* json);

  // Sends `ops` as-is — store_id fields are SERVER ids, not client handles,
  // and no handles are translated or re-opened. Used by the standby's
  // replication puller to apply forwarded ops against its own server.
  Status ExecuteRaw(std::vector<OpRequest> ops, std::vector<OpResult>* results);

  // ----- cluster failover (docs/NETWORK.md "Cluster roles, epochs") -----

  // Sends a kClusterAdmin command ("promote" / "fence"); target_epoch 0 lets
  // the server pick current+1 for a promote. On success `view` (optional)
  // receives the resulting cluster view.
  Status ClusterAdmin(const std::string& command, uint64_t target_epoch,
                      ClusterView* view = nullptr);
  // The cluster view the current (or most recent) connection's handshake
  // returned.
  const ClusterView& handshake_view() const { return handshake_view_; }
  // The newest cluster epoch this client has adopted (0 before the first
  // handshake). Stamped on every request but the handshake so a stale
  // former primary fences itself rather than committing our writes.
  uint64_t cluster_epoch() const { return cluster_epoch_; }

  // The endpoint the current/most recent connection used (index 0 = primary).
  size_t endpoint_index() const { return endpoint_index_; }

  // This client's instruments: client.retries, client.failovers,
  // client.cluster_refreshes, the read-ahead cache's client.prefetch_* and,
  // behind a RemoteBackend, its remote.* counters (docs/OBSERVABILITY.md).
  obs::MetricsRegistry& metrics() { return metrics_; }

  // Read-ahead cache introspection (tests, bench reporting). All zero when
  // prefetch push is off.
  ReadAheadCounters cache_counters() const { return cache_.counters(); }
  size_t cache_bytes() const { return cache_.bytes(); }
  // Whether the CURRENT connection negotiated push support.
  bool push_negotiated() const { return push_; }

 private:
  struct StoreReg {
    std::string ns;
    OperatorStateSpec spec;
    uint64_t server_id = 0;
    StorePattern pattern = StorePattern::kReadModifyWrite;
  };

  explicit Client(ClientOptions options);

  // Appends a write op to the batch, flushing if full. On a failed flush the
  // earlier writes stay pending and `op` is dropped from the batch.
  Status BufferWrite(OpRequest op);
  // One round trip for `op` carrying the pending writes; `*result` is the
  // op's result.
  Status RoundTripOne(OpRequest op, OpResult* result);
  // Sends the pending writes, then `read` when non-null, as one frame. If
  // the frame may be undelivered (MayBeUndelivered) the writes stay pending;
  // otherwise they are cleared, the first failed write's status is returned,
  // and `*result` receives the read's result.
  Status SendBatch(OpRequest* read, OpResult* result);

  // Sends `ops` and fills `results`. With `translate_handles`, the store_id
  // of every op whose request carries one holds a client handle, translated
  // to the server id per attempt. All attempts share one deadline;
  // reconnects + retries on kConnectionReset and whole-batch kOverloaded up
  // to the retry budget; returns kTimedOut without retrying.
  Status SendRequest(const std::vector<OpRequest>& ops, std::vector<OpResult>* results,
                     bool translate_handles = true);

  // One attempt on the current socket, bounded by the absolute deadline.
  Status TryRequest(const std::vector<OpRequest>& ops, std::vector<OpResult>* results,
                    int64_t deadline_nanos);

  Status EnsureConnected(int64_t deadline_nanos);
  // Opens a socket to the current endpoint and runs the kClusterInfo
  // handshake on it: records handshake_view_, adopts the epoch (max) and
  // sets push_. On failure the socket is closed.
  Status ConnectSocket(int64_t deadline_nanos);
  // Fenced-batch recovery: runs the handshake against every endpoint on
  // short-lived connections (each adopts its endpoint's epoch) and leaves
  // endpoint_index_ at the live PRIMARY with the highest epoch (or where it
  // started if no primary answered). Closes the current socket either way;
  // the caller's retry loop reconnects through EnsureConnected.
  void RefreshClusterView(int64_t deadline_nanos);
  // Re-opens every registered store on a fresh connection, updating
  // server_id mappings.
  Status ReopenStores(int64_t deadline_nanos);
  // Subscribes every open AAR store to pushes when the connection negotiated
  // them. Runs after ReopenStores (it needs the fresh server ids); per-op
  // refusals are ignored, a transport failure is returned.
  Status RegisterPushStores(int64_t deadline_nanos);
  // Rebuilds push_routes_ from stores_.
  void RebuildPushRoutes();
  // Closes the socket and clears the read-ahead cache (reconnect coherence
  // rule, prefetch.h).
  void CloseSocket();

  // Decorrelated-jitter sleep; returns false (without sleeping the full
  // duration) when the deadline would pass first.
  bool BackoffSleep(int* prev_sleep_ms, int64_t deadline_nanos);

  Status WriteAll(const Slice& data, int64_t deadline_nanos);
  // Reads frames until one that is not a push arrives and returns it. Push
  // frames on the way are banked in the read-ahead cache (or dropped when
  // their store is not mapped); a malformed push is a broken stream.
  Status ReadResponse(int64_t deadline_nanos, ResponseMessage* response);
  Status AcceptPush(ResponseMessage push);

  const Endpoint& CurrentEndpoint() const;
  size_t NumEndpoints() const { return 1 + options_.standbys.size(); }

  // INVARIANT(single-threaded): a Client is confined to one caller thread —
  // every field below, fd_ included, is read and written without
  // synchronization. Concurrent use of one Client is a caller bug; open one
  // Client per thread instead. Server pushes are read on that same thread,
  // inside ReadResponse, so there is no second thread to synchronize with.
  // Nothing here carries a GUARDED_BY because the client has no mutex of its
  // own; the clang -Wthread-safety pass cannot check this contract,
  // reviewers must.
  ClientOptions options_;
  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  size_t endpoint_index_ = 0;
  Endpoint primary_;

  // The latest handshake's answer, and whether this connection takes pushes
  // (enable_prefetch_push and the server pushes); both set per connection.
  ClusterView handshake_view_;
  bool push_ = false;
  // Newest cluster epoch adopted from any handshake; stamped on every
  // request but the handshake. Never reset: epochs are cluster-wide monotonic, so
  // keeping the max across reconnects is exactly what fences a stale former
  // primary.
  uint64_t cluster_epoch_ = 0;

  Random backoff_rng_;

  obs::MetricsRegistry metrics_;
  obs::Counter* m_retries_;
  obs::Counter* m_failovers_;
  obs::Counter* m_cluster_refreshes_;

  std::vector<StoreReg> stores_;  // handle = index
  // Server store id -> handle, for routing pushes; rebuilt whenever the
  // handle mapping changes (open, re-open).
  std::unordered_map<uint64_t, uint64_t> push_routes_;

  // Pushed window chunks. The cache keeps its own lock, but only this
  // client's caller thread ever takes it.
  ReadAheadCache cache_;
  // Windows served from the cache whose terminating empty+done chunk is
  // still owed to the caller's drain loop.
  std::set<std::pair<uint64_t, Window>> served_hits_;

  std::vector<OpRequest> batch_;  // pending buffered writes
  size_t batch_bytes_ = 0;

  std::string inbuf_;  // bytes received but not yet framed
};

}  // namespace net
}  // namespace flowkv

#endif  // SRC_NET_CLIENT_H_
