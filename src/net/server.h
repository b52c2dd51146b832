// The FlowKV state server: an epoll-based, thread-per-core reactor pool
// accepting length-prefixed protocol frames (docs/NETWORK.md). The pool has
// `num_shards` reactors, and shard i is reactor i: each owns one epoll
// instance, the connections accepted onto it (pinned round-robin for life),
// and the single-threaded FlowKvStore of every store placed on it.
//
// Placement: a store lives on the reactor whose connection opened (or
// restored) it; stores restored at startup sit on reactor id % num_shards.
// The paper's one single-threaded store per operator holds end to end: a
// store is only ever touched by its reactor's thread. A connection that opens
// its own stores (the remote backend opens one connection per operator) finds
// them on its own reactor, so its requests execute inline with no queue hop.
// Ops for a store on another reactor take the single-writer queue path (a
// FIFO task posted to that reactor). A request batch is split into
// per-reactor sub-batches executed in op order.
//
// Backpressure: per-connection bounded outboxes (reads pause while a
// connection's responses back up). Shutdown: RequestDrain() — what the
// flowkv_server binary's SIGTERM handler triggers — stops accepting, lets
// in-flight requests finish, flushes outboxes, joins the reactor pool,
// checkpoints every store through CheckpointWriter, commits
// the epoch via CURRENT, and stops. A server started on the same directories
// restores the committed epoch, so no acknowledged state is lost across a
// drain/restart cycle.
#ifndef SRC_NET_SERVER_H_
#define SRC_NET_SERVER_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/flowkv/flowkv_options.h"
#include "src/net/protocol.h"
#include "src/obs/metrics.h"

namespace flowkv {
namespace net {

// Upper bound on ServerOptions::num_shards, one thread per shard; Start
// refuses more before it creates any fd or thread.
constexpr int kMaxServerShards = 256;

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  int port = 0;  // 0 = pick an ephemeral port; see Server::port()

  // Optional AF_UNIX listener alongside the TCP one. Same wire protocol;
  // saves the TCP loopback per-round-trip overhead for co-located clients
  // (the loopback bench connects here). A stale socket file at this path is
  // unlinked on startup, and the file is removed again at shutdown. Empty
  // disables.
  std::string unix_socket_path;

  // Store shards, one reactor (event-loop thread) each: shard i is reactor
  // i, which serves its connections and runs the single-threaded FlowKvStore
  // of every store placed on it. 1..kMaxServerShards.
  int num_shards = 2;

  // Live store data lives under data_dir/stores/<store-ns>.
  std::string data_dir;

  // Drain checkpoints commit under checkpoint_dir/epoch_<n> + CURRENT;
  // empty disables both drain checkpointing and startup restore.
  std::string checkpoint_dir;
  // Restore the latest committed epoch at startup when one exists.
  bool restore = true;

  // Outbox budget per connection before reads are paused (backpressure).
  size_t max_outbox_bytes = 4u << 20;
  // How long a drain waits for client outboxes to flush before
  // checkpointing anyway.
  int drain_grace_ms = 2000;

  // Overload shedding: a request targeting a shard whose queue is at least
  // this deep is refused whole with kOverloaded before anything dispatches,
  // so the client can safely retry after backoff. 0 disables.
  size_t max_shard_queue_depth = 1024;

  // Replication (active once a standby subscribes; see src/net/replica.h):
  // how long parked client responses wait for a standby ack before the
  // replica is dropped and the responses released.
  int repl_ack_timeout_ms = 5000;

  // Slow-request log: a finished request whose end-to-end latency meets this
  // threshold is recorded — with its queue-wait / execution breakdown and
  // trace id — into a ring of the `slow_log_size` slowest, surfaced through
  // the kStats introspection op. threshold <= 0 disables the log.
  double slow_request_threshold_ms = 100.0;
  size_t slow_log_size = 16;

  // ETT-driven prefetch push (docs/NETWORK.md, "Prefetch push"): a client
  // that registers interest in an AAR store (kEttRegister) gets each closed
  // window's chunk pushed (kPushChunk) before it asks, turning the trigger
  // read into a client-memory hit. Off = the connect handshake reports no
  // push and kEttRegister becomes a no-op, so clients fall back to ordinary
  // remote reads.
  bool enable_prefetch_push = true;
  // Per-shard budget for the shadow copies the push scheduler keeps; a
  // window that would exceed it is abandoned (counted) and served by the
  // normal read path instead of being pushed.
  size_t prefetch_shadow_bytes = 8u << 20;

  // ----- cluster role and epochs (docs/NETWORK.md "Cluster roles") -----

  // Start in the standby role: mutating client ops are fenced (kFencedOff)
  // until a Promote() flips the server to primary; only the local
  // ReplicaPuller's loopback apply stream (RequestMessage::internal_apply)
  // may write. flowkv_server sets this with --standby-of.
  bool start_as_standby = false;
  // The lease standbys run against this server (surfaced via kClusterInfo so
  // operators see one number cluster-wide; the standby's ReplicaOptions
  // carries the enforced copy).
  int lease_ms = 3000;
  // This server's promotion priority (0-10, higher promotes sooner), also
  // purely informational server-side.
  int promotion_priority = 0;

  FlowKvOptions store_options;
};

class Server {
 public:
  // Binds, listens, restores from the latest checkpoint (when configured),
  // and starts the reactor pool.
  static Status Start(const ServerOptions& options, std::unique_ptr<Server>* out);

  // Hard-stops without checkpointing if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // The bound port (useful with options.port == 0).
  int port() const { return port_; }

  // Async-signal-safe drain trigger: a SIGTERM handler may call this
  // directly. The reactors finish in-flight requests, checkpoint, and
  // stop; join with AwaitTermination().
  void RequestDrain();

  // Blocks until the reactor threads exit; returns the drain checkpoint
  // status (OK when checkpointing is disabled).
  Status AwaitTermination();

  // RequestDrain() + AwaitTermination().
  Status DrainAndStop();

  // Immediate stop: closes connections without a drain checkpoint.
  void Stop();

  // ----- cluster role and epochs -----

  // Current cluster epoch. Starts at max(1, the durably persisted epoch in
  // data_dir/CLUSTER_EPOCH); only ever increases while the process lives.
  uint64_t cluster_epoch() const;
  // Current role as a wire value (kRolePrimary / kRoleStandby / kRoleFenced).
  int64_t cluster_role() const;

  // Promotes this server to primary under `new_epoch`: persists the epoch
  // durably FIRST (CommitFileRename — a crash mid-promotion can never
  // regress the epoch), quiesces in-flight requests with the same barrier
  // the drain/attach paths use, then atomically adopts (epoch, primary).
  // Fails if new_epoch does not exceed the current epoch, or if the server
  // has been fenced. Safe to call from any thread, including a reactor.
  Status Promote(uint64_t new_epoch);

  // Fences this server: mutating client ops are rejected with kFencedOff
  // until the process restarts. Used to neutralize a stale primary.
  void Fence();

  // This server's own instruments, the source of its kStats document
  // (docs/OBSERVABILITY.md). Valid until the server is destroyed.
  const obs::MetricsRegistry& metrics() const;

 private:
  class Impl;

  Server() = default;

  std::unique_ptr<Impl> impl_;
  int port_ = 0;
};

}  // namespace net
}  // namespace flowkv

#endif  // SRC_NET_SERVER_H_
