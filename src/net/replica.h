// Primary → standby replication for the FlowKV state server.
//
// Protocol (all frames on one TCP connection the standby dials):
//
//   standby                               primary
//   ───────────────────────────────────────────────────────────────────
//   RequestMessage{kReplicaSubscribe}  →
//                                      ←  RequestMessage{kSnapshotFile}*   (seq n)
//                                      ←  RequestMessage{kSnapshotDone}    (seq n+1)
//                                      ←  RequestMessage{forwarded ops}*   (seq ...)
//   ResponseMessage{request_id=seq}    →                     (ack, per frame)
//
// On subscribe the primary runs a barrier checkpoint of every store,
// ships the staged files, then forwards every mutating op it dispatches, in
// dispatch order, tagged with a dense sequence. Every frame the primary sends
// carries its cluster epoch in the request header. Replication is synchronous:
// the primary parks a client's response until the standby acked the sequence
// that carried its ops, so an acknowledged write is never lost by failing
// over (see docs/NETWORK.md for the exact delivery semantics per op).
//
// The ReplicaPuller is the standby side: it subscribes, writes shipped
// snapshot files to a local directory, restores them into its own server via
// a loopback client (kRestoreStore), applies forwarded ops the same way, and
// acks each frame. If the primary dies it re-subscribes with decorrelated-
// jitter backoff — a re-subscribe always ships a fresh snapshot, so a
// standby can never diverge silently.
//
// Failover (lease_ms > 0, docs/NETWORK.md "Cluster roles, epochs, and
// failover"): while subscribed the puller heartbeats the primary
// (ResponseMessage with request_id 0; the primary echoes its epoch back), so
// a healthy but idle primary keeps producing frames. When no frame arrives
// for lease_ms — stream silence, failed dials, anything — the puller runs an
// election: poll every peer's cluster view; if a live primary holds an epoch
// at least as new as anything we have seen, follow it; otherwise wait out a
// priority stagger (higher priority waits less), re-poll, and self-promote
// through the `promote` hook with epoch max(seen)+1. Only a standby that has
// restored at least one snapshot is eligible. Operators must assign standbys
// DISTINCT priorities: equal priorities break the promotion race only
// probabilistically (the stagger is jittered).
#ifndef SRC_NET_REPLICA_H_
#define SRC_NET_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/obs/metrics.h"

namespace flowkv {
namespace net {

// Regular files under `root`, recursively, as paths relative to `root`
// ('/'-joined). Used by the primary to enumerate a staged checkpoint for
// shipping; exposed for tests.
Status ListFilesRecursively(const std::string& root, std::vector<std::string>* rel_paths);

struct ReplicaOptions {
  // The primary to subscribe to.
  std::string primary_host = "127.0.0.1";
  int primary_port = 0;

  // The standby's own server, reached over loopback to apply state.
  std::string self_host = "127.0.0.1";
  int self_port = 0;

  // Local directory shipped snapshot files are staged in (wiped per
  // snapshot).
  std::string snapshot_dir;

  int connect_timeout_ms = 2000;
  // Re-subscribe backoff after losing the primary: decorrelated jitter,
  // each sleep uniform in [backoff_ms, min(3 * previous, backoff_max_ms)].
  // A cycle that stayed subscribed for a while resets the ladder.
  int resubscribe_backoff_ms = 200;
  int resubscribe_backoff_max_ms = 2000;
  // Seed for the backoff/stagger jitter PRNG; 0 = per-puller seed.
  uint64_t jitter_seed = 0;

  // ----- failover (header comment above; all off unless lease_ms > 0) -----

  // Declare the primary dead when no frame (heartbeat reply, forwarded op,
  // snapshot chunk) arrives for this long, and start an election. <= 0
  // disables failover: the puller just re-subscribes forever.
  int lease_ms = 0;
  // Heartbeat send interval while subscribed; 0 derives lease_ms / 3
  // (min 50 ms).
  int heartbeat_ms = 0;
  // This standby's promotion priority, 0–10: the election stagger is
  // (10 - priority) * promotion_stagger_ms plus jitter, so the
  // highest-priority live standby promotes first and the others observe it
  // on their re-poll and follow instead.
  int promotion_priority = 0;
  int promotion_stagger_ms = 500;
  // Every other cluster member (the primary and all standbys) — polled
  // during an election for a live primary and the newest epoch.
  std::vector<Endpoint> peers;
  // Election hooks into the standby's own server: promote(new_epoch) flips
  // it to primary (Server::Promote — durable epoch commit, then the role
  // flip), local_epoch() reads its current epoch. Both are required when
  // lease_ms > 0.
  std::function<Status(uint64_t)> promote;
  std::function<uint64_t()> local_epoch;
};

class ReplicaPuller {
 public:
  // Starts the puller thread; it connects and re-subscribes in the
  // background until Stop().
  static Status Start(const ReplicaOptions& options, std::unique_ptr<ReplicaPuller>* out);

  ~ReplicaPuller();

  ReplicaPuller(const ReplicaPuller&) = delete;
  ReplicaPuller& operator=(const ReplicaPuller&) = delete;

  // Signals the thread and joins it.
  void Stop();

  // Highest forwarded sequence applied AND acked so far.
  uint64_t applied_seq() const { return applied_seq_.load(std::memory_order_acquire); }
  // True once at least one full snapshot was restored into the local server.
  bool snapshot_loaded() const { return snapshot_loaded_.load(std::memory_order_acquire); }
  // True once an election promoted the local server to primary; the puller
  // thread has exited (there is no primary left to pull from).
  bool promoted() const { return promoted_.load(std::memory_order_acquire); }

 private:
  ReplicaPuller();

  void Run();
  // One subscribe → stream → disconnect cycle. Returns when the connection
  // breaks, the lease expires, or stop is requested.
  void PullOnce();
  Status DialPrimary(int* fd);
  // Encodes and writes one request frame to the raw primary socket.
  Status SendFrame(int fd, const RequestMessage& msg);
  Status HandleFrame(int fd, const RequestMessage& frame);
  Status ApplySnapshotChunk(const OpRequest& op);
  Status FinishSnapshot();
  // Flushes the in-progress snapshot file accumulator, if any.
  Status FlushPendingFile();
  Status SendAck(int fd, uint64_t seq);
  // Decorrelated-jitter sleep between re-subscribe cycles, sliced so Stop()
  // is honored promptly.
  void BackoffSleep(int* prev_sleep_ms);
  // Lease expired: poll peers, follow a fresh live primary (retargets
  // options_.primary_*, returns false) or self-promote (returns true).
  bool RunElection();
  // Reads one endpoint's cluster view through the handshake of a
  // short-lived client; false when unreachable.
  bool PollPeer(const Endpoint& ep, ClusterView* view);

  // INVARIANT(thread-contract): the four atomics below are the only fields
  // shared between the puller thread and its controller — stop_ is the
  // controller's one-way shutdown signal, applied_seq_ / snapshot_loaded_ /
  // promoted_ are the puller's progress exports. Everything else is
  // puller-thread-only (options_/thread_ are set before the thread starts
  // and ordered by the create/join edges). No mutex, so no GUARDED_BY: the
  // clang -Wthread-safety pass cannot check this split, reviewers must.
  ReplicaOptions options_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> applied_seq_{0};
  std::atomic<bool> snapshot_loaded_{false};
  std::atomic<bool> promoted_{false};

  // This puller's repl.* instruments; the puller thread is the only writer.
  obs::MetricsRegistry metrics_;
  obs::Counter* m_reconnects_;
  obs::Counter* m_frames_pulled_;
  obs::Counter* m_snapshots_restored_;
  obs::Counter* m_elections_;
  obs::Counter* m_promotions_;

  // Failover state (puller thread only). last_frame_nanos_ is the lease
  // clock: the monotonic time of the last complete frame from the primary
  // (or last successful subscribe); known_primary_epoch_ is the newest epoch
  // any primary frame or peer poll has carried.
  int64_t last_frame_nanos_ = 0;
  uint64_t known_primary_epoch_ = 0;
  Random backoff_rng_;  // seeded in Start()

  // Loopback client to the standby's own server (puller thread only).
  std::unique_ptr<class Client> loopback_;

  // Snapshot file accumulator (puller thread only). The staging dir is wiped
  // once per subscribe cycle, on the first offset-0 chunk.
  std::string pending_path_;
  std::string pending_data_;
  bool snapshot_started_in_cycle_ = false;
};

}  // namespace net
}  // namespace flowkv

#endif  // SRC_NET_REPLICA_H_
