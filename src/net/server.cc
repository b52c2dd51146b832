#include "src/net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <thread>
#include <unordered_map>

#include "src/common/clock.h"
#include "src/common/coding.h"
#include "src/common/env.h"
#include "src/common/file.h"
#include "src/common/logging.h"
#include "src/common/thread_annotations.h"
#include "src/flowkv/flowkv_store.h"
#include "src/net/conn.h"
#include "src/net/prefetch.h"
#include "src/net/replica.h"
#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/obs/reporter.h"
#include "src/obs/trace.h"

namespace flowkv {
namespace net {

namespace {

constexpr char kCurrentName[] = "CURRENT";
constexpr char kEpochPrefix[] = "epoch_";
constexpr char kStoresMetaName[] = "stores.meta";
// Live store data: data_dir/stores/<ns>. A subdirectory, so no namespace can
// land on a data_dir file of the server's own (CLUSTER_EPOCH, .repl_snapshot).
constexpr char kStoresDirName[] = "stores";
// Replication snapshots are staged under the data dir, not the checkpoint
// dir: they are transient shipping state, never a commit point.
constexpr char kReplSnapshotDirName[] = ".repl_snapshot";
// Durable cluster-epoch record (decimal text). Written via WriteFileDurably
// (CommitFileRename underneath) BEFORE a promotion takes effect, so a crash
// mid-promotion can never regress the epoch. Unrelated to the checkpoint
// `epoch_<n>` directories, which count drain checkpoints.
constexpr char kClusterEpochFileName[] = "CLUSTER_EPOCH";
// Snapshot files ship to a standby in kSnapshotFile chunks of this size.
constexpr size_t kReplChunkBytes = 1u << 20;

// epoll user-data tags for the two non-connection fds each reactor watches.
// Connection ids start at 1 and count up, so the top of the id space is free.
constexpr uint64_t kWakeTag = ~0ull;
constexpr uint64_t kListenTag = ~0ull - 1;
constexpr uint64_t kUnixListenTag = ~0ull - 2;

// Index of the reactor running on this thread, -1 off the reactor pool.
// Lets completion handoffs skip the task queue when the finishing thread
// already owns the connection.
thread_local int tl_reactor = -1;

// A store's checkpoint directory under a drain epoch or a replication
// snapshot.
std::string StoreCheckpointName(uint64_t store_id) { return "st" + std::to_string(store_id); }

// Injective: distinct namespaces always map to distinct directory names.
// Disallowed bytes (and the escape char itself) become %XX hex escapes.
std::string SanitizeNs(const std::string& ns) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(ns.size());
  for (const char ch : ns) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (c == '/' || c == '\\' || c == '\0' || c == '.' || c == '%' || c < 0x20) {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 0xf]);
    } else {
      out.push_back(ch);
    }
  }
  return out;
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::FromErrno("fcntl(O_NONBLOCK)");
  }
  return Status::Ok();
}

// Lock-free running maximum, for reactors folding per-shard timings into the
// shared PendingRequest (a batch over stores on several shards: the
// critical-path shard defines the request's queue-wait and execution
// windows).
void AtomicMaxRelaxed(std::atomic<int64_t>* target, int64_t value) {
  int64_t cur = target->load(std::memory_order_relaxed);
  while (value > cur &&
         !target->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

// Appends `item` to a comma-separated JSON list: array items or object members.
void AppendItem(std::string* list, const std::string& item) {
  if (!list->empty()) *list += ',';
  *list += item;
}

// Appends the object member "field":value to a comma-separated list.
void AppendMember(std::string* members, const std::string& field, const std::string& value) {
  AppendItem(members, "\"" + field + "\":" + value);
}

// snprintf into a string; each kStats fragment stays well under the buffer.
__attribute__((format(printf, 1, 2))) std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

class Server::Impl {
 public:
  ~Impl() {
    HardStop();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    CloseUnixListener();
  }

  Status Init(const ServerOptions& options);

  int port() const { return port_; }

  void RequestDrain() {
    // Async-signal-safe: an atomic flag plus eventfd writes. wake_fds_ is
    // immutable after Init, and write(2) is on the signal-safe list.
    drain_requested_.store(true, std::memory_order_release);
    const uint64_t one = 1;
    for (const int fd : wake_fds_) {
      [[maybe_unused]] ssize_t n = ::write(fd, &one, sizeof(one));
    }
  }

  void HardStop() {
    stop_requested_.store(true, std::memory_order_release);
    WakeAll();
    Join();
  }

  Status AwaitTermination() {
    Join();
    MutexLock lock(&status_mu_);
    return final_status_;
  }

 private:
  // ----- shared structures -----

  struct StoreEntry {
    uint64_t id = 0;
    // The one shard (= reactor) the store lives on; set at creation, never
    // changed.
    int shard = 0;
    std::string ns;
    OperatorStateSpec spec;
    StorePattern pattern = StorePattern::kReadModifyWrite;
    // Open lifecycle, guarded by stores_mu_ (any reactor can route an open).
    // A failed open leaves `kv` null; a later kOpenStore for the same ns
    // re-dispatches the open instead of taking the idempotent OK path
    // against a store that is not there.
    enum class OpenState { kOpening, kOpen, kFailed };
    OpenState open_state = OpenState::kOpening;
    // Owned by the store's reactor once the open is dispatched (by the
    // pre-thread restore path before that).
    std::unique_ptr<FlowKvStore> kv;

    // Cached instruments, labeled (worker=shard, op=spec.name); touched only
    // by the store's reactor.
    struct ShardObs {
      obs::Counter* ops = nullptr;
      obs::Counter* errors = nullptr;
      obs::HistogramMetric* latency_ms = nullptr;
    };
    ShardObs shard_obs;
  };

  struct PendingRequest {
    uint64_t conn_id = 0;
    // Reactor owning the connection; responses must be sent from its thread.
    int conn_reactor = 0;
    uint64_t request_id = 0;
    int64_t start_nanos = 0;
    // Absolute deadline derived from the request's relative deadline_ms at
    // decode time; 0 = none. Execution sheds expired requests (unless
    // forwarded — see repl_seq).
    int64_t deadline_nanos = 0;
    // Replication sequence that carried this request's forwarded ops, or 0.
    // Non-zero requests are never deadline-shed (the standby will execute
    // them, so the primary must too) and their responses park until the
    // standby acks the sequence.
    uint64_t repl_seq = 0;
    // Client-propagated trace context (0 = untraced); stamped on every span
    // this request produces so client and server traces merge on it.
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    // Whether this request holds a unit of pending_count_ (dropped by
    // FinishPending; the count gates drain completion and snapshot attach).
    bool counted = false;
    // Critical-path breakdown, written by executing reactors (max across
    // shards) and read by the owner after the completion handoff.
    std::atomic<int64_t> queue_wait_nanos{0};
    std::atomic<int64_t> exec_nanos{0};
    std::vector<OpRequest> ops;
    // Result per op, each slot written by exactly one reactor: the one that
    // answered the op, or its store's.
    std::vector<OpResult> results;
    std::atomic<size_t> remaining{0};  // outstanding shard tasks (+1 dispatcher ref)
    // Set by a reactor that posted a push to another reactor while executing
    // this request; the ack must then queue behind it (CompleteRequest).
    std::atomic<bool> push_posted{false};
  };

  struct ShardWorkItem {
    size_t op_index = 0;
    StoreEntry* store = nullptr;  // resolved at routing; never null here
  };
  using ShardItems = std::vector<std::vector<ShardWorkItem>>;  // indexed by shard

  struct Barrier {
    Mutex mu;
    std::condition_variable_any cv;
    size_t remaining GUARDED_BY(mu) = 0;
    Status status GUARDED_BY(mu);

    void Done(const Status& s) {
      MutexLock lock(&mu);
      if (status.ok() && !s.ok()) status = s;
      if (--remaining == 0) cv.notify_all();
    }
    Status Wait() {
      // Explicit wait loop (no predicate lambda): the thread-safety analysis
      // cannot see that a lambda body runs with mu held, a plain loop it can.
      MutexLock lock(&mu);
      while (remaining != 0) {
        cv.wait(mu);
      }
      return status;
    }
  };

  // A unit of cross-reactor work. Everything a reactor does besides socket
  // I/O arrives through its task queue, so connection and shard state stay
  // single-threaded without further locking.
  struct ReactorTask {
    enum class Kind {
      kAdoptConn,        // register a freshly accepted connection
      kShardOps,         // execute a request's ops for this reactor's stores
      kFinish,           // run FinishPending on the connection's owner
      kSendResponse,     // deliver a released parked response
      kReplicaSend,      // write a pre-encoded frame to the replica conn
      kCloseConn,        // close a connection owned by this reactor
      kCheckpointStore,  // checkpoint one store on its reactor, then Done(barrier)
      kAttachResume,     // replay deferred requests after a snapshot attach
      kPushSend,         // queue a pre-encoded kPushChunk frame on a conn
      kPrefetchUnsub,    // drop a closed conn's push subscriptions
    };
    Kind kind = Kind::kShardOps;
    std::shared_ptr<Connection> conn;  // kAdoptConn
    int64_t enqueue_nanos = 0;         // kShardOps: queue-wait start
    std::shared_ptr<PendingRequest> pending;  // kShardOps, kFinish, kSendResponse
    std::vector<ShardWorkItem> items;         // kShardOps
    uint64_t conn_id = 0;                     // kReplicaSend, kCloseConn, kPushSend,
                                              // kPrefetchUnsub
    std::string frame_header;                 // kReplicaSend, kPushSend
    std::string frame_payload;                // kReplicaSend, kPushSend
    StoreEntry* store = nullptr;              // kCheckpointStore
    std::string checkpoint_dir;               // kCheckpointStore
    std::shared_ptr<Barrier> barrier;         // kCheckpointStore
  };

  // Counters are RelaxedCounter (single-writer): each reactor gets its own
  // instances, created on the Init thread under WorkerScope(reactor index)
  // before the threads start, and only ever incremented by that reactor.
  // The stats builder sums across reactors.
  struct ReactorMetrics {
    obs::Counter* conns_accepted = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* frames_in = nullptr;
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* shed_overload = nullptr;
    obs::Counter* repl_forwarded = nullptr;
    obs::Counter* pushes_sent = nullptr;     // kPushChunk frames queued
    obs::Counter* pushes_dropped = nullptr;  // pushes shed at the outbox bound
    obs::Counter* fenced_rejects = nullptr;  // batches refused with kFencedOff
  };

  struct Reactor {
    ~Reactor() {
      if (epfd >= 0) ::close(epfd);
      if (wake_fd >= 0) ::close(wake_fd);
    }

    int index = 0;
    int epfd = -1;
    int wake_fd = -1;  // eventfd; writes coalesce into one wake
    std::thread thread;

    // Task queue. `closed` flips once the reactor exits its loop; PostTask
    // then refuses the task and the producer aborts it, so nothing blocks on
    // a queue nobody will drain.
    Mutex mu;
    bool closed GUARDED_BY(mu) = false;
    std::deque<ReactorTask> tasks GUARDED_BY(mu);
    std::atomic<size_t> task_count{0};

    // True when this reactor has no queued tasks and no unflushed outbox
    // bytes; reactor 0 waits for every flag during a drain.
    std::atomic<bool> idle{false};

    struct ConnState {
      std::shared_ptr<Connection> conn;
      uint32_t events = 0;  // epoll interest currently registered
    };
    // Owner-thread-only (plus the post-join single-threaded epilogue).
    std::unordered_map<uint64_t, ConnState> conns;

    // Requests parked while a snapshot attach quiesces the server; replayed
    // in arrival order by kAttachResume. Owner-thread-only.
    std::vector<std::pair<uint64_t, RequestMessage>> attach_deferred;

    ReactorMetrics metrics;

    // kShardOps tasks queued (not yet dequeued) for this reactor's stores.
    // Gates inline execution: the reactor may only run ops in place when
    // this is 0, otherwise a queued older op could be overtaken.
    std::atomic<size_t> depth{0};
    // Single-writer, created under WorkerScope(index) like ReactorMetrics.
    obs::Counter* shed_deadline = nullptr;
    // kShardOps tasks run here for a connection on another reactor: ops for
    // a store that another connection's reactor opened.
    obs::Counter* cross_reactor_dispatches = nullptr;
    // Push scheduler; same reactor-confined contract as the stores. Idle
    // when prefetch is disabled: kEttRegister never subscribes anyone.
    std::unique_ptr<ShardPrefetchScheduler> prefetch;
  };

  // What a replica drop must do outside repl_mu_: close the old connection
  // on its owner and deliver the responses its acks would have released.
  struct ReplicaDropActions {
    uint64_t close_conn_id = 0;
    int close_reactor = -1;
    std::vector<std::shared_ptr<PendingRequest>> released;
    std::string record;  // flight-record reason; empty = nothing dropped
  };

  // ----- threads -----

  void ReactorMain(int reactor_index);
  void ReactorShutdownTail(Reactor& r, bool local_draining);

  // ----- reactor helpers (owner thread only unless noted) -----

  void AcceptNewConnections(Reactor& r, int listen_fd, bool tcp);
  void CloseUnixListener();
  void AdoptConn(Reactor& r, std::shared_ptr<Connection> conn);
  void UpdateConnEvents(Reactor& r, Reactor::ConnState& cs);
  void HandleReadable(Reactor& r, uint64_t conn_id);
  // Decodes and dispatches every complete frame buffered on the connection.
  // Returns false when the connection was closed along the way.
  bool ProcessBufferedFrames(Reactor& r, uint64_t conn_id);
  // Admission, routing and dispatch of one request batch; every op is routed
  // by its op table row (src/net/protocol.h).
  void HandleRequest(Reactor& r, Connection* conn, RequestMessage request);
  void DeferForAttach(Reactor& r, Connection* conn, RequestMessage request);
  // Epoch fencing (docs/NETWORK.md "Cluster roles, epochs, and failover"):
  // the kFencedOff status for a batch carrying a fenced op unless this server
  // is the primary of the sender's epoch; OK otherwise.
  Status EpochFence(const RequestMessage& request);
  // Answers every op with `status`. Callers refuse a batch whole before
  // anything dispatches or forwards, so the batch executed nowhere.
  void FailBatch(const std::shared_ptr<PendingRequest>& pending, const Status& status);
  // Answers op `i` in place (server-addressed, refused, or unresolvable),
  // or appends it to the work items of its store's reactor.
  void RouteOp(Reactor& r, PendingRequest* pending, size_t i, ShardItems* shard_items);
  // Ops addressed to the server, answered on the reactor that read them.
  void AnswerOnReactor(Reactor& r, const OpRequest& op, OpResult* result);
  // The store `op` addresses, or null with result->status set when the op
  // needs no shard (an error, or an idempotent re-open's answer).
  // kOpenStore and kRestoreStore create or reset the store by namespace (a
  // store they create lives on `reactor`); every other op names an existing
  // store by id.
  StoreEntry* ResolveStore(const OpRequest& op, int reactor, OpResult* result);
  StoreEntry* PrepareOpen(const OpRequest& op, int reactor, OpResult* result);
  StoreEntry* PrepareRestore(const OpRequest& op, int reactor, OpResult* result);
  // Run or queue the routed sub-batches (`tasks` non-empty reactors); the
  // replicated path forwards the batch to the standby first.
  void DispatchLocal(Reactor& r, const std::shared_ptr<PendingRequest>& pending,
                     ShardItems* shard_items, size_t tasks);
  void DispatchReplicated(Reactor& r, const std::shared_ptr<PendingRequest>& pending,
                          ShardItems* shard_items, size_t tasks);
  // Renders the kStats introspection document (callable from any reactor).
  std::string BuildStatsJson();
  void FinishPending(const std::shared_ptr<PendingRequest>& pending);
  // The encode-and-queue tail of FinishPending; must run on the connection's
  // owner (or after the pool is joined).
  void SendResponse(const std::shared_ptr<PendingRequest>& pending);
  // Routes a response to its owner thread: direct call when already there,
  // kSendResponse task otherwise.
  void DeliverResponse(const std::shared_ptr<PendingRequest>& pending);
  void CloseConnLocal(Reactor& r, uint64_t conn_id);

  // ----- task plumbing -----

  bool PostTask(int reactor_index, ReactorTask task);
  // Queues a sub-batch on the reactor its stores live on.
  bool PostShardOps(int shard, const std::shared_ptr<PendingRequest>& pending,
                    std::vector<ShardWorkItem> items);
  void DrainTasks(Reactor& r);
  void RunTask(Reactor& r, ReactorTask& task);
  void AbortTask(Reactor& r, ReactorTask& task);
  // Runs the reactor's sub-batch; caller handles the `remaining` decrement.
  void ExecuteShardItems(Reactor& r, int64_t enqueue_nanos, PendingRequest* pending,
                         const std::vector<ShardWorkItem>& items);
  void CompleteRequest(const std::shared_ptr<PendingRequest>& pending);

  // ----- prefetch push (see src/net/prefetch.h) -----

  // Encodes and routes every window the reactor's scheduler fired. Runs at
  // the tail of ExecuteShardItems — BEFORE the
  // triggering request's kFinish is posted — so on any one connection the
  // push frame always precedes the ack of the append that closed the window
  // (inline: queued directly on this reactor's conn; cross-reactor: the
  // kPushSend task is posted ahead of kFinish and per-pair task order is
  // FIFO, and when the request completes on the connection's own reactor
  // CompleteRequest queues the ack behind the push). A client that has seen
  // its Flush() return has therefore already been handed the push. Returns
  // whether any push was posted to another reactor.
  bool DispatchFiredPushes(Reactor& r);
  // Queues one pre-encoded push frame on a connection this reactor owns;
  // sheds the push (counted) instead of queueing past the outbox budget so a
  // slow consumer degrades to remote reads rather than unbounded buffering.
  void SendPushLocal(Reactor& r, uint64_t conn_id, std::string header, std::string payload);
  void WakeReactor(int reactor_index) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(reactors_[static_cast<size_t>(reactor_index)]->wake_fd, &one, sizeof(one));
  }
  void WakeAll() {
    for (size_t i = 0; i < reactors_.size(); ++i) WakeReactor(static_cast<int>(i));
  }

  // ----- replication, primary side -----

  void HandleReplicaSubscribe(Reactor& r, Connection* conn, uint64_t standby_epoch);
  Status ShipSnapshot(Reactor& r) EXCLUDES(repl_mu_);
  // Stamps this server's epoch on `message` and sends it to the replica.
  // Sequence assignment and the send stay ordered under the caller's lock.
  bool SendReplicaFrame(Reactor& r, RequestMessage* message) REQUIRES(repl_mu_);
  void HandleReplicaAck(Reactor& r, uint64_t seq) EXCLUDES(repl_mu_);
  ReplicaDropActions DropReplicaLocked(const std::string& reason) REQUIRES(repl_mu_);
  void ApplyReplicaDrop(ReplicaDropActions actions) EXCLUDES(repl_mu_);
  void DropReplica(const std::string& reason) EXCLUDES(repl_mu_);
  void CheckReplicaAckTimeout() EXCLUDES(repl_mu_);
  void ReleaseParkedForDrain() EXCLUDES(repl_mu_);
  void ResumeAfterAttach(Reactor& r);
  void HandleReplicaHeartbeat(Reactor& r) EXCLUDES(repl_mu_);

  // ----- cluster role and epochs -----

  uint64_t cluster_epoch() const { return cluster_epoch_.load(std::memory_order_acquire); }
  int64_t cluster_role() const { return cluster_role_.load(std::memory_order_acquire); }
  // `r` non-null when the caller is a reactor thread holding `floor` units of
  // pending_count_ for the request that carries the promotion (the quiesce
  // then waits down to `floor` while pumping that reactor's tasks); off-pool
  // callers pass (nullptr, 0).
  Status PromoteInternal(uint64_t new_epoch, Reactor* r, size_t floor)
      EXCLUDES(repl_mu_, cluster_mu_);
  // In-memory fence: flips the role without touching CLUSTER_EPOCH —
  // persisting an epoch merely *observed* from a newer peer would let a
  // restart claim that epoch and split-brain against the real primary.
  void FenceInternal(const std::string& reason);
  // This server's answer to kClusterInfo (and to a successful kClusterAdmin).
  ClusterView CurrentClusterView() const;
  Status PersistClusterEpoch(uint64_t epoch) REQUIRES(cluster_mu_);
  Status LoadClusterEpoch();
  // Drops the attach gate and replays deferred requests; `r` as in
  // PromoteInternal (non-null = the calling reactor resumes inline).
  void ReleaseAttachGateAndResume(Reactor* r);

  StoreEntry* FindStore(uint64_t id) {
    MutexLock lock(&stores_mu_);
    return id < stores_.size() ? stores_[id].get() : nullptr;
  }
  StoreEntry* FindOrCreateStore(const std::string& ns, const OperatorStateSpec& spec,
                                int reactor, bool* created);
  Status DrainCheckpoint();
  // Checkpoints every store into `staged` (layout st<id>) and writes the
  // stores.meta manifest there. Stores on this reactor checkpoint here, the
  // rest via kCheckpointStore tasks joined by a barrier; after the pool is
  // joined everything runs direct.
  Status CheckpointStoresTo(const std::string& staged);

  // ----- shard execution (the store's reactor thread only) -----

  void ExecuteShardOp(StoreEntry* store, const OpRequest& op, uint64_t conn_id, OpResult* out);
  Status OpenStoreOnShard(StoreEntry* store, const std::string& restore_from = std::string());
  Status CheckpointStore(StoreEntry* store, const std::string& staged);

  std::string StoreDir(const std::string& ns) const {
    return JoinPath(JoinPath(options_.data_dir, kStoresDirName), SanitizeNs(ns));
  }

  // ----- checkpoint metadata -----

  std::string SerializeStoresMeta();
  Status RestoreFromLatestCheckpoint();

  void SetFinalStatus(const Status& s) {
    MutexLock lock(&status_mu_);
    if (final_status_.ok()) final_status_ = s;
  }

  void Join() {
    MutexLock lock(&join_mu_);
    // Reactor 0 joins 1..N-1 in its shutdown tail; joining it joins the pool.
    if (!reactors_.empty() && reactors_[0]->thread.joinable()) {
      reactors_[0]->thread.join();
    }
    for (auto& r : reactors_) {
      if (r->thread.joinable()) r->thread.join();
    }
  }

  friend class Server;

  // This server's instruments, named <kStats block>.<field> (BuildStatsJson).
  // Declared first so every instrument outlives the threads and tasks that
  // update it.
  obs::MetricsRegistry metrics_;
  ServerOptions options_;
  int port_ = 0;
  int listen_fd_ = -1;
  int unix_listen_fd_ = -1;  // AF_UNIX listener, -1 when not configured

  std::vector<std::unique_ptr<Reactor>> reactors_;
  // Immutable after Init; read by the async-signal-safe RequestDrain().
  std::vector<int> wake_fds_;

  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<uint32_t> next_reactor_rr_{0};

  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stop_requested_{false};
  // Reactor 0 observed the drain request and began coordinating it.
  std::atomic<bool> draining_{false};
  // Reactor 0 decided the drain is complete (or timed out); everyone exits.
  std::atomic<bool> loop_exit_{false};
  // Set by reactor 0 after joining the pool: the epilogue may touch any
  // reactor's connections directly.
  bool single_threaded_ = false;

  // Requests between dispatch and FinishPending. seq_cst pairs with the
  // repl_attach_ seqlock in HandleRequest so a snapshot attach can quiesce.
  std::atomic<size_t> pending_count_{0};

  Mutex status_mu_;
  Status final_status_ GUARDED_BY(status_mu_);
  Mutex join_mu_;  // serializes concurrent Join() callers; guards no data

  // Store registry; the mutex covers the vector/map shape and the open
  // lifecycle (any reactor routes). StoreEntry::open_state is guarded by it
  // too — a nested struct's fields cannot name the enclosing object's mutex
  // in a GUARDED_BY, so it keeps a comment-only guard
  // (docs/STATIC_ANALYSIS.md).
  mutable Mutex stores_mu_;
  std::vector<std::unique_ptr<StoreEntry>> stores_ GUARDED_BY(stores_mu_);
  std::map<std::string, uint64_t> store_ids_ GUARDED_BY(stores_mu_);

  // Connection directory for cross-reactor consumers (stats, accept); the
  // owning reactor's `conns` map remains the source of truth.
  struct ConnRef {
    int reactor = 0;
    std::shared_ptr<Connection> conn;
  };
  mutable Mutex registry_mu_;
  std::map<uint64_t, ConnRef> conn_registry_ GUARDED_BY(registry_mu_);

  // Replication state. One standby at a time; a new subscriber supersedes
  // the old one. The mutex orders sequence assignment with the per-shard
  // task pushes so queue order always equals sequence order.
  Mutex repl_mu_;
  uint64_t replica_conn_id_ GUARDED_BY(repl_mu_) = 0;  // 0 = no standby subscribed
  int replica_reactor_ GUARDED_BY(repl_mu_) = -1;
  uint64_t repl_next_seq_ GUARDED_BY(repl_mu_) = 1;
  uint64_t repl_acked_seq_ GUARDED_BY(repl_mu_) = 0;
  int64_t repl_last_progress_nanos_ GUARDED_BY(repl_mu_) = 0;
  // Responses parked until the standby acks their carrying sequence.
  std::map<uint64_t, std::shared_ptr<PendingRequest>> parked_ GUARDED_BY(repl_mu_);
  // Guarded by repl_mu_ (multi-thread increments would race RelaxedCounter).
  obs::Counter* m_repl_drops_ GUARDED_BY(repl_mu_);
  // Standby heartbeat tracking (docs/NETWORK.md "Cluster roles"): nanos of
  // the last heartbeat ack (request_id 0) from the subscriber, 0 before the
  // first one. Heartbeats deliberately do NOT feed repl_last_progress_nanos_:
  // a live-but-stalled standby must still trip the ack timeout.
  int64_t repl_last_heartbeat_nanos_ GUARDED_BY(repl_mu_) = 0;
  // Lock-free mirrors for the hot-path subscribed/attach checks.
  std::atomic<uint64_t> replica_conn_id_atomic_{0};
  std::atomic<bool> repl_attach_{false};

  // Cluster (epoch, role): the epoch only ever increases while the process
  // lives; the role moves primary/standby -> primary (Promote) or
  // * -> fenced (Fence / observing a higher epoch). Writers serialize on
  // cluster_mu_ (which also covers the CLUSTER_EPOCH file write); the
  // request hot path reads the atomics lock-free.
  Mutex cluster_mu_;
  std::atomic<uint64_t> cluster_epoch_{1};
  std::atomic<int64_t> cluster_role_{kRolePrimary};

  // Slow-request log and windowed-rate state for kStats, guarded by
  // stats_mu_ (kStats may be served by any reactor).
  struct SlowRequest {
    uint64_t request_id = 0;
    uint64_t conn_id = 0;
    uint64_t trace_id = 0;
    size_t num_ops = 0;
    double total_ms = 0;
    double queue_wait_ms = 0;
    double exec_ms = 0;
    int64_t ts_ms = 0;  // monotonic, when the request finished
    // Read-path attribution: "cache-hit" when the batch consumed a pushed
    // window (kDropWindow), "remote-miss" when it paid a server-side window
    // read (kGetWindowChunk), "" for batches with neither.
    const char* read_path = "";
  };
  Mutex stats_mu_;
  std::vector<SlowRequest> slow_log_ GUARDED_BY(stats_mu_);
  int64_t stats_prev_nanos_ GUARDED_BY(stats_mu_) = 0;
  int64_t stats_prev_requests_ GUARDED_BY(stats_mu_) = 0;
  std::vector<int64_t> stats_prev_shard_ops_ GUARDED_BY(stats_mu_);

  // Shared instruments that stay safe across threads: the gauge is a plain
  // atomic store, the histogram is internally locked.
  obs::Gauge* m_open_conns_;
  obs::HistogramMetric* m_request_latency_ms_;
};

Status Server::Impl::Init(const ServerOptions& options) {
  options_ = options;
  if (options_.num_shards < 1 || options_.num_shards > kMaxServerShards) {
    return Status::InvalidArgument("num_shards must be in [1, " +
                                   std::to_string(kMaxServerShards) + "]");
  }
  if (options_.data_dir.empty()) {
    return Status::InvalidArgument("data_dir is required");
  }
  FLOWKV_RETURN_IF_ERROR(CreateDirs(options_.data_dir));

  FLOWKV_RETURN_IF_ERROR(LoadClusterEpoch());
  cluster_role_.store(options_.start_as_standby ? kRoleStandby : kRolePrimary,
                      std::memory_order_release);

  m_open_conns_ = metrics_.GetGauge("server.open_conns");
  m_request_latency_ms_ = metrics_.GetHistogram("server.request_latency_ms");
  {
    MutexLock lock(&repl_mu_);  // uncontended: reactors start below
    m_repl_drops_ = metrics_.GetCounter("replication.drops");
  }

  reactors_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    auto r = std::make_unique<Reactor>();
    r->index = i;
    r->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (r->epfd < 0) {
      return Status::FromErrno("epoll_create1");
    }
    r->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (r->wake_fd < 0) {
      return Status::FromErrno("eventfd");
    }
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    if (::epoll_ctl(r->epfd, EPOLL_CTL_ADD, r->wake_fd, &ev) != 0) {
      return Status::FromErrno("epoll_ctl(wake)");
    }
    {
      // Distinct single-writer counter instances per reactor, created on this
      // thread so every reactor (and the stats builder) sees them published.
      obs::WorkerScope worker_scope(i);
      r->metrics.conns_accepted = metrics_.GetCounter("server.conns_accepted");
      r->metrics.requests = metrics_.GetCounter("server.requests");
      r->metrics.frames_in = metrics_.GetCounter("server.frames_in");
      r->metrics.bytes_in = metrics_.GetCounter("server.bytes_in");
      r->metrics.bytes_out = metrics_.GetCounter("server.bytes_out");
      r->metrics.protocol_errors = metrics_.GetCounter("server.protocol_errors");
      r->metrics.shed_overload = metrics_.GetCounter("server.shed_overload");
      r->metrics.repl_forwarded = metrics_.GetCounter("replication.frames_forwarded");
      r->metrics.pushes_sent = metrics_.GetCounter("prefetch.pushes_sent");
      r->metrics.pushes_dropped = metrics_.GetCounter("prefetch.pushes_dropped");
      r->metrics.fenced_rejects = metrics_.GetCounter("cluster.fenced_rejects");
      r->shed_deadline = metrics_.GetCounter("server.shed_deadline");
      r->cross_reactor_dispatches = metrics_.GetCounter("shard.cross_reactor_dispatches");
      r->prefetch =
          std::make_unique<ShardPrefetchScheduler>(options_.prefetch_shadow_bytes, &metrics_);
    }
    wake_fds_.push_back(r->wake_fd);
    reactors_.push_back(std::move(r));
  }

  if (!options_.checkpoint_dir.empty() && options_.restore) {
    FLOWKV_RETURN_IF_ERROR(RestoreFromLatestCheckpoint());
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::FromErrno("socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address: " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::FromErrno("bind " + options_.bind_address + ":" +
                             std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::FromErrno("listen");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    return Status::FromErrno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  FLOWKV_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  // Reactor 0 is the acceptor.
  epoll_event lev;
  std::memset(&lev, 0, sizeof(lev));
  lev.events = EPOLLIN;
  lev.data.u64 = kListenTag;
  if (::epoll_ctl(reactors_[0]->epfd, EPOLL_CTL_ADD, listen_fd_, &lev) != 0) {
    return Status::FromErrno("epoll_ctl(listen)");
  }

  if (!options_.unix_socket_path.empty()) {
    sockaddr_un uaddr;
    std::memset(&uaddr, 0, sizeof(uaddr));
    uaddr.sun_family = AF_UNIX;
    if (options_.unix_socket_path.size() >= sizeof(uaddr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     options_.unix_socket_path);
    }
    std::memcpy(uaddr.sun_path, options_.unix_socket_path.c_str(),
                options_.unix_socket_path.size() + 1);
    unix_listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_listen_fd_ < 0) {
      return Status::FromErrno("socket(AF_UNIX)");
    }
    ::unlink(options_.unix_socket_path.c_str());  // stale file from a crash
    if (::bind(unix_listen_fd_, reinterpret_cast<sockaddr*>(&uaddr), sizeof(uaddr)) != 0) {
      return Status::FromErrno("bind " + options_.unix_socket_path);
    }
    if (::listen(unix_listen_fd_, 128) != 0) {
      return Status::FromErrno("listen(unix)");
    }
    FLOWKV_RETURN_IF_ERROR(SetNonBlocking(unix_listen_fd_));
    epoll_event ulev;
    std::memset(&ulev, 0, sizeof(ulev));
    ulev.events = EPOLLIN;
    ulev.data.u64 = kUnixListenTag;
    if (::epoll_ctl(reactors_[0]->epfd, EPOLL_CTL_ADD, unix_listen_fd_, &ulev) != 0) {
      return Status::FromErrno("epoll_ctl(unix listen)");
    }
  }

  {
    MutexLock lock(&stats_mu_);  // uncontended: reactors start below
    stats_prev_nanos_ = MonotonicNanos();
    stats_prev_shard_ops_.assign(static_cast<size_t>(options_.num_shards), 0);
  }

  for (int i = 0; i < options_.num_shards; ++i) {
    reactors_[static_cast<size_t>(i)]->thread = std::thread(&Impl::ReactorMain, this, i);
  }

  FLOWKV_LOG(kInfo) << "flowkv_server listening " << LogKv("port", port_)
                    << LogKv("shards", options_.num_shards);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Checkpoint metadata
// ---------------------------------------------------------------------------

std::string Server::Impl::SerializeStoresMeta() {
  StoresMeta meta;
  MutexLock lock(&stores_mu_);
  for (const auto& store : stores_) {
    meta.stores.push_back({store->id, store->ns, store->spec});
  }
  return EncodeStoresMeta(meta);
}

Status Server::Impl::RestoreFromLatestCheckpoint() {
  const std::string current_path = JoinPath(options_.checkpoint_dir, kCurrentName);
  if (!FileExists(current_path)) {
    return Status::Ok();  // nothing committed yet
  }
  std::string epoch_name;
  FLOWKV_RETURN_IF_ERROR(ReadFileToString(current_path, &epoch_name));
  while (!epoch_name.empty() && (epoch_name.back() == '\n' || epoch_name.back() == '\0')) {
    epoch_name.pop_back();
  }
  const std::string epoch_dir = JoinPath(options_.checkpoint_dir, epoch_name);
  std::string meta_bytes;
  FLOWKV_RETURN_IF_ERROR(
      ReadFileToString(JoinPath(epoch_dir, kStoresMetaName), &meta_bytes));
  StoresMeta meta;
  FLOWKV_RETURN_IF_ERROR(DecodeStoresMeta(meta_bytes, &meta));

  // Pre-thread startup path: no reactors run yet, so restoring every store
  // on this thread keeps the single-writer contract. A store restores onto
  // reactor id % num_shards; no key is hashed, so any shard count restores.
  // The registry lock is uncontended here; holding it across the opens is
  // harmless and keeps the guarded-field accesses below analyzable.
  MutexLock lock(&stores_mu_);
  for (const StoreMetaEntry& e : meta.stores) {
    auto entry = std::make_unique<StoreEntry>();
    entry->id = stores_.size();  // == e.id: DecodeStoresMeta enforces density
    entry->shard = static_cast<int>(entry->id % static_cast<uint64_t>(options_.num_shards));
    entry->ns = e.ns;
    entry->spec = e.spec;
    entry->pattern =
        ClassifyPattern(e.spec.incremental, e.spec.window_kind, e.spec.alignment_hint);
    entry->open_state = StoreEntry::OpenState::kOpen;
    FLOWKV_RETURN_IF_ERROR(
        OpenStoreOnShard(entry.get(), JoinPath(epoch_dir, StoreCheckpointName(e.id))));
    store_ids_[entry->ns] = entry->id;
    stores_.push_back(std::move(entry));
  }
  FLOWKV_LOG(kInfo) << "restored server state " << LogKv("epoch", epoch_name)
                    << LogKv("stores", meta.stores.size());
  return Status::Ok();
}

Status Server::Impl::OpenStoreOnShard(StoreEntry* store, const std::string& restore_from) {
  const std::string dir = StoreDir(store->ns);
  obs::OperatorScope op_scope(store->spec.name);
  std::unique_ptr<FlowKvStore> kv;
  Status s;
  if (!restore_from.empty()) {
    // Checkpoint state is authoritative: drop any live data left behind.
    FLOWKV_RETURN_IF_ERROR(RemoveDirRecursively(dir));
    s = FlowKvStore::RestoreFrom(restore_from, dir, options_.store_options, store->spec, &kv);
  } else {
    s = FlowKvStore::Open(dir, options_.store_options, store->spec, &kv);
  }
  if (s.ok()) {
    store->kv = std::move(kv);
  }
  return s;
}

Status Server::Impl::CheckpointStore(StoreEntry* store, const std::string& staged) {
  obs::WorkerScope worker_scope(store->shard);
  if (store->kv == nullptr) {
    return Status::FailedPrecondition("store " + store->ns + " not open");
  }
  return store->kv->CheckpointTo(JoinPath(staged, StoreCheckpointName(store->id)));
}

// ---------------------------------------------------------------------------
// Reactor event loop
// ---------------------------------------------------------------------------

void Server::Impl::ReactorMain(int reactor_index) {
  tl_reactor = reactor_index;
  Reactor& r = *reactors_[static_cast<size_t>(reactor_index)];
  bool local_draining = false;
  int64_t drain_flush_deadline = 0;
  std::vector<epoll_event> events(128);

  while (true) {
    if (stop_requested_.load(std::memory_order_acquire) ||
        loop_exit_.load(std::memory_order_acquire)) {
      break;
    }

    if (!local_draining && drain_requested_.load(std::memory_order_acquire)) {
      local_draining = true;
      if (r.index == 0) {
        draining_.store(true, std::memory_order_release);
        drain_flush_deadline =
            MonotonicNanos() + static_cast<int64_t>(options_.drain_grace_ms) * 1'000'000;
        FLOWKV_LOG(kInfo) << "drain requested "
                          << LogKv("pending", pending_count_.load(std::memory_order_relaxed));
        // Stop accepting and stop waiting on standby acks: the drain
        // checkpoint below makes the acknowledged state durable locally.
        if (listen_fd_ >= 0) {
          ::epoll_ctl(r.epfd, EPOLL_CTL_DEL, listen_fd_, nullptr);
        }
        if (unix_listen_fd_ >= 0) {
          ::epoll_ctl(r.epfd, EPOLL_CTL_DEL, unix_listen_fd_, nullptr);
        }
        ReleaseParkedForDrain();
        WakeAll();
      }
      // Pause client reads; in-flight requests finish, nothing new starts.
      for (auto& kv : r.conns) {
        UpdateConnEvents(r, kv.second);
      }
    }

    if (r.index == 0) {
      CheckReplicaAckTimeout();
      if (local_draining) {
        bool done = pending_count_.load(std::memory_order_seq_cst) == 0;
        for (size_t i = 0; done && i < reactors_.size(); ++i) {
          if (!reactors_[i]->idle.load(std::memory_order_acquire)) done = false;
        }
        if (done || MonotonicNanos() >= drain_flush_deadline) {
          loop_exit_.store(true, std::memory_order_release);
          WakeAll();
          break;
        }
      }
    }

    const int timeout_ms = local_draining ? 10 : 500;
    const int n = ::epoll_wait(r.epfd, events.data(), static_cast<int>(events.size()),
                               timeout_ms);
    if (n < 0 && errno != EINTR) {
      SetFinalStatus(Status::FromErrno("epoll_wait"));
      stop_requested_.store(true, std::memory_order_release);
      WakeAll();
      break;
    }

    std::vector<uint64_t> to_close;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const uint64_t tag = events[static_cast<size_t>(i)].data.u64;
      const uint32_t ev = events[static_cast<size_t>(i)].events;
      if (tag == kWakeTag) {
        uint64_t v;
        [[maybe_unused]] ssize_t rd = ::read(r.wake_fd, &v, sizeof(v));
        continue;
      }
      if (tag == kListenTag) {
        if (!local_draining) AcceptNewConnections(r, listen_fd_, /*tcp=*/true);
        continue;
      }
      if (tag == kUnixListenTag) {
        if (!local_draining) AcceptNewConnections(r, unix_listen_fd_, /*tcp=*/false);
        continue;
      }
      auto it = r.conns.find(tag);
      if (it == r.conns.end()) {
        continue;  // closed earlier this round
      }
      Connection* conn = it->second.conn.get();
      if (ev & (EPOLLERR | EPOLLHUP)) {
        to_close.push_back(tag);
        continue;
      }
      if (ev & EPOLLOUT) {
        if (!conn->FlushWrites().ok()) {
          to_close.push_back(tag);
          continue;
        }
        if (!conn->has_pending_writes() && conn->close_after_flush()) {
          to_close.push_back(tag);
          continue;
        }
      }
      if (ev & EPOLLIN) {
        HandleReadable(r, tag);
      }
      auto it2 = r.conns.find(tag);
      if (it2 != r.conns.end()) {
        UpdateConnEvents(r, it2->second);
      }
    }
    for (const uint64_t id : to_close) {
      CloseConnLocal(r, id);
    }

    DrainTasks(r);

    bool idle = r.task_count.load(std::memory_order_acquire) == 0;
    if (idle) {
      for (const auto& kv : r.conns) {
        if (kv.second.conn->has_pending_writes()) {
          idle = false;
          break;
        }
      }
    }
    r.idle.store(idle, std::memory_order_release);
  }

  ReactorShutdownTail(r, local_draining);
}

void Server::Impl::ReactorShutdownTail(Reactor& r, bool local_draining) {
  // Refuse new tasks, then abort what is already queued: a producer blocked
  // on a barrier (snapshot attach) must not wait on a queue nobody drains.
  {
    std::deque<ReactorTask> leftover;
    {
      MutexLock lock(&r.mu);
      r.closed = true;
      leftover.swap(r.tasks);
      r.task_count.store(0, std::memory_order_relaxed);
    }
    for (ReactorTask& t : leftover) {
      AbortTask(r, t);
    }
  }

  if (r.index != 0) {
    return;
  }

  // Reactor 0 epilogue: join the pool, then finish shutdown single-threaded.
  for (size_t i = 1; i < reactors_.size(); ++i) {
    if (reactors_[i]->thread.joinable()) reactors_[i]->thread.join();
  }
  single_threaded_ = true;

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  CloseUnixListener();
  const bool clean_drain = local_draining && !stop_requested_.load(std::memory_order_acquire);

  // Anything still parked (hard stop, or parked during the grace window)
  // gets a best-effort response before connections close.
  std::vector<std::shared_ptr<PendingRequest>> released;
  {
    MutexLock lock(&repl_mu_);
    replica_conn_id_ = 0;
    replica_reactor_ = -1;
    replica_conn_id_atomic_.store(0, std::memory_order_release);
    for (auto& entry : parked_) {
      released.push_back(std::move(entry.second));
    }
    parked_.clear();
  }
  for (const auto& pending : released) {
    SendResponse(pending);
  }

  for (auto& reactor : reactors_) {
    for (auto& kv : reactor->conns) {
      if (clean_drain) {
        // Best effort: deliver remaining acks; the socket closes either way.
        kv.second.conn->FlushWrites().IgnoreError();
      }
    }
    reactor->conns.clear();
  }
  {
    MutexLock lock(&registry_mu_);
    conn_registry_.clear();
  }
  m_open_conns_->Set(0);

  if (clean_drain && !options_.checkpoint_dir.empty()) {
    const Status s = DrainCheckpoint();
    SetFinalStatus(s);
    if (!s.ok()) {
      FLOWKV_LOG(kError) << "drain checkpoint failed " << LogKv("status", s.ToString());
      obs::TriggerFlightRecord("drain checkpoint failed: " + s.ToString());
    }
  }
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

void Server::Impl::CloseUnixListener() {
  if (unix_listen_fd_ >= 0) {
    ::close(unix_listen_fd_);
    unix_listen_fd_ = -1;
    ::unlink(options_.unix_socket_path.c_str());
  }
}

void Server::Impl::AcceptNewConnections(Reactor& r, int listen_fd, bool tcp) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      return;  // EAGAIN or transient error; retry next event
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    if (tcp) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    const uint64_t id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>(id, fd, options_.max_outbox_bytes);
    const int target =
        static_cast<int>(next_reactor_rr_.fetch_add(1, std::memory_order_relaxed) %
                         static_cast<uint32_t>(options_.num_shards));
    {
      MutexLock lock(&registry_mu_);
      conn_registry_[id] = {target, conn};
      m_open_conns_->Set(static_cast<int64_t>(conn_registry_.size()));
    }
    r.metrics.conns_accepted->Add(1);
    if (target == r.index) {
      AdoptConn(r, std::move(conn));
      continue;
    }
    ReactorTask task;
    task.kind = ReactorTask::Kind::kAdoptConn;
    task.conn = std::move(conn);
    if (!PostTask(target, std::move(task))) {
      // Target reactor already shut down (stop in flight): drop the conn.
      MutexLock lock(&registry_mu_);
      conn_registry_.erase(id);
      m_open_conns_->Set(static_cast<int64_t>(conn_registry_.size()));
    }
  }
}

void Server::Impl::AdoptConn(Reactor& r, std::shared_ptr<Connection> conn) {
  const uint64_t id = conn->id();
  const int fd = conn->fd();
  auto res = r.conns.emplace(id, Reactor::ConnState{std::move(conn), 0});
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = 0;
  ev.data.u64 = id;
  if (::epoll_ctl(r.epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    CloseConnLocal(r, id);
    return;
  }
  UpdateConnEvents(r, res.first->second);
}

void Server::Impl::UpdateConnEvents(Reactor& r, Reactor::ConnState& cs) {
  Connection* conn = cs.conn.get();
  const bool is_replica =
      conn->id() != 0 &&
      conn->id() == replica_conn_id_atomic_.load(std::memory_order_relaxed);
  uint32_t want = 0;
  // The replica connection must always stay readable: its inbound bytes are
  // acks, and pausing them (outbox backpressure applies while a snapshot
  // ships, drains pause client reads) would deadlock parked responses
  // against the very acks that release them.
  if (is_replica ||
      (!conn->over_outbox_budget() && !drain_requested_.load(std::memory_order_relaxed) &&
       !repl_attach_.load(std::memory_order_relaxed))) {
    want |= EPOLLIN;
  }
  if (conn->has_pending_writes()) {
    want |= EPOLLOUT;
  }
  if (want == cs.events) {
    return;
  }
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = want;
  ev.data.u64 = conn->id();
  if (::epoll_ctl(r.epfd, EPOLL_CTL_MOD, conn->fd(), &ev) == 0) {
    cs.events = want;
  }
}

void Server::Impl::HandleReadable(Reactor& r, uint64_t conn_id) {
  auto it = r.conns.find(conn_id);
  if (it == r.conns.end()) {
    return;
  }
  Connection* conn = it->second.conn.get();
  bool eof = false;
  const size_t before = conn->buffered().size();
  if (!conn->ReadFromSocket(&eof).ok()) {
    CloseConnLocal(r, conn_id);
    return;
  }
  r.metrics.bytes_in->Add(static_cast<int64_t>(conn->buffered().size() - before));

  if (!ProcessBufferedFrames(r, conn_id)) {
    return;  // closed while dispatching
  }

  if (eof) {
    auto it2 = r.conns.find(conn_id);
    if (it2 == r.conns.end()) {
      return;
    }
    if (it2->second.conn->has_pending_writes()) {
      it2->second.conn->set_close_after_flush();
    } else {
      CloseConnLocal(r, conn_id);
    }
  }
}

bool Server::Impl::ProcessBufferedFrames(Reactor& r, uint64_t conn_id) {
  while (true) {
    auto it = r.conns.find(conn_id);
    if (it == r.conns.end()) {
      return false;
    }
    Connection* conn = it->second.conn.get();
    const bool is_replica =
        conn_id != 0 &&
        conn_id == replica_conn_id_atomic_.load(std::memory_order_relaxed);
    if (repl_attach_.load(std::memory_order_acquire) && !is_replica) {
      // A snapshot attach is quiescing the server: leave the bytes buffered
      // (reads get re-armed and the frames replayed by kAttachResume).
      return true;
    }
    Slice buffered = conn->buffered();
    Slice payload;
    bool complete = false;
    const size_t size_before = buffered.size();
    const Status s = TryDecodeFrame(&buffered, &payload, &complete);
    if (!s.ok()) {
      // Oversized or corrupt frame: the byte stream cannot be resynced.
      r.metrics.protocol_errors->Add(1);
      FLOWKV_LOG(kWarn) << "dropping connection on bad frame "
                        << LogKv("status", s.ToString());
      CloseConnLocal(r, conn_id);
      return false;
    }
    if (!complete) {
      return true;
    }
    r.metrics.frames_in->Add(1);
    const size_t frame_bytes = size_before - buffered.size();

    if (is_replica) {
      // After subscribing, the standby only ever sends acks (ResponseMessage
      // frames echoing the replication sequence).
      ResponseMessage ack;
      const Status ack_status = DecodeResponse(payload, &ack);
      conn->Consume(frame_bytes);
      if (!ack_status.ok()) {
        r.metrics.protocol_errors->Add(1);
        DropReplica("corrupt ack frame");
        return false;
      }
      if (ack.request_id == 0) {
        // Lease heartbeat (replication sequences start at 1): record it and
        // answer with an epoch-bearing frame so the standby's lease clock —
        // and its view of the primary's epoch — both refresh.
        HandleReplicaHeartbeat(r);
        continue;
      }
      HandleReplicaAck(r, ack.request_id);
      continue;
    }

    RequestMessage request;
    const Status decode_status = DecodeRequest(payload, &request);
    conn->Consume(frame_bytes);
    if (!decode_status.ok()) {
      r.metrics.protocol_errors->Add(1);
      if (decode_status.IsFailedPrecondition()) {
        // A peer of another wire version (the status names both numbers).
        FLOWKV_LOG(kWarn) << "dropping connection " << LogKv("conn", conn_id)
                          << LogKv("status", decode_status.ToString());
      }
      CloseConnLocal(r, conn_id);
      return false;
    }
    // The frame is consumed before dispatch: a subscribe makes the next
    // buffered frame an ack, and a promote replays the buffered frames.
    HandleRequest(r, conn, std::move(request));
    // HandleRequest may have closed (and freed) the connection on a fatal
    // error; the loop re-checks liveness by id, never through `conn`.
  }
}

void Server::Impl::CloseConnLocal(Reactor& r, uint64_t conn_id) {
  auto it = r.conns.find(conn_id);
  if (it == r.conns.end()) {
    return;
  }
  // Deregister explicitly: stats snapshots may hold shared_ptr refs that
  // defer the fd close past this point.
  ::epoll_ctl(r.epfd, EPOLL_CTL_DEL, it->second.conn->fd(), nullptr);
  r.conns.erase(it);
  {
    MutexLock lock(&registry_mu_);
    conn_registry_.erase(conn_id);
    m_open_conns_->Set(static_cast<int64_t>(conn_registry_.size()));
  }
  if (conn_id == replica_conn_id_atomic_.load(std::memory_order_relaxed)) {
    // DropReplica zeroes the id before closing, so this does not recurse.
    DropReplica("connection closed");
  }
  if (options_.enable_prefetch_push) {
    // Push subscriptions die with the connection. This reactor's scheduler
    // unregisters inline; the rest get a best-effort task (a reactor already
    // closed is shutting down and its scheduler dies with it).
    for (auto& other : reactors_) {
      if (single_threaded_ || other.get() == &r) {
        other->prefetch->Unregister(conn_id);
        continue;
      }
      ReactorTask task;
      task.kind = ReactorTask::Kind::kPrefetchUnsub;
      task.conn_id = conn_id;
      PostTask(other->index, std::move(task));
    }
  }
}

// ---------------------------------------------------------------------------
// Request dispatch
// ---------------------------------------------------------------------------

void Server::Impl::DeferForAttach(Reactor& r, Connection* conn, RequestMessage request) {
  r.attach_deferred.emplace_back(conn->id(), std::move(request));
}

void Server::Impl::HandleRequest(Reactor& r, Connection* conn, RequestMessage request) {
  // A standby announcing itself: the frame belongs to the replication
  // stream, never the dispatch path.
  if (request.ops.size() == 1 && request.ops[0].type == OpType::kReplicaSubscribe) {
    r.metrics.requests->Add(1);
    HandleReplicaSubscribe(r, conn, request.epoch);
    return;
  }

  // Snapshot-attach gate, seqlock-style against the quiesce in
  // HandleReplicaSubscribe: (1) check, (2) publish intent via
  // pending_count_, (3) re-check. The attach sets the flag and then waits
  // for pending_count_ to hit zero; seq_cst totals the four accesses, so a
  // request either defers or is visible to the quiesce loop.
  if (repl_attach_.load(std::memory_order_seq_cst)) {
    DeferForAttach(r, conn, std::move(request));
    return;
  }
  pending_count_.fetch_add(1, std::memory_order_seq_cst);
  if (repl_attach_.load(std::memory_order_seq_cst)) {
    pending_count_.fetch_sub(1, std::memory_order_seq_cst);
    DeferForAttach(r, conn, std::move(request));
    return;
  }
  r.metrics.requests->Add(1);
  const Status fence = EpochFence(request);

  auto pending = std::make_shared<PendingRequest>();
  pending->conn_id = conn->id();
  pending->conn_reactor = r.index;
  pending->counted = true;
  pending->request_id = request.request_id;
  pending->start_nanos = MonotonicNanos();
  if (request.deadline_ms > 0) {
    // Pin the client's relative deadline to this server's clock at decode
    // time; execution sheds work that outlives it.
    pending->deadline_nanos =
        pending->start_nanos + static_cast<int64_t>(request.deadline_ms) * 1'000'000;
  }
  pending->trace_id = request.trace_id;
  pending->span_id = request.span_id;
  pending->ops = std::move(request.ops);
  pending->results.resize(pending->ops.size());
  obs::TraceInstant("server_dispatch", "server", "trace_id",
                    static_cast<int64_t>(pending->trace_id), "ops",
                    static_cast<int64_t>(pending->ops.size()));
  if (!fence.ok()) {
    r.metrics.fenced_rejects->Add(1);
    FailBatch(pending, fence);
    return;
  }

  ShardItems shard_items(static_cast<size_t>(options_.num_shards));
  for (size_t i = 0; i < pending->ops.size(); ++i) {
    RouteOp(r, pending.get(), i, &shard_items);
  }
  const size_t tasks = static_cast<size_t>(std::count_if(
      shard_items.begin(), shard_items.end(), [](const auto& items) { return !items.empty(); }));

  // Overload shedding happens before anything dispatches or forwards, so
  // kOverloaded guarantees the batch executed nowhere — the one status a
  // client may blindly retry.
  for (int shard = 0; options_.max_shard_queue_depth > 0 && shard < options_.num_shards;
       ++shard) {
    if (!shard_items[static_cast<size_t>(shard)].empty() &&
        reactors_[static_cast<size_t>(shard)]->depth.load(std::memory_order_relaxed) >=
            options_.max_shard_queue_depth) {
      r.metrics.shed_overload->Add(1);
      FailBatch(pending, Status::Overloaded("shard queue over bound"));
      return;
    }
  }

  if (tasks == 0) {
    FinishPending(pending);
  } else if (replica_conn_id_atomic_.load(std::memory_order_acquire) != 0) {
    DispatchReplicated(r, pending, &shard_items, tasks);
  } else {
    DispatchLocal(r, pending, &shard_items, tasks);
  }
}

Status Server::Impl::EpochFence(const RequestMessage& request) {
  // The ReplicaPuller's loopback apply stream (internal_apply) is exempt: it
  // is the one writer a standby exists to serve.
  if (request.internal_apply) {
    return Status::Ok();
  }
  if (request.epoch != 0 && request.epoch > cluster_epoch_.load(std::memory_order_acquire)) {
    // The client has seen a newer primary than us: we are stale, whatever
    // our role. Fence in memory only (see FenceInternal) and fall through
    // to the rejection below.
    FenceInternal("request carried epoch " + std::to_string(request.epoch) + " > local " +
                  std::to_string(cluster_epoch_.load(std::memory_order_acquire)));
  }
  const bool fenced = std::any_of(request.ops.begin(), request.ops.end(),
                                  [](const OpRequest& op) { return OpInfoOf(op.type).fenced; });
  const int64_t role = cluster_role_.load(std::memory_order_acquire);
  const uint64_t epoch = cluster_epoch_.load(std::memory_order_acquire);
  const bool stale_epoch = request.epoch != 0 && request.epoch != epoch;
  if (!fenced || (role == kRolePrimary && !stale_epoch)) {
    return Status::Ok();
  }
  const std::string why =
      role == kRoleStandby ? "standby"
      : role == kRoleFenced
          ? "fenced"
          : "stale epoch " + std::to_string(request.epoch) + " != " + std::to_string(epoch);
  return Status::FencedOff(why + " (epoch " + std::to_string(epoch) + ")");
}

void Server::Impl::FailBatch(const std::shared_ptr<PendingRequest>& pending,
                             const Status& status) {
  for (size_t i = 0; i < pending->ops.size(); ++i) {
    pending->results[i] = OpResult{};
    pending->results[i].type = pending->ops[i].type;
    pending->results[i].status = status;
  }
  FinishPending(pending);
}

void Server::Impl::RouteOp(Reactor& r, PendingRequest* pending, size_t i,
                           ShardItems* shard_items) {
  const OpRequest& op = pending->ops[i];
  OpResult& result = pending->results[i];
  result.type = op.type;
  const OpInfo& info = OpInfoOf(op.type);
  if (info.address == OpAddress::kServer) {
    AnswerOnReactor(r, op, &result);
    return;
  }
  if (info.address == OpAddress::kRefused) {
    result.status =
        Status::InvalidArgument(std::string(info.name) + " is not valid in a request batch");
    return;
  }
  StoreEntry* store = ResolveStore(op, r.index, &result);
  if (store != nullptr) {
    (*shard_items)[static_cast<size_t>(store->shard)].push_back({i, store});
  }
}

void Server::Impl::AnswerOnReactor(Reactor& r, const OpRequest& op, OpResult* result) {
  result->status = Status::Ok();
  switch (op.type) {
    case OpType::kStats:
      // All the inputs are locked or lock-free snapshots, so a stats poll
      // never queues behind store work.
      result->stats_json = BuildStatsJson();
      break;
    case OpType::kClusterInfo:
      // The connect handshake: legal on every role (it is how clients and
      // standbys find the primary).
      result->stat_fields = ClusterViewFields(CurrentClusterView());
      break;
    case OpType::kClusterAdmin:
      if (op.path == "fence") {
        FenceInternal("admin fence");
      } else if (op.path == "promote") {
        // op.timestamp optionally carries the target epoch; 0 = current + 1.
        const uint64_t target = op.timestamp > 0
                                    ? static_cast<uint64_t>(op.timestamp)
                                    : cluster_epoch_.load(std::memory_order_acquire) + 1;
        // This request holds one unit of pending_count_; the quiesce inside
        // waits down to that floor while pumping this reactor's tasks.
        result->status = PromoteInternal(target, &r, 1);
      } else {
        result->status = Status::InvalidArgument("unknown cluster admin command: " + op.path);
      }
      if (result->status.ok()) {
        result->stat_fields = ClusterViewFields(CurrentClusterView());
      }
      break;
    default:  // kPing
      break;
  }
}

Server::Impl::StoreEntry* Server::Impl::ResolveStore(const OpRequest& op, int reactor,
                                                     OpResult* result) {
  if (op.type == OpType::kOpenStore) {
    return PrepareOpen(op, reactor, result);
  }
  if (op.type == OpType::kRestoreStore) {
    return PrepareRestore(op, reactor, result);
  }
  StoreEntry* store = FindStore(op.store_id);
  if (store == nullptr) {
    result->status = Status::InvalidArgument("unknown store id " + std::to_string(op.store_id));
  }
  return store;
}

Server::Impl::StoreEntry* Server::Impl::PrepareOpen(const OpRequest& op, int reactor,
                                                    OpResult* result) {
  if (op.ns.empty()) {
    result->status = Status::InvalidArgument("empty store namespace");
    return nullptr;
  }
  bool created = false;
  StoreEntry* store = FindOrCreateStore(op.ns, op.spec, reactor, &created);
  if (created) {
    return store;
  }
  // Idempotent re-open (e.g. a client reconnecting after a server or client
  // restart): hand back the existing id if the spec agrees.
  const StorePattern pattern =
      ClassifyPattern(op.spec.incremental, op.spec.window_kind, op.spec.alignment_hint);
  MutexLock lock(&stores_mu_);
  if (pattern != store->pattern) {
    result->status = Status::InvalidArgument("store " + op.ns + " already open with pattern " +
                                             StorePatternName(store->pattern));
    return nullptr;
  }
  if (store->open_state == StoreEntry::OpenState::kOpen) {
    result->status = Status::Ok();
    result->store_id = store->id;
    result->pattern = store->pattern;
    return nullptr;
  }
  // Previous open failed (or is still in flight): retry the open. A store
  // already open on its shard answers OK without being touched, so a
  // concurrent or repeated open is harmless.
  store->open_state = StoreEntry::OpenState::kOpening;
  return store;
}

Server::Impl::StoreEntry* Server::Impl::PrepareRestore(const OpRequest& op, int reactor,
                                                       OpResult* result) {
  if (op.ns.empty() || op.path.empty()) {
    result->status = Status::InvalidArgument("kRestoreStore needs ns and path");
    return nullptr;
  }
  bool created = false;
  StoreEntry* store = FindOrCreateStore(op.ns, op.spec, reactor, &created);
  if (store->id != op.store_id) {
    result->status = Status::InvalidArgument(
        "restore id mismatch for " + op.ns + ": have " + std::to_string(store->id) +
        ", primary says " + std::to_string(op.store_id));
    return nullptr;
  }
  MutexLock lock(&stores_mu_);
  store->spec = op.spec;
  store->pattern =
      ClassifyPattern(op.spec.incremental, op.spec.window_kind, op.spec.alignment_hint);
  store->open_state = StoreEntry::OpenState::kOpening;
  return store;
}

void Server::Impl::DispatchLocal(Reactor& r, const std::shared_ptr<PendingRequest>& pending,
                                 ShardItems* shard_items, size_t tasks) {
  // This reactor's own stores execute inline, with no queue hop, when none
  // of their ops are queued. Everything else takes the single-writer queue
  // path. The dispatcher holds one unit of `remaining` so a queued sub-batch
  // finishing first cannot race FinishPending against the inline execution.
  pending->remaining.store(tasks + 1, std::memory_order_relaxed);
  const int64_t dispatch_nanos = MonotonicNanos();
  for (int shard = 0; shard < options_.num_shards; ++shard) {
    auto& items = (*shard_items)[static_cast<size_t>(shard)];
    if (items.empty()) continue;
    if (shard == r.index && r.depth.load(std::memory_order_acquire) == 0) {
      ExecuteShardItems(r, dispatch_nanos, pending.get(), items);
      pending->remaining.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    if (!PostShardOps(shard, pending, std::move(items))) {
      // Reactor already gone (hard stop): nobody will run it.
      pending->remaining.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  if (pending->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    CompleteRequest(pending);
  }
}

void Server::Impl::DispatchReplicated(Reactor& r,
                                      const std::shared_ptr<PendingRequest>& pending,
                                      ShardItems* shard_items, size_t tasks) {
  // Subscribed: sequence assignment and the per-shard pushes happen under
  // one lock so queue order equals sequence order everywhere. Every
  // sub-batch goes through the queues (inline execution could overtake an
  // older queued op for the same shard).
  pending->remaining.store(tasks + 1, std::memory_order_relaxed);

  ReplicaDropActions drop;
  bool dropped = false;
  {
    MutexLock lock(&repl_mu_);
    if (replica_conn_id_ != 0) {
      RequestMessage fwd;
      for (const OpRequest& op : pending->ops) {
        if (OpInfoOf(op.type).forwarded) {
          fwd.ops.push_back(op);
        }
      }
      if (!fwd.ops.empty()) {
        // Forward before local dispatch, tagged with the next dense
        // sequence; FinishPending parks the response until the standby acks
        // it (synchronous replication).
        fwd.request_id = repl_next_seq_++;
        pending->repl_seq = fwd.request_id;
        if (!SendReplicaFrame(r, &fwd)) {
          pending->repl_seq = 0;  // replica just dropped; proceed unreplicated
          drop = DropReplicaLocked("send failed");
          dropped = true;
        }
      }
    }
    for (int shard = 0; shard < options_.num_shards; ++shard) {
      auto& items = (*shard_items)[static_cast<size_t>(shard)];
      if (items.empty()) continue;
      if (!PostShardOps(shard, pending, std::move(items))) {
        pending->remaining.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
  }
  if (dropped) {
    ApplyReplicaDrop(std::move(drop));
  }
  if (pending->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    CompleteRequest(pending);
  }
}

Server::Impl::StoreEntry* Server::Impl::FindOrCreateStore(const std::string& ns,
                                                          const OperatorStateSpec& spec,
                                                          int reactor, bool* created) {
  MutexLock lock(&stores_mu_);
  auto it = store_ids_.find(ns);
  if (it != store_ids_.end()) {
    *created = false;
    return stores_[it->second].get();
  }
  *created = true;
  auto entry = std::make_unique<StoreEntry>();
  StoreEntry* raw = entry.get();
  entry->ns = ns;
  entry->spec = spec;
  entry->pattern = ClassifyPattern(spec.incremental, spec.window_kind, spec.alignment_hint);
  entry->id = stores_.size();
  entry->shard = reactor;
  store_ids_[ns] = entry->id;
  stores_.push_back(std::move(entry));
  return raw;
}

// ---------------------------------------------------------------------------
// Task plumbing
// ---------------------------------------------------------------------------

bool Server::Impl::PostTask(int reactor_index, ReactorTask task) {
  Reactor& r = *reactors_[static_cast<size_t>(reactor_index)];
  {
    MutexLock lock(&r.mu);
    if (r.closed) {
      return false;
    }
    r.tasks.push_back(std::move(task));
    // Inside the lock so reactor 0's drain check can never observe
    // task_count == 0 with a task already visible in the deque (or vice
    // versa) — the idle flag and the count move together.
    r.task_count.fetch_add(1, std::memory_order_relaxed);
    r.idle.store(false, std::memory_order_relaxed);
  }
  WakeReactor(reactor_index);
  return true;
}

bool Server::Impl::PostShardOps(int shard, const std::shared_ptr<PendingRequest>& pending,
                                std::vector<ShardWorkItem> items) {
  ReactorTask task;
  task.kind = ReactorTask::Kind::kShardOps;
  task.enqueue_nanos = MonotonicNanos();
  task.pending = pending;
  task.items = std::move(items);
  // Raise the depth before the task is visible: the reactor's inline gate
  // reads it with acquire, so a non-zero depth reliably forces later
  // requests for its stores onto the queue behind us.
  std::atomic<size_t>& depth = reactors_[static_cast<size_t>(shard)]->depth;
  depth.fetch_add(1, std::memory_order_release);
  if (!PostTask(shard, std::move(task))) {
    depth.fetch_sub(1, std::memory_order_release);
    return false;
  }
  return true;
}

void Server::Impl::DrainTasks(Reactor& r) {
  while (true) {
    std::deque<ReactorTask> batch;
    {
      MutexLock lock(&r.mu);
      if (r.tasks.empty()) {
        return;
      }
      batch.swap(r.tasks);
      r.task_count.fetch_sub(batch.size(), std::memory_order_relaxed);
    }
    for (ReactorTask& task : batch) {
      RunTask(r, task);
    }
  }
}

void Server::Impl::RunTask(Reactor& r, ReactorTask& task) {
  switch (task.kind) {
    case ReactorTask::Kind::kAdoptConn:
      AdoptConn(r, std::move(task.conn));
      break;
    case ReactorTask::Kind::kShardOps: {
      r.depth.fetch_sub(1, std::memory_order_release);
      if (task.pending->conn_reactor != r.index) {
        r.cross_reactor_dispatches->Add(1);
      }
      ExecuteShardItems(r, task.enqueue_nanos, task.pending.get(), task.items);
      if (task.pending->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        CompleteRequest(task.pending);
      }
      break;
    }
    case ReactorTask::Kind::kFinish:
      FinishPending(task.pending);
      break;
    case ReactorTask::Kind::kSendResponse:
      SendResponse(task.pending);
      break;
    case ReactorTask::Kind::kReplicaSend: {
      auto it = r.conns.find(task.conn_id);
      if (it == r.conns.end()) {
        DropReplica("connection missing");
        break;
      }
      Connection* conn = it->second.conn.get();
      r.metrics.bytes_out->Add(
          static_cast<int64_t>(task.frame_header.size() + task.frame_payload.size()));
      r.metrics.repl_forwarded->Add(1);
      conn->QueueFrameParts(std::move(task.frame_header), std::move(task.frame_payload));
      if (!conn->FlushWrites().ok()) {
        DropReplica("send failed");
        break;
      }
      UpdateConnEvents(r, it->second);
      break;
    }
    case ReactorTask::Kind::kCloseConn:
      CloseConnLocal(r, task.conn_id);
      break;
    case ReactorTask::Kind::kCheckpointStore:
      task.barrier->Done(CheckpointStore(task.store, task.checkpoint_dir));
      break;
    case ReactorTask::Kind::kAttachResume:
      ResumeAfterAttach(r);
      break;
    case ReactorTask::Kind::kPushSend:
      SendPushLocal(r, task.conn_id, std::move(task.frame_header),
                    std::move(task.frame_payload));
      break;
    case ReactorTask::Kind::kPrefetchUnsub:
      // Drop the closed connection's subscriptions from this reactor's
      // scheduler (schedulers are confined to their reactor).
      r.prefetch->Unregister(task.conn_id);
      break;
  }
}

void Server::Impl::AbortTask(Reactor& r, ReactorTask& task) {
  switch (task.kind) {
    case ReactorTask::Kind::kCheckpointStore:
      // Someone is blocked in Barrier::Wait; a silent drop would hang them.
      task.barrier->Done(Status::FailedPrecondition("server stopping"));
      break;
    case ReactorTask::Kind::kAdoptConn: {
      MutexLock lock(&registry_mu_);
      conn_registry_.erase(task.conn->id());
      m_open_conns_->Set(static_cast<int64_t>(conn_registry_.size()));
      break;
    }
    case ReactorTask::Kind::kShardOps:
      r.depth.fetch_sub(1, std::memory_order_release);
      if (task.pending->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
          task.pending->counted) {
        task.pending->counted = false;
        pending_count_.fetch_sub(1, std::memory_order_seq_cst);
      }
      break;
    case ReactorTask::Kind::kFinish:
      if (task.pending->counted) {
        task.pending->counted = false;
        pending_count_.fetch_sub(1, std::memory_order_seq_cst);
      }
      break;
    default:
      break;  // responses/closes/resumes: nothing waits on them at hard stop
  }
}

void Server::Impl::ExecuteShardItems(Reactor& r, int64_t enqueue_nanos,
                                     PendingRequest* pending,
                                     const std::vector<ShardWorkItem>& items) {
  // Store execution metrics are labeled worker = shard (the reactor index).
  obs::WorkerScope worker_scope(r.index);
  const int64_t dequeue_nanos = MonotonicNanos();
  // Inline execution emits a zero-length queue-wait span (enqueue == now), so
  // a request's trace always shows the dispatch→execute handoff either way.
  obs::TraceCompleteSpan("server_queue_wait", "server", enqueue_nanos, dequeue_nanos,
                         "trace_id", static_cast<int64_t>(pending->trace_id), "shard",
                         r.index);
  AtomicMaxRelaxed(&pending->queue_wait_nanos, dequeue_nanos - enqueue_nanos);
  // Deadline shedding: skip work the client has already given up on — unless
  // its ops were forwarded to a standby, which will execute them; the primary
  // must stay in lockstep.
  const bool shed = pending->deadline_nanos != 0 && pending->repl_seq == 0 &&
                    dequeue_nanos > pending->deadline_nanos;
  if (shed) {
    r.shed_deadline->Add(1);
  }
  for (const ShardWorkItem& item : items) {
    const OpRequest& op = pending->ops[item.op_index];
    OpResult* out = &pending->results[item.op_index];
    if (shed) {
      out->type = op.type;
      out->status = Status::TimedOut("deadline expired before execution");
      continue;
    }
    ExecuteShardOp(item.store, op, pending->conn_id, out);
  }
  // Fired windows go out before the caller posts kFinish for this request,
  // so on any one connection the push precedes the triggering append's ack.
  if (DispatchFiredPushes(r)) {
    pending->push_posted.store(true, std::memory_order_release);
  }
  const int64_t exec_end_nanos = MonotonicNanos();
  obs::TraceCompleteSpan("server_exec", "server", dequeue_nanos, exec_end_nanos,
                         "trace_id", static_cast<int64_t>(pending->trace_id), "ops",
                         static_cast<int64_t>(items.size()));
  AtomicMaxRelaxed(&pending->exec_nanos, exec_end_nanos - dequeue_nanos);
}

void Server::Impl::CompleteRequest(const std::shared_ptr<PendingRequest>& pending) {
  // Parking and the response encode belong to the connection's owner
  // thread. On that thread, finish inline
  // unless another reactor posted a push here for this request: that
  // kPushSend is still in our task queue, and posting kFinish to ourselves
  // queues the ack behind it (push before ack, DispatchFiredPushes).
  if (single_threaded_ || (tl_reactor == pending->conn_reactor &&
                           !pending->push_posted.load(std::memory_order_acquire))) {
    FinishPending(pending);
    return;
  }
  ReactorTask task;
  task.kind = ReactorTask::Kind::kFinish;
  task.pending = pending;
  if (!PostTask(pending->conn_reactor, std::move(task))) {
    // Owner already gone (hard stop): nobody will reply; release the count so
    // a concurrent drain/attach does not wait on it.
    if (pending->counted) {
      pending->counted = false;
      pending_count_.fetch_sub(1, std::memory_order_seq_cst);
    }
  }
}

// ---------------------------------------------------------------------------
// Prefetch push
// ---------------------------------------------------------------------------

bool Server::Impl::DispatchFiredPushes(Reactor& r) {
  ShardPrefetchScheduler* sched = r.prefetch.get();
  if (!sched->has_fired()) {
    return false;
  }
  bool posted = false;
  std::vector<FiredPush> fired;
  sched->TakeFired(&fired);
  for (FiredPush& push : fired) {
    // One encode per fired window; per-subscriber payload copies only when
    // there is more than one subscriber (rare — one worker per store).
    ResponseMessage msg;
    msg.request_id = kPushRequestId;
    msg.results.resize(1);
    OpResult& res = msg.results[0];
    res.type = OpType::kPushChunk;
    res.status = Status::Ok();
    res.store_id = push.store_id;
    res.window = push.window;
    res.push_seq = push.push_seq;
    res.done = true;
    res.chunk = std::move(push.chunk);
    std::string payload;
    EncodeResponse(msg, &payload);
    char header[kFrameHeaderBytes];
    EncodeFrameHeader(Slice(payload), header);
    for (size_t k = 0; k < push.conn_ids.size(); ++k) {
      const uint64_t conn_id = push.conn_ids[k];
      int target = -1;
      {
        MutexLock lock(&registry_mu_);
        auto it = conn_registry_.find(conn_id);
        if (it == conn_registry_.end()) {
          continue;  // subscriber raced a close; the unsub task is in flight
        }
        target = it->second.reactor;
      }
      std::string body = k + 1 == push.conn_ids.size() ? std::move(payload) : payload;
      if (single_threaded_ || target == tl_reactor) {
        SendPushLocal(*reactors_[static_cast<size_t>(target)], conn_id,
                      std::string(header, kFrameHeaderBytes), std::move(body));
        continue;
      }
      ReactorTask task;
      task.kind = ReactorTask::Kind::kPushSend;
      task.conn_id = conn_id;
      task.frame_header.assign(header, kFrameHeaderBytes);
      task.frame_payload = std::move(body);
      // Best-effort: a reactor refusing tasks is stopping, and its
      // connections are going away with it.
      posted |= PostTask(target, std::move(task));
    }
  }
  return posted;
}

void Server::Impl::SendPushLocal(Reactor& r, uint64_t conn_id, std::string header,
                                 std::string payload) {
  auto it = r.conns.find(conn_id);
  if (it == r.conns.end()) {
    return;  // closed between fire and delivery; client degrades to a miss
  }
  Connection* conn = it->second.conn.get();
  const size_t frame_bytes = header.size() + payload.size();
  if (conn->outbox_bytes() + frame_bytes > options_.max_outbox_bytes) {
    // Never let optimistic pushes wedge a connection past its backpressure
    // budget: shed the push, the client's count check turns it into a miss.
    r.metrics.pushes_dropped->Add(1);
    return;
  }
  r.metrics.bytes_out->Add(static_cast<int64_t>(frame_bytes));
  r.metrics.pushes_sent->Add(1);
  conn->QueueFrameParts(std::move(header), std::move(payload));
  if (!conn->FlushWrites().ok()) {
    CloseConnLocal(r, conn_id);
    return;
  }
  if (!single_threaded_) {
    UpdateConnEvents(r, it->second);
  }
}

// ---------------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------------

void Server::Impl::FinishPending(const std::shared_ptr<PendingRequest>& pending) {
  const int64_t finish_nanos = MonotonicNanos();
  const double total_ms =
      static_cast<double>(finish_nanos - pending->start_nanos) / 1e6;
  m_request_latency_ms_->Record(total_ms);
  obs::TraceCompleteSpan("server_request", "server", pending->start_nanos, finish_nanos,
                         "trace_id", static_cast<int64_t>(pending->trace_id), "ops",
                         static_cast<int64_t>(pending->ops.size()));

  if (pending->counted) {
    pending->counted = false;
    pending_count_.fetch_sub(1, std::memory_order_seq_cst);
  }

  if (options_.slow_request_threshold_ms > 0 && options_.slow_log_size > 0 &&
      total_ms >= options_.slow_request_threshold_ms) {
    SlowRequest slow;
    slow.request_id = pending->request_id;
    slow.conn_id = pending->conn_id;
    slow.trace_id = pending->trace_id;
    slow.num_ops = pending->ops.size();
    slow.total_ms = total_ms;
    slow.queue_wait_ms =
        static_cast<double>(pending->queue_wait_nanos.load(std::memory_order_relaxed)) / 1e6;
    slow.exec_ms =
        static_cast<double>(pending->exec_nanos.load(std::memory_order_relaxed)) / 1e6;
    slow.ts_ms = finish_nanos / 1'000'000;
    for (const OpRequest& op : pending->ops) {
      if (op.type == OpType::kDropWindow) {
        // A drop consumes a window the client already holds from a push; a
        // batch that also re-read remotely still counts as the miss.
        if (slow.read_path[0] == '\0') slow.read_path = "cache-hit";
      } else if (op.type == OpType::kGetWindowChunk) {
        slow.read_path = "remote-miss";
      }
    }
    MutexLock lock(&stats_mu_);
    if (slow_log_.size() < options_.slow_log_size) {
      slow_log_.push_back(slow);
    } else {
      // Full: keep the N slowest by displacing the current fastest entry.
      auto fastest = std::min_element(
          slow_log_.begin(), slow_log_.end(),
          [](const SlowRequest& a, const SlowRequest& b) { return a.total_ms < b.total_ms; });
      if (fastest->total_ms < slow.total_ms) *fastest = slow;
    }
  }

  // Synchronous replication: a response whose ops were forwarded parks until
  // the standby acks the carrying sequence, so an acknowledged write is never
  // lost by failing over. A drain releases parked responses instead — the
  // drain checkpoint makes them durable locally.
  if (pending->repl_seq != 0 && !draining_.load(std::memory_order_relaxed)) {
    MutexLock lock(&repl_mu_);
    if (replica_conn_id_ != 0 && pending->repl_seq > repl_acked_seq_) {
      if (parked_.empty()) {
        // The ack-timeout clock starts when there is something to wait for.
        repl_last_progress_nanos_ = MonotonicNanos();
      }
      parked_[pending->repl_seq] = pending;
      return;
    }
  }
  SendResponse(pending);
}

void Server::Impl::SendResponse(const std::shared_ptr<PendingRequest>& pending) {
  Reactor& r = *reactors_[static_cast<size_t>(pending->conn_reactor)];
  auto it = r.conns.find(pending->conn_id);
  if (it == r.conns.end()) {
    return;  // client went away; drop the response
  }
  ResponseMessage response;
  response.request_id = pending->request_id;
  response.results = std::move(pending->results);
  std::string payload;
  EncodeResponse(response, &payload);
  // Zero-copy framing: the fixed header and the payload are queued as two
  // buffers and stitched together by sendmsg(); the payload string is never
  // copied into a combined frame.
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(Slice(payload), header);
  r.metrics.bytes_out->Add(static_cast<int64_t>(kFrameHeaderBytes + payload.size()));
  Connection* conn = it->second.conn.get();
  conn->QueueFrameParts(std::string(header, kFrameHeaderBytes), std::move(payload));
  // Opportunistic flush; anything the socket refuses stays queued for the
  // event loop (EPOLLOUT) to deliver.
  if (!conn->FlushWrites().ok()) {
    CloseConnLocal(r, pending->conn_id);
    return;
  }
  if (!single_threaded_) {
    UpdateConnEvents(r, it->second);
  }
}

void Server::Impl::DeliverResponse(const std::shared_ptr<PendingRequest>& pending) {
  if (single_threaded_ || tl_reactor == pending->conn_reactor) {
    SendResponse(pending);
    return;
  }
  ReactorTask task;
  task.kind = ReactorTask::Kind::kSendResponse;
  task.pending = pending;
  if (!PostTask(pending->conn_reactor, std::move(task))) {
    // Owner gone; the connection is gone with it.
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

// kStats is one walk over metrics_. An instrument named <block>.<field> is
// summed over its labels into "<block>":{"<field>":...}; the shard block's
// instruments (labeled worker=shard) render per shard into "shards". A
// histogram renders as {count,p50,p95,p99,max}; in the shard block, as an
// array with one such object per operator label. What is not an instrument
// is written by hand: config, cluster role and epoch, replication sequence
// numbers, queue depths, connections, trace, the slow log and the windowed
// rates.
std::string Server::Impl::BuildStatsJson() {
  const int64_t now = MonotonicNanos();
  const int num_shards = options_.num_shards;
  const size_t n = static_cast<size_t>(num_shards);

  // Counters and gauges. A shard reports ops and errors before its first op.
  std::map<std::string, std::map<std::string, int64_t>> sums;
  std::vector<std::map<std::string, int64_t>> shard_sums(n, {{"ops", 0}, {"errors", 0}});
  for (const obs::MetricSample& m : metrics_.Snapshot()) {
    const size_t dot = m.name.find('.');
    const std::string block = m.name.substr(0, dot);
    const std::string field = m.name.substr(dot + 1);
    if (block != "shard") {
      sums[block][field] += m.value;
    } else if (m.labels.worker >= 0 && m.labels.worker < num_shards) {
      shard_sums[static_cast<size_t>(m.labels.worker)][field] += m.value;
    }
  }

  double window_s = 0;
  double req_per_sec = 0;
  std::vector<int64_t> shard_ops(n);
  std::vector<double> shard_ops_per_sec(n, 0);
  for (size_t s = 0; s < n; ++s) shard_ops[s] = shard_sums[s]["ops"];
  const int64_t requests = sums["server"]["requests"];
  std::vector<SlowRequest> slow;
  {
    MutexLock lock(&stats_mu_);
    window_s = static_cast<double>(now - stats_prev_nanos_) / 1e9;
    if (window_s > 0) {
      req_per_sec = static_cast<double>(requests - stats_prev_requests_) / window_s;
      for (size_t s = 0; s < n; ++s) {
        shard_ops_per_sec[s] =
            static_cast<double>(shard_ops[s] - stats_prev_shard_ops_[s]) / window_s;
      }
    }
    slow = slow_log_;
    stats_prev_nanos_ = now;
    stats_prev_requests_ = requests;
    stats_prev_shard_ops_ = shard_ops;
  }

  // Block members: the hand-written ones first, then the instruments.
  std::map<std::string, std::string> blocks;
  blocks["server"] = Format(
      "\"port\":%d,\"num_shards\":%d,\"req_per_sec\":%.1f,\"pending_requests\":%llu",
      port_, num_shards, req_per_sec,
      static_cast<unsigned long long>(pending_count_.load(std::memory_order_relaxed)));
  const int64_t role = cluster_role_.load(std::memory_order_acquire);
  blocks["cluster"] = Format(
      "\"role\":\"%s\",\"epoch\":%llu,\"lease_ms\":%d,\"priority\":%d",
      role == kRolePrimary ? "primary" : role == kRoleStandby ? "standby" : "fenced",
      static_cast<unsigned long long>(cluster_epoch_.load(std::memory_order_acquire)),
      options_.lease_ms, options_.promotion_priority);
  {
    MutexLock lock(&repl_mu_);
    const bool subscribed = replica_conn_id_ != 0;
    const unsigned long long lag =
        subscribed && repl_next_seq_ - 1 > repl_acked_seq_
            ? static_cast<unsigned long long>(repl_next_seq_ - 1 - repl_acked_seq_)
            : 0ull;
    const double heartbeat_age_ms =
        subscribed && repl_last_heartbeat_nanos_ > 0
            ? static_cast<double>(now - repl_last_heartbeat_nanos_) / 1e6
            : -1.0;
    blocks["replication"] = Format(
        "\"subscribed\":%s,\"next_seq\":%llu,\"acked_seq\":%llu,\"lag\":%llu,"
        "\"parked\":%llu,\"heartbeat_age_ms\":%.1f",
        subscribed ? "true" : "false", static_cast<unsigned long long>(repl_next_seq_),
        static_cast<unsigned long long>(repl_acked_seq_), lag,
        static_cast<unsigned long long>(parked_.size()), heartbeat_age_ms);
  }
  blocks["prefetch"] = options_.enable_prefetch_push ? "\"enabled\":true" : "\"enabled\":false";
  for (const auto& [block, fields] : sums) {
    for (const auto& [field, value] : fields) {
      AppendMember(&blocks[block], field, std::to_string(value));
    }
  }
  std::vector<std::map<std::string, std::string>> shard_hists(n, {{"op_latency_ms", ""}});
  for (const obs::HistogramSample& h : metrics_.HistogramSnapshots()) {
    const size_t dot = h.name.find('.');
    const std::string block = h.name.substr(0, dot);
    const std::string summary = Format(
        "\"count\":%llu,\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f,\"max\":%.3f",
        static_cast<unsigned long long>(h.count), h.p50, h.p95, h.p99, h.max);
    if (block != "shard") {
      AppendMember(&blocks[block], h.name.substr(dot + 1), "{" + summary + "}");
    } else if (h.labels.worker >= 0 && h.labels.worker < num_shards) {
      const size_t shard = static_cast<size_t>(h.labels.worker);
      std::string& items = shard_hists[shard][h.name.substr(dot + 1)];
      items += items.empty() ? "{\"op\":\"" : ",{\"op\":\"";
      obs::AppendJsonEscaped(&items, h.labels.op);
      items += "\"," + summary + "}";
    }
  }

  std::string j = Format("{\"ts_ms\":%lld,\"window_s\":%.3f",
                         static_cast<long long>(now / 1'000'000), window_s);
  for (const auto& [block, members] : blocks) {
    AppendMember(&j, block, "{" + members + "}");
  }
  std::string shards;
  for (size_t s = 0; s < n; ++s) {
    std::string members = Format(
        "\"shard\":%zu,\"queue_depth\":%llu,\"ops_per_sec\":%.1f", s,
        static_cast<unsigned long long>(reactors_[s]->depth.load(std::memory_order_relaxed)),
        shard_ops_per_sec[s]);
    for (const auto& [field, value] : shard_sums[s]) {
      AppendMember(&members, field, std::to_string(value));
    }
    for (const auto& [field, items] : shard_hists[s]) {
      AppendMember(&members, field, "[" + items + "]");
    }
    AppendItem(&shards, "{" + members + "}");
  }
  AppendMember(&j, "shards", "[" + shards + "]");

  j += ",\"connections\":[";
  {
    // The registry (not the per-reactor maps) so any reactor can render the
    // whole directory; outbox_bytes() is the connection's one atomic field.
    const uint64_t replica_id = replica_conn_id_atomic_.load(std::memory_order_relaxed);
    MutexLock lock(&registry_mu_);
    bool first_conn = true;
    for (const auto& kv : conn_registry_) {
      const Connection* conn = kv.second.conn.get();
      j += Format("%s{\"id\":%llu,\"outbox_bytes\":%llu,\"is_replica\":%s}",
                  first_conn ? "" : ",", static_cast<unsigned long long>(conn->id()),
                  static_cast<unsigned long long>(conn->outbox_bytes()),
                  conn->id() == replica_id ? "true" : "false");
      first_conn = false;
    }
  }
  j += "],";

  j += Format("\"trace\":{\"enabled\":%s,\"events\":%llu,\"dropped\":%llu},",
              obs::Tracing::enabled() ? "true" : "false",
              static_cast<unsigned long long>(obs::Tracing::EventCount()),
              static_cast<unsigned long long>(obs::Tracing::DroppedCount()));

  // Slowest first, so the head of the array is always the worst offender.
  std::sort(slow.begin(), slow.end(), [](const SlowRequest& a, const SlowRequest& b) {
    return a.total_ms > b.total_ms;
  });
  j += Format("\"slow_threshold_ms\":%.3f,\"slow_requests\":[",
              options_.slow_request_threshold_ms);
  for (size_t i = 0; i < slow.size(); ++i) {
    const SlowRequest& s = slow[i];
    j += Format("%s{\"request_id\":%llu,\"conn_id\":%llu,\"trace_id\":%llu,\"ops\":%llu,"
                "\"total_ms\":%.3f,\"queue_wait_ms\":%.3f,\"exec_ms\":%.3f,\"ts_ms\":%lld,"
                "\"read_path\":\"%s\"}",
                i == 0 ? "" : ",", static_cast<unsigned long long>(s.request_id),
                static_cast<unsigned long long>(s.conn_id),
                static_cast<unsigned long long>(s.trace_id),
                static_cast<unsigned long long>(s.num_ops), s.total_ms, s.queue_wait_ms,
                s.exec_ms, static_cast<long long>(s.ts_ms), s.read_path);
  }
  j += "]}";
  return j;
}

// ---------------------------------------------------------------------------
// Replication, primary side
// ---------------------------------------------------------------------------

void Server::Impl::HandleReplicaSubscribe(Reactor& r, Connection* conn,
                                          uint64_t standby_epoch) {
  const uint64_t conn_id = conn->id();
  if (standby_epoch > cluster_epoch_.load(std::memory_order_acquire)) {
    // A standby that has lived through a later epoch is subscribing to us:
    // we are the stale side of a partition. Neutralize ourselves and refuse.
    FenceInternal("subscriber carried epoch " + std::to_string(standby_epoch));
    CloseConnLocal(r, conn_id);
    return;
  }
  ReplicaDropActions drop;
  bool reject = false;
  {
    MutexLock lock(&repl_mu_);
    if (repl_attach_.load(std::memory_order_relaxed)) {
      // An attach is already quiescing the server (necessarily for another
      // connection: this one's frames were paused). One standby at a time.
      // The close happens after the lock drops: CloseConnLocal can re-enter
      // DropReplica (which takes repl_mu_) when the id matches the replica.
      reject = true;
    } else if (replica_conn_id_ != 0 && replica_conn_id_ != conn_id) {
      drop = DropReplicaLocked("superseded by a new subscriber");
    }
    if (!reject) {
      // Gate up: HandleRequest's seqlock now routes new requests to the
      // deferred queues, and ProcessBufferedFrames stops decoding client
      // frames.
      repl_attach_.store(true, std::memory_order_seq_cst);
    }
  }
  if (reject) {
    FLOWKV_LOG(kWarn) << "rejecting replica subscribe during attach "
                      << LogKv("conn", conn_id);
    CloseConnLocal(r, conn_id);
    return;
  }
  ApplyReplicaDrop(std::move(drop));

  // Quiesce: wait out every in-flight request so the snapshot captures a
  // point-in-time state no concurrent mutation can straddle. This reactor
  // keeps pumping its own tasks (other reactors may be handing it shard
  // completions); the rest of the pool runs normally and drains on its own.
  while (pending_count_.load(std::memory_order_seq_cst) != 0) {
    if (stop_requested_.load(std::memory_order_relaxed) ||
        loop_exit_.load(std::memory_order_relaxed)) {
      repl_attach_.store(false, std::memory_order_seq_cst);
      CloseConnLocal(r, conn_id);
      return;
    }
    DrainTasks(r);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  if (r.conns.find(conn_id) == r.conns.end()) {
    // The subscriber hung up while we quiesced.
    repl_attach_.store(false, std::memory_order_seq_cst);
    ResumeAfterAttach(r);
    return;
  }

  {
    MutexLock lock(&repl_mu_);
    replica_conn_id_ = conn_id;
    replica_reactor_ = r.index;
    repl_last_progress_nanos_ = MonotonicNanos();
    repl_last_heartbeat_nanos_ = 0;
    replica_conn_id_atomic_.store(conn_id, std::memory_order_release);
  }
  FLOWKV_LOG(kInfo) << "replica subscribed " << LogKv("conn", conn_id)
                    << LogKv("standby_epoch", standby_epoch);

  const Status s = ShipSnapshot(r);
  if (!s.ok()) {
    FLOWKV_LOG(kWarn) << "snapshot ship failed " << LogKv("status", s.ToString());
    DropReplica("snapshot ship failed: " + s.ToString());
  }

  // Gate down, then replay: deferred requests first (arrival order), then
  // whatever bytes sat buffered on paused connections.
  repl_attach_.store(false, std::memory_order_seq_cst);
  for (int i = 0; i < options_.num_shards; ++i) {
    if (i == r.index) continue;
    ReactorTask task;
    task.kind = ReactorTask::Kind::kAttachResume;
    PostTask(i, std::move(task));
  }
  ResumeAfterAttach(r);
}

void Server::Impl::ResumeAfterAttach(Reactor& r) {
  auto deferred = std::move(r.attach_deferred);
  r.attach_deferred.clear();
  for (auto& entry : deferred) {
    auto it = r.conns.find(entry.first);
    if (it == r.conns.end()) {
      continue;  // the client gave up while the attach ran
    }
    HandleRequest(r, it->second.conn.get(), std::move(entry.second));
  }
  // Frames that arrived while reads were live but decode was paused are
  // still in the connection buffers; ids snapshot first because dispatch can
  // close connections under us.
  std::vector<uint64_t> ids;
  ids.reserve(r.conns.size());
  for (const auto& kv : r.conns) {
    ids.push_back(kv.first);
  }
  for (const uint64_t id : ids) {
    if (!ProcessBufferedFrames(r, id)) {
      continue;
    }
    auto it = r.conns.find(id);
    if (it != r.conns.end()) {
      UpdateConnEvents(r, it->second);  // re-arm EPOLLIN dropped by the gate
    }
  }
}

Status Server::Impl::ShipSnapshot(Reactor& r) {
  const std::string staged = JoinPath(options_.data_dir, kReplSnapshotDirName);
  // Best effort; CreateDirs below reports real failures.
  RemoveDirRecursively(staged).IgnoreError();
  FLOWKV_RETURN_IF_ERROR(CreateDirs(staged));
  FLOWKV_RETURN_IF_ERROR(CheckpointStoresTo(staged));

  std::vector<std::string> files;
  FLOWKV_RETURN_IF_ERROR(ListFilesRecursively(staged, &files));
  size_t shipped_bytes = 0;
  for (const std::string& rel : files) {
    std::string data;
    FLOWKV_RETURN_IF_ERROR(ReadFileToString(JoinPath(staged, rel), &data));
    size_t offset = 0;
    do {  // do-while so empty files still ship one (empty) chunk
      if (stop_requested_.load(std::memory_order_relaxed)) {
        return Status::FailedPrecondition("server stopping");
      }
      const size_t n = std::min(kReplChunkBytes, data.size() - offset);
      RequestMessage m;
      OpRequest op;
      op.type = OpType::kSnapshotFile;
      op.path = rel;
      op.timestamp = static_cast<int64_t>(offset);
      op.value = data.substr(offset, n);
      m.ops.push_back(std::move(op));
      {
        MutexLock lock(&repl_mu_);
        if (replica_conn_id_ == 0) {
          return Status::ConnectionReset("replica went away mid-snapshot");
        }
        m.request_id = repl_next_seq_++;
        if (!SendReplicaFrame(r, &m)) {
          return Status::ConnectionReset("replica went away mid-snapshot");
        }
      }
      offset += n;
      shipped_bytes += n;
    } while (offset < data.size());
  }
  RequestMessage done;
  OpRequest done_op;
  done_op.type = OpType::kSnapshotDone;
  done.ops.push_back(std::move(done_op));
  {
    MutexLock lock(&repl_mu_);
    if (replica_conn_id_ == 0) {
      return Status::ConnectionReset("replica went away mid-snapshot");
    }
    done.request_id = repl_next_seq_++;
    if (!SendReplicaFrame(r, &done)) {
      return Status::ConnectionReset("replica went away mid-snapshot");
    }
  }
  FLOWKV_LOG(kInfo) << "replication snapshot shipped " << LogKv("files", files.size())
                    << LogKv("bytes", shipped_bytes);
  return Status::Ok();
}

bool Server::Impl::SendReplicaFrame(Reactor& r, RequestMessage* message) {
  (void)r;
  // Every frame carries the primary's epoch: the standby adopts it from the
  // first snapshot chunk on, so an election there never reuses an epoch
  // this primary already held.
  message->epoch = cluster_epoch_.load(std::memory_order_acquire);
  std::string payload;
  EncodeRequest(*message, &payload);
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(Slice(payload), header);

  if (tl_reactor == replica_reactor_ || single_threaded_) {
    Reactor& rr = *reactors_[static_cast<size_t>(replica_reactor_)];
    auto it = rr.conns.find(replica_conn_id_);
    if (it == rr.conns.end()) {
      return false;
    }
    rr.metrics.bytes_out->Add(static_cast<int64_t>(kFrameHeaderBytes + payload.size()));
    rr.metrics.repl_forwarded->Add(1);
    Connection* conn = it->second.conn.get();
    conn->QueueFrameParts(std::string(header, kFrameHeaderBytes), std::move(payload));
    return conn->FlushWrites().ok();
  }
  // Cross-reactor forward: hand the encoded frame to the replica's owner.
  // Queue order on that reactor preserves sequence order (we hold repl_mu_).
  ReactorTask task;
  task.kind = ReactorTask::Kind::kReplicaSend;
  task.conn_id = replica_conn_id_;
  task.frame_header.assign(header, kFrameHeaderBytes);
  task.frame_payload = std::move(payload);
  return PostTask(replica_reactor_, std::move(task));
}

void Server::Impl::HandleReplicaAck(Reactor& r, uint64_t seq) {
  (void)r;
  std::vector<std::shared_ptr<PendingRequest>> released;
  {
    MutexLock lock(&repl_mu_);
    if (seq > repl_acked_seq_) {
      repl_acked_seq_ = seq;
    }
    repl_last_progress_nanos_ = MonotonicNanos();
    while (!parked_.empty() && parked_.begin()->first <= repl_acked_seq_) {
      released.push_back(std::move(parked_.begin()->second));
      parked_.erase(parked_.begin());
    }
  }
  for (const auto& pending : released) {
    DeliverResponse(pending);
  }
}

void Server::Impl::HandleReplicaHeartbeat(Reactor& r) {
  RequestMessage beat;
  beat.request_id = 0;  // heartbeat replies never consume a replication seq
  OpRequest op;
  op.type = OpType::kPing;
  beat.ops.push_back(std::move(op));
  MutexLock lock(&repl_mu_);
  if (replica_conn_id_ == 0) {
    return;
  }
  repl_last_heartbeat_nanos_ = MonotonicNanos();
  if (!SendReplicaFrame(r, &beat)) {
    // The regular drop paths (ack timeout, close) handle the dead conn.
    FLOWKV_LOG(kWarn) << "heartbeat reply send failed";
  }
}

Server::Impl::ReplicaDropActions Server::Impl::DropReplicaLocked(const std::string& reason) {
  ReplicaDropActions actions;
  if (replica_conn_id_ == 0) {
    return actions;
  }
  actions.close_conn_id = replica_conn_id_;
  actions.close_reactor = replica_reactor_;
  replica_conn_id_ = 0;
  replica_reactor_ = -1;
  replica_conn_id_atomic_.store(0, std::memory_order_release);
  m_repl_drops_->Add(1);
  FLOWKV_LOG(kWarn) << "dropping replica " << LogKv("conn", actions.close_conn_id)
                    << LogKv("reason", reason);
  // Nothing will ack the outstanding sequences now; release their responses.
  // The ops did execute locally, so delivery is at-least-once across a later
  // re-subscribe (docs/NETWORK.md).
  for (auto& entry : parked_) {
    actions.released.push_back(std::move(entry.second));
  }
  parked_.clear();
  actions.record = "replica dropped: " + reason;
  return actions;
}

void Server::Impl::ApplyReplicaDrop(ReplicaDropActions actions) {
  if (actions.record.empty()) {
    return;
  }
  for (const auto& pending : actions.released) {
    DeliverResponse(pending);
  }
  if (actions.close_conn_id != 0 && actions.close_reactor >= 0) {
    if (single_threaded_ || tl_reactor == actions.close_reactor) {
      // replica_conn_id_ is already zeroed, so this close cannot recurse
      // back into DropReplica.
      CloseConnLocal(*reactors_[static_cast<size_t>(actions.close_reactor)],
                     actions.close_conn_id);
    } else {
      ReactorTask task;
      task.kind = ReactorTask::Kind::kCloseConn;
      task.conn_id = actions.close_conn_id;
      if (!PostTask(actions.close_reactor, std::move(task))) {
        MutexLock lock(&registry_mu_);
        conn_registry_.erase(actions.close_conn_id);
        m_open_conns_->Set(static_cast<int64_t>(conn_registry_.size()));
      }
    }
  }
  obs::TriggerFlightRecord(actions.record);
}

void Server::Impl::DropReplica(const std::string& reason) {
  ReplicaDropActions actions;
  {
    MutexLock lock(&repl_mu_);
    actions = DropReplicaLocked(reason);
  }
  ApplyReplicaDrop(std::move(actions));
}

void Server::Impl::CheckReplicaAckTimeout() {
  ReplicaDropActions actions;
  {
    MutexLock lock(&repl_mu_);
    if (replica_conn_id_ == 0 || parked_.empty()) {
      return;  // the timeout clock only runs while something waits for an ack
    }
    const int64_t now = MonotonicNanos();
    if (now - repl_last_progress_nanos_ <
        static_cast<int64_t>(options_.repl_ack_timeout_ms) * 1'000'000) {
      return;
    }
    actions = DropReplicaLocked("ack timeout");
  }
  ApplyReplicaDrop(std::move(actions));
}

void Server::Impl::ReleaseParkedForDrain() {
  std::vector<std::shared_ptr<PendingRequest>> released;
  {
    MutexLock lock(&repl_mu_);
    for (auto& entry : parked_) {
      released.push_back(std::move(entry.second));
    }
    parked_.clear();
  }
  for (const auto& pending : released) {
    DeliverResponse(pending);
  }
}

// ---------------------------------------------------------------------------
// Cluster role and epochs
// ---------------------------------------------------------------------------

Status Server::Impl::LoadClusterEpoch() {
  const std::string path = JoinPath(options_.data_dir, kClusterEpochFileName);
  if (!FileExists(path)) {
    return Status::Ok();  // fresh data dir: cluster_epoch_ keeps its default 1
  }
  std::string text;
  FLOWKV_RETURN_IF_ERROR(ReadFileToString(path, &text));
  const uint64_t epoch = std::strtoull(text.c_str(), nullptr, 10);
  if (epoch == 0) {
    return Status::Corruption("unparsable " + path + ": \"" + text + "\"");
  }
  cluster_epoch_.store(epoch, std::memory_order_release);
  FLOWKV_LOG(kInfo) << "restored cluster epoch " << LogKv("epoch", epoch);
  return Status::Ok();
}

Status Server::Impl::PersistClusterEpoch(uint64_t epoch) {
  return WriteFileDurably(JoinPath(options_.data_dir, kClusterEpochFileName),
                          std::to_string(epoch));
}

ClusterView Server::Impl::CurrentClusterView() const {
  ClusterView view;
  view.epoch = cluster_epoch_.load(std::memory_order_acquire);
  view.role = cluster_role_.load(std::memory_order_acquire);
  view.lease_ms = options_.lease_ms;
  view.priority = options_.promotion_priority;
  view.prefetch_push = options_.enable_prefetch_push;
  return view;
}

void Server::Impl::FenceInternal(const std::string& reason) {
  // Lock-free CAS transition: the caller may be a reactor mid-request, and a
  // mutex here could deadlock against a promotion quiescing that request.
  int64_t cur = cluster_role_.load(std::memory_order_acquire);
  while (cur != kRoleFenced) {
    if (cluster_role_.compare_exchange_weak(cur, kRoleFenced,
                                            std::memory_order_acq_rel)) {
      FLOWKV_LOG(kWarn) << "server fenced "
                        << LogKv("epoch", cluster_epoch_.load(std::memory_order_acquire))
                        << LogKv("reason", reason);
      obs::TriggerFlightRecord("fenced: " + reason);
      return;
    }
  }
}

Status Server::Impl::PromoteInternal(uint64_t new_epoch, Reactor* r, size_t floor) {
  MutexLock cluster_lock(&cluster_mu_);
  if (cluster_role_.load(std::memory_order_acquire) == kRoleFenced) {
    return Status::FailedPrecondition("server is fenced");
  }
  const uint64_t cur_epoch = cluster_epoch_.load(std::memory_order_acquire);
  if (new_epoch <= cur_epoch) {
    return Status::InvalidArgument("promotion epoch " + std::to_string(new_epoch) +
                                   " must exceed current " + std::to_string(cur_epoch));
  }

  // Win the attach gate (shared with the replica snapshot attach) so the
  // promotion sees a quiesced server and flips roles at a request boundary.
  for (;;) {
    bool won = false;
    {
      MutexLock lock(&repl_mu_);
      if (!repl_attach_.load(std::memory_order_relaxed)) {
        repl_attach_.store(true, std::memory_order_seq_cst);
        won = true;
      }
    }
    if (won) break;
    if (r != nullptr) {
      // A reactor caller holds pending_count_ units the competing attach is
      // waiting on; blocking here would deadlock the pair. kOverloaded is
      // the blind-retry-safe refusal.
      return Status::Overloaded("promotion raced a snapshot attach; retry");
    }
    if (stop_requested_.load(std::memory_order_relaxed)) {
      return Status::FailedPrecondition("server stopping");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  // Quiesce down to the caller's own pending units (a reactor caller keeps
  // pumping its tasks so cross-reactor completions it owes still land).
  while (pending_count_.load(std::memory_order_seq_cst) > floor) {
    if (stop_requested_.load(std::memory_order_relaxed) ||
        loop_exit_.load(std::memory_order_relaxed)) {
      ReleaseAttachGateAndResume(r);
      return Status::FailedPrecondition("server stopping");
    }
    if (r != nullptr) {
      DrainTasks(*r);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  if (cluster_role_.load(std::memory_order_acquire) == kRoleFenced) {
    // Fenced while we quiesced (a request carrying a higher epoch slipped in
    // ahead of the gate). The fence wins.
    ReleaseAttachGateAndResume(r);
    return Status::FailedPrecondition("server fenced during promotion");
  }

  // Commit point: the epoch is durable BEFORE the role flips, so a crash
  // anywhere in this sequence restarts with epoch >= new_epoch and never
  // re-claims an epoch some peer has already superseded.
  const Status persist = PersistClusterEpoch(new_epoch);
  if (!persist.ok()) {
    ReleaseAttachGateAndResume(r);
    return persist;
  }
  cluster_epoch_.store(new_epoch, std::memory_order_release);
  cluster_role_.store(kRolePrimary, std::memory_order_release);
  FLOWKV_LOG(kInfo) << "promoted to primary " << LogKv("epoch", new_epoch);
  obs::TriggerFlightRecord("promoted to primary, epoch " + std::to_string(new_epoch));

  ReleaseAttachGateAndResume(r);
  return Status::Ok();
}

void Server::Impl::ReleaseAttachGateAndResume(Reactor* r) {
  repl_attach_.store(false, std::memory_order_seq_cst);
  for (int i = 0; i < options_.num_shards; ++i) {
    if (r != nullptr && i == r->index) continue;
    ReactorTask task;
    task.kind = ReactorTask::Kind::kAttachResume;
    PostTask(i, std::move(task));
  }
  if (r != nullptr) {
    ResumeAfterAttach(*r);
  }
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

Status Server::Impl::DrainCheckpoint() {
  FLOWKV_RETURN_IF_ERROR(CreateDirs(options_.checkpoint_dir));
  const std::string current_path = JoinPath(options_.checkpoint_dir, kCurrentName);

  uint64_t epoch = 0;
  if (FileExists(current_path)) {
    std::string current;
    FLOWKV_RETURN_IF_ERROR(ReadFileToString(current_path, &current));
    if (current.rfind(kEpochPrefix, 0) == 0) {
      epoch = std::strtoull(current.c_str() + sizeof(kEpochPrefix) - 1, nullptr, 10) + 1;
    }
  }
  const std::string epoch_name = kEpochPrefix + std::to_string(epoch);
  const std::string staged = JoinPath(options_.checkpoint_dir, epoch_name);
  FLOWKV_RETURN_IF_ERROR(CreateDirs(staged));

  FLOWKV_RETURN_IF_ERROR(CheckpointStoresTo(staged));
  // Commit point, exactly as Pipeline::Checkpoint: CURRENT flips only after
  // every store's checkpoint and the store manifest are durable.
  FLOWKV_RETURN_IF_ERROR(WriteFileDurably(current_path, epoch_name));
  FLOWKV_LOG(kInfo) << "drain checkpoint committed " << LogKv("epoch", epoch_name);
  return Status::Ok();
}

Status Server::Impl::CheckpointStoresTo(const std::string& staged) {
  std::vector<StoreEntry*> entries;
  {
    MutexLock lock(&stores_mu_);
    for (const auto& store : stores_) {
      entries.push_back(store.get());
    }
  }

  if (single_threaded_) {
    // Post-join epilogue (drain checkpoint): no pool left, run everything
    // here.
    for (StoreEntry* store : entries) {
      FLOWKV_RETURN_IF_ERROR(CheckpointStore(store, staged));
    }
    return WriteFileDurably(JoinPath(staged, kStoresMetaName), SerializeStoresMeta());
  }

  // Live pool (snapshot attach): every store checkpoints on its reactor —
  // here when it is this one, via tasks joined by a barrier otherwise.
  // Single-writer access to the stores is preserved either way.
  auto barrier = std::make_shared<Barrier>();
  barrier->remaining = entries.size();
  for (StoreEntry* store : entries) {
    if (store->shard == tl_reactor) {
      barrier->Done(CheckpointStore(store, staged));
      continue;
    }
    ReactorTask task;
    task.kind = ReactorTask::Kind::kCheckpointStore;
    task.store = store;
    task.checkpoint_dir = staged;
    task.barrier = barrier;
    if (!PostTask(store->shard, std::move(task))) {
      barrier->Done(Status::FailedPrecondition("server stopping"));
    }
  }
  FLOWKV_RETURN_IF_ERROR(barrier->Wait());
  return WriteFileDurably(JoinPath(staged, kStoresMetaName), SerializeStoresMeta());
}

// ---------------------------------------------------------------------------
// Shard execution
// ---------------------------------------------------------------------------

void Server::Impl::ExecuteShardOp(StoreEntry* store, const OpRequest& op, uint64_t conn_id,
                                  OpResult* out) {
  out->type = op.type;

  if (op.type == OpType::kOpenStore || op.type == OpType::kRestoreStore) {
    if (op.type == OpType::kRestoreStore) {
      // Replace the store from the shipped snapshot. The old store (if any)
      // must close before OpenStoreOnShard wipes its directory.
      store->kv.reset();
      out->status = OpenStoreOnShard(store, JoinPath(op.path, StoreCheckpointName(store->id)));
    } else {
      // A retried open only fills a store a previous attempt left null; this
      // reactor owns the store, so the check is race-free.
      out->status = store->kv != nullptr ? Status::Ok() : OpenStoreOnShard(store);
    }
    MutexLock lock(&stores_mu_);
    store->open_state =
        out->status.ok() ? StoreEntry::OpenState::kOpen : StoreEntry::OpenState::kFailed;
    if (out->status.ok()) {
      out->store_id = store->id;
      out->pattern = store->pattern;
    }
    return;
  }

  FlowKvStore* kv = store->kv.get();
  if (kv == nullptr) {
    out->status = Status::FailedPrecondition("store " + store->ns + " not open on shard " +
                                             std::to_string(store->shard));
    return;
  }

  // Per-operator request metrics, labeled (worker=shard, op=operator name).
  StoreEntry::ShardObs& so = store->shard_obs;
  if (so.ops == nullptr) {
    obs::OperatorScope op_scope(store->spec.name);
    so.ops = metrics_.GetCounter("shard.ops");
    so.errors = metrics_.GetCounter("shard.errors");
    so.latency_ms = metrics_.GetHistogram("shard.op_latency_ms");
  }
  const int64_t start = MonotonicNanos();

  ShardPrefetchScheduler* sched = reactors_[static_cast<size_t>(store->shard)]->prefetch.get();
  switch (op.type) {
    case OpType::kAppendAligned:
      out->status = kv->Append(op.key, op.value, op.window);
      if (out->status.ok()) {
        // Shadow-copy for the push scheduler (no-op without subscribers) and
        // advance the store's event-time high-water mark, possibly firing
        // closed windows (drained by DispatchFiredPushes after the batch).
        sched->OnAppend(store->id, op.key, op.value, op.window);
      }
      break;
    case OpType::kGetWindowChunk:
      out->status = kv->GetWindowChunk(op.window, &out->chunk, &out->done);
      // The client went to the read path: any unpushed shadow is waste.
      sched->OnWindowConsumed(store->id, op.window);
      break;
    case OpType::kDropWindow:
      out->status = kv->DropWindow(op.window);
      sched->OnWindowConsumed(store->id, op.window);
      break;
    case OpType::kEttRegister:
      if (kv->pattern() != StorePattern::kAppendAligned) {
        out->status = Status::FailedPrecondition("kEttRegister on a non-AAR store");
        break;
      }
      // Disabled prefetch still answers OK: the register is a hint, and
      // clients only send it when the handshake reports push.
      if (options_.enable_prefetch_push) {
        sched->Register(conn_id, store->id);
      }
      out->status = Status::Ok();
      break;
    case OpType::kAppendUnaligned:
      out->status = kv->Append(op.key, op.value, op.window, op.timestamp);
      break;
    case OpType::kGetUnaligned:
      out->status = kv->Get(op.key, op.window, &out->values);
      break;
    case OpType::kMergeWindows:
      out->status = kv->MergeWindows(op.key, op.sources, op.window);
      break;
    case OpType::kRmwGet:
      out->status = kv->Get(op.key, op.window, &out->accumulator);
      break;
    case OpType::kRmwPut:
      out->status = kv->Put(op.key, op.window, op.value);
      break;
    case OpType::kRmwRemove:
      out->status = kv->Remove(op.key, op.window);
      break;
    case OpType::kCheckpoint:
      out->status = kv->CheckpointTo(op.path);
      break;
    case OpType::kGatherStats: {
      StoreStats stats = kv->GatherStats();
      stats.ForEachCounter([out](const char* name, RelaxedCounter& value) {
        out->stat_fields.emplace_back(name, value.load());
      });
      out->status = Status::Ok();
      break;
    }
    default:
      out->status = Status::Internal("op routed to shard unexpectedly");
      break;
  }

  so.ops->Add(1);
  if (!out->status.ok() && !out->status.IsNotFound()) {
    so.errors->Add(1);
  }
  so.latency_ms->Record(static_cast<double>(MonotonicNanos() - start) / 1e6);
}

// ---------------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------------

Status Server::Start(const ServerOptions& options, std::unique_ptr<Server>* out) {
  auto server = std::unique_ptr<Server>(new Server());
  server->impl_ = std::make_unique<Impl>();
  FLOWKV_RETURN_IF_ERROR(server->impl_->Init(options));
  server->port_ = server->impl_->port();
  *out = std::move(server);
  return Status::Ok();
}

Server::~Server() {
  if (impl_ != nullptr) {
    impl_->HardStop();
  }
}

void Server::RequestDrain() { impl_->RequestDrain(); }

Status Server::AwaitTermination() { return impl_->AwaitTermination(); }

Status Server::DrainAndStop() {
  impl_->RequestDrain();
  return impl_->AwaitTermination();
}

void Server::Stop() { impl_->HardStop(); }

uint64_t Server::cluster_epoch() const { return impl_->cluster_epoch(); }

int64_t Server::cluster_role() const { return impl_->cluster_role(); }

const obs::MetricsRegistry& Server::metrics() const { return impl_->metrics_; }

Status Server::Promote(uint64_t new_epoch) {
  // Off-pool callers only (the ReplicaPuller's election thread, tests, the
  // flowkv_server main); a reactor promotes through kClusterAdmin instead.
  return impl_->PromoteInternal(new_epoch, nullptr, 0);
}

void Server::Fence() { impl_->FenceInternal("Server::Fence"); }

}  // namespace net
}  // namespace flowkv
