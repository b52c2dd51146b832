// Automated failover: lease-based primary election, epoch-fenced writes,
// and split-brain-safe promotion (docs/NETWORK.md "Cluster roles, epochs,
// and failover").
//
// Covered here, on top of the plain replication/failover suite
// (net_failover_test.cc):
//   - the cluster epoch is durable (data_dir/CLUSTER_EPOCH) and only ever
//     increases; fencing and observed epochs are runtime-only;
//   - a standby rejects every mutating client batch with kFencedOff until
//     it is promoted (kClusterAdmin "promote" / Server::Promote), and a
//     "fence" neutralizes it again;
//   - a client that has adopted a newer epoch fences a stale former primary
//     on first contact — the stale server then rejects EVERY write, so two
//     servers never accept writes in the same epoch;
//   - a killed primary is detected by the standby's lease and the standby
//     self-promotes (ReplicaPuller election), clients converge, and a
//     NEXMark query that loses its primary mid-run still matches the
//     embedded reference exactly (zero acked-write loss);
//   - a standby learns its primary's epoch from the replication stream, so
//     its election never reuses an epoch the dead primary held;
//   - a standby killed and restarted mid-run re-subscribes, receives a
//     fresh snapshot, and carries every acked write;
//   - a crash at ANY fsync of the promotion's epoch commit never regresses
//     the epoch or diverges the store on restart (FaultInjectionFs sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/backends/flowkv_backend.h"
#include "src/backends/remote_backend.h"
#include "src/common/env.h"
#include "src/common/fault_injection_fs.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/net/replica.h"
#include "src/net/server.h"
#include "src/nexmark/generator.h"
#include "src/nexmark/queries.h"
#include "src/obs/metrics.h"
#include "src/spe/job_runner.h"

namespace flowkv {
namespace {

using Results = std::vector<std::tuple<int64_t, std::string, std::string>>;

// Election knobs shared by the fixture: a short lease so a dead primary is
// detected quickly, and the highest stagger priority so the (single)
// standby promotes on its first election round.
constexpr int kLeaseMs = 500;
constexpr int kStaggerMs = 50;
constexpr int kPriority = 9;

OperatorStateSpec RmwSpec(const std::string& name) {
  OperatorStateSpec spec;
  spec.name = name;
  spec.window_kind = WindowKind::kTumbling;
  spec.incremental = true;
  spec.window_size_ms = 1000;
  return spec;
}

OperatorStateSpec AarSpec(const std::string& name) {
  OperatorStateSpec spec = RmwSpec(name);
  spec.incremental = false;
  return spec;
}

// A 100 B key and a 300 B value, distinct per `i`: longer than the NEXMark
// fields the other tests send.
std::string LongKey(int i) { return std::string(96, 'k') + std::to_string(1000 + i); }
std::string LongValue(int i) {
  std::string value(300, '\0');
  for (size_t b = 0; b < value.size(); ++b) {
    value[b] = static_cast<char>('a' + (b + static_cast<size_t>(i)) % 26);
  }
  return value;
}

class ResultCollector : public Collector {
 public:
  Status Emit(const Event& event) override {
    results.emplace_back(event.timestamp, event.key, event.value);
    return Status::Ok();
  }
  Results results;
};

struct RunOutcome {
  Status status;
  Results results;
};

// Runs `query`, invoking `hook` once after `hook_at_event` events have been
// processed (0 = never) — the hook kills a primary or bounces the standby.
RunOutcome RunQuery(const std::string& query, StateBackendFactory* factory,
                    const NexmarkConfig& nexmark, const QueryParams& params,
                    int hook_at_event = 0,
                    const std::function<void()>& hook = nullptr) {
  RunOutcome outcome;
  auto collector = std::make_shared<ResultCollector>();
  Pipeline pipeline;
  outcome.status = BuildNexmarkQuery(query, params, &pipeline);
  if (!outcome.status.ok()) {
    return outcome;
  }
  outcome.status = pipeline.Open(factory, 0, collector.get());
  if (!outcome.status.ok()) {
    return outcome;
  }
  NexmarkSource source(nexmark, 0);
  Event event;
  int64_t max_ts = 0;
  int since_watermark = 0;
  int processed = 0;
  while (source.Next(&event)) {
    if (hook_at_event > 0 && ++processed == hook_at_event && hook) {
      hook();
    }
    outcome.status = pipeline.Process(event);
    if (!outcome.status.ok()) {
      return outcome;
    }
    max_ts = event.timestamp;
    if (++since_watermark >= 128) {
      since_watermark = 0;
      outcome.status = pipeline.AdvanceWatermark(max_ts);
      if (!outcome.status.ok()) {
        return outcome;
      }
    }
  }
  outcome.status = pipeline.Finish();
  outcome.results = collector->results;
  std::sort(outcome.results.begin(), outcome.results.end());
  return outcome;
}

bool WaitFor(const std::function<bool()>& pred, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// Epoch durability and role mechanics (single server, no replication).

TEST(ClusterEpochTest, EpochPersistsAcrossRestartAndNeverRegresses) {
  const std::string dir = MakeTempDir("cluster_epoch");
  net::ServerOptions opts;
  opts.num_shards = 2;
  opts.data_dir = JoinPath(dir, "data");
  opts.checkpoint_dir = JoinPath(dir, "ckpt");

  {
    std::unique_ptr<net::Server> server;
    ASSERT_TRUE(net::Server::Start(opts, &server).ok());
    EXPECT_EQ(server->cluster_epoch(), 1u);
    EXPECT_EQ(server->cluster_role(), net::kRolePrimary);
    ASSERT_TRUE(server->Promote(5).ok());
    EXPECT_EQ(server->cluster_epoch(), 5u);
    EXPECT_FALSE(server->Promote(5).ok()) << "same-epoch promote must be rejected";
    EXPECT_FALSE(server->Promote(3).ok()) << "epoch regression must be rejected";
    EXPECT_EQ(server->cluster_epoch(), 5u);
    server->Stop();
  }

  // The promoted epoch survives a restart (data_dir/CLUSTER_EPOCH).
  {
    std::unique_ptr<net::Server> server;
    ASSERT_TRUE(net::Server::Start(opts, &server).ok());
    EXPECT_EQ(server->cluster_epoch(), 5u);
    EXPECT_EQ(server->cluster_role(), net::kRolePrimary);
    server->Stop();
  }

  // The role is NOT persisted: it comes from start_as_standby on every
  // start, and fencing is runtime-only (an operator decision survives only
  // as long as the process).
  opts.start_as_standby = true;
  {
    std::unique_ptr<net::Server> server;
    ASSERT_TRUE(net::Server::Start(opts, &server).ok());
    EXPECT_EQ(server->cluster_epoch(), 5u);
    EXPECT_EQ(server->cluster_role(), net::kRoleStandby);
    server->Fence();
    EXPECT_EQ(server->cluster_role(), net::kRoleFenced);
    EXPECT_FALSE(server->Promote(6).ok()) << "a fenced server must not promote";
    server->Stop();
  }
  {
    std::unique_ptr<net::Server> server;
    ASSERT_TRUE(net::Server::Start(opts, &server).ok());
    EXPECT_EQ(server->cluster_role(), net::kRoleStandby) << "fencing leaked across restart";
    server->Stop();
  }

  RemoveDirRecursively(dir).IgnoreError();
}

TEST(ClusterEpochTest, StandbyFencesClientWritesUntilPromoted) {
  const std::string dir = MakeTempDir("cluster_standby_fence");
  net::ServerOptions opts;
  opts.num_shards = 2;
  opts.data_dir = JoinPath(dir, "data");
  opts.checkpoint_dir = JoinPath(dir, "ckpt");
  opts.start_as_standby = true;
  std::unique_ptr<net::Server> server;
  ASSERT_TRUE(net::Server::Start(opts, &server).ok());

  net::ClientOptions copts;
  copts.port = server->port();
  copts.request_timeout_ms = 5'000;
  copts.max_retries = 2;
  std::unique_ptr<net::Client> client;
  ASSERT_TRUE(net::Client::Connect(copts, &client).ok());

  // Mutating batches are rejected whole, pre-dispatch.
  const Window w(0, 1000);
  uint64_t handle = 0;
  StorePattern pattern;
  Status st = client->OpenStore("cluster.sf.h0", RmwSpec("sf"), &handle, &pattern);
  EXPECT_TRUE(st.IsFencedOff()) << st.ToString();

  // The cluster view is legal on every role: the handshake got an answer.
  EXPECT_EQ(client->handshake_view().role, net::kRoleStandby);
  EXPECT_EQ(client->handshake_view().epoch, 1u);
  net::ClusterView view;

  // Promote over the wire (target_epoch 0 = current + 1): writes flow.
  ASSERT_TRUE(client->ClusterAdmin("promote", 0, &view).ok());
  EXPECT_EQ(view.role, net::kRolePrimary);
  EXPECT_EQ(view.epoch, 2u);
  ASSERT_TRUE(client->OpenStore("cluster.sf.h0", RmwSpec("sf"), &handle, &pattern).ok());
  ASSERT_TRUE(client->RmwPut(handle, "k0", w, "v0").ok());
  ASSERT_TRUE(client->Flush().ok());
  std::string value;
  ASSERT_TRUE(client->RmwGet(handle, "k0", w, &value).ok());
  EXPECT_EQ(value, "v0");

  // A promote to an epoch that does not exceed the current one is refused.
  EXPECT_FALSE(client->ClusterAdmin("promote", 2, nullptr).ok());

  // An admin fence neutralizes the server again.
  ASSERT_TRUE(client->ClusterAdmin("fence", 0, &view).ok());
  EXPECT_EQ(view.role, net::kRoleFenced);
  st = client->RmwPut(handle, "k1", w, "v1");
  if (st.ok()) {
    st = client->Flush();
  }
  EXPECT_TRUE(st.IsFencedOff()) << st.ToString();

  client.reset();
  server->Stop();
  RemoveDirRecursively(dir).IgnoreError();
}

// A client that adopted epoch 2 from one primary fences an epoch-1 primary
// on first contact: the stale server flips to kRoleFenced and rejects every
// later write, from any client — the split-brain half is neutralized.
TEST(ClusterEpochTest, HigherEpochClientFencesStalePrimary) {
  const std::string dir = MakeTempDir("cluster_stale_fence");
  net::ServerOptions aopts;
  aopts.num_shards = 2;
  aopts.data_dir = JoinPath(dir, "a_data");
  aopts.checkpoint_dir = JoinPath(dir, "a_ckpt");
  std::unique_ptr<net::Server> stale;
  ASSERT_TRUE(net::Server::Start(aopts, &stale).ok());

  net::ServerOptions bopts;
  bopts.num_shards = 2;
  bopts.data_dir = JoinPath(dir, "b_data");
  bopts.checkpoint_dir = JoinPath(dir, "b_ckpt");
  std::unique_ptr<net::Server> fresh;
  ASSERT_TRUE(net::Server::Start(bopts, &fresh).ok());
  ASSERT_TRUE(fresh->Promote(2).ok());

  net::ClientOptions copts;
  copts.port = fresh->port();
  copts.standbys = {{"127.0.0.1", stale->port()}};
  copts.request_timeout_ms = 5'000;
  copts.max_retries = 2;
  copts.max_reconnect_attempts = 4;
  copts.reconnect_backoff_ms = 10;
  copts.reconnect_backoff_max_ms = 100;
  copts.jitter_seed = 7;
  std::unique_ptr<net::Client> client;
  ASSERT_TRUE(net::Client::Connect(copts, &client).ok());
  EXPECT_EQ(client->cluster_epoch(), 2u) << "client did not adopt the handshake epoch";

  const Window w(0, 1000);
  uint64_t handle = 0;
  StorePattern pattern;
  ASSERT_TRUE(client->OpenStore("cluster.hi.h0", RmwSpec("hi"), &handle, &pattern).ok());
  ASSERT_TRUE(client->RmwPut(handle, "a0", w, "va").ok());
  ASSERT_TRUE(client->Flush().ok());

  // Kill the epoch-2 primary: the client fails over to the epoch-1 server,
  // whose first sight of the stamped epoch fences it. No primary is left at
  // epoch >= 2, so the write must NOT be acknowledged anywhere.
  fresh->Stop();
  Status st = client->RmwPut(handle, "b0", w, "vb");
  if (st.ok()) {
    st = client->Flush();
  }
  EXPECT_FALSE(st.ok()) << "write acked with no live primary at the adopted epoch";
  ASSERT_TRUE(WaitFor([&] { return stale->cluster_role() == net::kRoleFenced; }, 3'000))
      << "stale primary never fenced itself";

  // Once fenced, EVERY write is rejected — even from a fresh client that
  // only ever saw epoch 1.
  net::ClientOptions dopts;
  dopts.port = stale->port();
  dopts.request_timeout_ms = 3'000;
  dopts.max_retries = 0;
  std::unique_ptr<net::Client> direct;
  ASSERT_TRUE(net::Client::Connect(dopts, &direct).ok());
  uint64_t dhandle = 0;
  st = direct->OpenStore("cluster.hi.h1", RmwSpec("hi"), &dhandle, &pattern);
  EXPECT_TRUE(st.IsFencedOff()) << st.ToString();

  direct.reset();
  client.reset();
  stale->Stop();
  RemoveDirRecursively(dir).IgnoreError();
}

// ---------------------------------------------------------------------------
// Automated failover: primary + standby + ReplicaPuller with a live lease.

class NetClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir("net_cluster");

    popts_.num_shards = 2;
    popts_.data_dir = JoinPath(dir_, "primary_data");
    popts_.checkpoint_dir = JoinPath(dir_, "primary_ckpt");
    popts_.lease_ms = kLeaseMs;
    ASSERT_TRUE(net::Server::Start(popts_, &primary_).ok());

    sopts_.num_shards = 2;
    sopts_.data_dir = JoinPath(dir_, "standby_data");
    sopts_.checkpoint_dir = JoinPath(dir_, "standby_ckpt");
    sopts_.start_as_standby = true;
    sopts_.lease_ms = kLeaseMs;
    sopts_.promotion_priority = kPriority;
    ASSERT_TRUE(net::Server::Start(sopts_, &standby_).ok());
  }

  void TearDown() override {
    if (puller_ != nullptr) {
      puller_->Stop();
    }
    if (standby_ != nullptr) {
      standby_->Stop();
    }
    if (primary_ != nullptr) {
      primary_->Stop();
    }
    RemoveDirRecursively(dir_).IgnoreError();
  }

  // Subscribes the standby to the primary and waits for the initial
  // snapshot. With `failover` the puller runs the lease/election protocol
  // and promotes the standby server through the Server::Promote hook.
  void StartPuller(bool failover) {
    net::ReplicaOptions ropts;
    ropts.primary_port = primary_->port();
    ropts.self_port = standby_->port();
    ropts.snapshot_dir = JoinPath(dir_, "standby_snapshot");
    ropts.resubscribe_backoff_ms = 50;
    ropts.resubscribe_backoff_max_ms = 200;
    ropts.jitter_seed = 17;
    if (failover) {
      ropts.lease_ms = kLeaseMs;
      ropts.heartbeat_ms = 100;
      ropts.promotion_priority = kPriority;
      ropts.promotion_stagger_ms = kStaggerMs;
      ropts.peers = {{"127.0.0.1", primary_->port()}, {"127.0.0.1", standby_->port()}};
      net::Server* standby = standby_.get();
      ropts.promote = [standby](uint64_t epoch) { return standby->Promote(epoch); };
      ropts.local_epoch = [standby]() { return standby->cluster_epoch(); };
    }
    ASSERT_TRUE(net::ReplicaPuller::Start(ropts, &puller_).ok());
    for (int i = 0; i < 200 && !puller_->snapshot_loaded(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_TRUE(puller_->snapshot_loaded()) << "standby never restored a snapshot";
  }

  // A client that can ride out a full election: the promotion takes roughly
  // lease + stagger, and every attempt in between is answered kFencedOff
  // (standby) or connection-reset (dead primary), both retried.
  net::ClientOptions ClusterClientOptions() {
    net::ClientOptions copts;
    copts.port = primary_->port();
    copts.standbys = {{"127.0.0.1", standby_->port()}};
    copts.request_timeout_ms = 60'000;
    copts.max_retries = 20;
    copts.max_reconnect_attempts = 8;
    copts.reconnect_backoff_ms = 10;
    copts.reconnect_backoff_max_ms = 300;
    copts.jitter_seed = 11;
    return copts;
  }

  std::string dir_;
  net::ServerOptions popts_;
  net::ServerOptions sopts_;
  std::unique_ptr<net::Server> primary_;
  std::unique_ptr<net::Server> standby_;
  std::unique_ptr<net::ReplicaPuller> puller_;
};

TEST_F(NetClusterTest, KilledPrimaryTriggersSelfPromotionAndFencesRevival) {
  StartPuller(/*failover=*/true);

  std::unique_ptr<net::Client> client;
  ASSERT_TRUE(net::Client::Connect(ClusterClientOptions(), &client).ok());
  const Window w(0, 1000);
  uint64_t handle = 0;
  StorePattern pattern;
  ASSERT_TRUE(client->OpenStore("cluster.fo.h0", RmwSpec("fo"), &handle, &pattern).ok());
  uint64_t aar = 0;
  ASSERT_TRUE(client->OpenStore("cluster.fo.aar", AarSpec("fo-aar"), &aar, &pattern).ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(client->RmwPut(handle, "a" + std::to_string(i), w, "va").ok());
  }
  // Long fields go through DispatchReplicated: forwarded to the standby and
  // queued to the shard.
  constexpr int kLong = 4;
  for (int i = 0; i < kLong; ++i) {
    ASSERT_TRUE(client->RmwPut(handle, LongKey(i), w, LongValue(i)).ok());
    ASSERT_TRUE(client->AppendAligned(aar, LongKey(i), LongValue(i), w).ok());
    ASSERT_TRUE(client->AppendAligned(aar, LongKey(i), LongValue(i + 1), w).ok());
  }
  ASSERT_TRUE(client->Flush().ok());
  EXPECT_EQ(client->cluster_epoch(), 1u);
  std::string value;
  for (int i = 0; i < kLong; ++i) {
    ASSERT_TRUE(client->RmwGet(handle, LongKey(i), w, &value).ok());
    EXPECT_EQ(value, LongValue(i)) << "primary, long key " << i;
  }

  // Kill the primary: the standby's lease expires, its election finds no
  // live primary, and it self-promotes under epoch 2. The bound is lease +
  // priority stagger + election polling, with generous sanitizer slack —
  // unsanitized this completes in well under two seconds.
  const int primary_port = primary_->port();
  const auto t0 = std::chrono::steady_clock::now();
  primary_->Stop();
  ASSERT_TRUE(WaitFor([&] { return puller_->promoted(); }, 20'000))
      << "standby never promoted itself";
  const int64_t elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
  EXPECT_LE(elapsed_ms, kLeaseMs + (10 - kPriority) * kStaggerMs + 10'000)
      << "promotion exceeded the lease bound";
  EXPECT_EQ(standby_->cluster_role(), net::kRolePrimary);
  EXPECT_EQ(standby_->cluster_epoch(), 2u);

  // The same client converges on the new primary and keeps the acked state.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(client->RmwPut(handle, "b" + std::to_string(i), w, "vb").ok());
  }
  ASSERT_TRUE(client->Flush().ok());
  EXPECT_EQ(client->cluster_epoch(), 2u) << "client never adopted the new epoch";
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(client->RmwGet(handle, "a" + std::to_string(i), w, &value).ok())
        << "acked pre-kill write a" << i << " lost across promotion";
    EXPECT_EQ(value, "va");
    ASSERT_TRUE(client->RmwGet(handle, "b" + std::to_string(i), w, &value).ok());
    EXPECT_EQ(value, "vb");
  }
  for (int i = 0; i < kLong; ++i) {
    ASSERT_TRUE(client->RmwGet(handle, LongKey(i), w, &value).ok());
    EXPECT_EQ(value, LongValue(i)) << "promoted standby, long key " << i;
  }
  std::map<std::string, std::vector<std::string>> drained;
  for (bool done = false; !done;) {
    std::vector<WindowChunkEntry> chunk;
    ASSERT_TRUE(client->GetWindowChunk(aar, w, &chunk, &done).ok());
    for (WindowChunkEntry& entry : chunk) {
      auto& values = drained[entry.key];
      values.insert(values.end(), entry.values.begin(), entry.values.end());
    }
  }
  ASSERT_EQ(drained.size(), static_cast<size_t>(kLong));
  for (int i = 0; i < kLong; ++i) {
    EXPECT_EQ(drained[LongKey(i)], (std::vector<std::string>{LongValue(i), LongValue(i + 1)}))
        << "promoted standby, long AAR key " << i;
  }

  // Revive the dead primary on its old port and data dir. It comes back as
  // an epoch-1 primary (its CLUSTER_EPOCH was never bumped) — the two
  // "primaries" are in DIFFERENT epochs, which is exactly what makes the
  // split safe: the first epoch-2 request fences the stale one.
  net::ServerOptions ropts = popts_;
  ropts.port = primary_port;
  std::unique_ptr<net::Server> revived;
  ASSERT_TRUE(net::Server::Start(ropts, &revived).ok());
  EXPECT_EQ(revived->cluster_epoch(), 1u);
  EXPECT_EQ(revived->cluster_role(), net::kRolePrimary);
  EXPECT_NE(revived->cluster_epoch(), standby_->cluster_epoch())
      << "two servers accepting writes in the same epoch";

  // A client that learned epoch 2 from the new primary fences the revived
  // server the moment it falls back to it.
  net::ClientOptions lopts;
  lopts.port = standby_->port();
  lopts.standbys = {{"127.0.0.1", primary_port}};
  lopts.request_timeout_ms = 8'000;
  lopts.max_retries = 4;
  lopts.max_reconnect_attempts = 4;
  lopts.reconnect_backoff_ms = 10;
  lopts.reconnect_backoff_max_ms = 100;
  lopts.jitter_seed = 13;
  std::unique_ptr<net::Client> late;
  ASSERT_TRUE(net::Client::Connect(lopts, &late).ok());
  EXPECT_EQ(late->cluster_epoch(), 2u);
  uint64_t lhandle = 0;
  ASSERT_TRUE(late->OpenStore("cluster.fo.h0", RmwSpec("fo"), &lhandle, &pattern).ok());

  standby_->Stop();
  Status st = late->RmwPut(lhandle, "c0", w, "vc");
  if (st.ok()) {
    st = late->Flush();
  }
  EXPECT_FALSE(st.ok()) << "write acked by a stale primary";
  ASSERT_TRUE(WaitFor([&] { return revived->cluster_role() == net::kRoleFenced; }, 5'000))
      << "revived stale primary never fenced itself";

  // Fenced means fenced for everyone: a brand-new epoch-1 client is
  // rejected too.
  net::ClientOptions dopts;
  dopts.port = primary_port;
  dopts.request_timeout_ms = 3'000;
  dopts.max_retries = 0;
  std::unique_ptr<net::Client> direct;
  ASSERT_TRUE(net::Client::Connect(dopts, &direct).ok());
  uint64_t dhandle = 0;
  st = direct->OpenStore("cluster.fo.h1", RmwSpec("fo"), &dhandle, &pattern);
  EXPECT_TRUE(st.IsFencedOff()) << st.ToString();

  direct.reset();
  late.reset();
  client.reset();
  revived->Stop();
}

// The standby learns its primary's epoch from the replication stream alone:
// the primary holds epoch 5 before the standby (local epoch 1) attaches and
// dies as soon as the snapshot is applied, so only stream frames (snapshot
// chunks, kSnapshotDone, heartbeat replies) can have carried the 5. The
// election must then pick 6, never 2 — an epoch the dead primary's clients
// may have been stamped with is never reused.
TEST_F(NetClusterTest, StandbyAdoptsPrimaryEpochFromReplicationStream) {
  ASSERT_TRUE(primary_->Promote(5).ok());
  StartPuller(/*failover=*/true);
  EXPECT_EQ(standby_->cluster_epoch(), 1u);
  primary_->Stop();
  ASSERT_TRUE(WaitFor([&] { return puller_->promoted(); }, 20'000))
      << "standby never promoted itself";
  EXPECT_EQ(standby_->cluster_role(), net::kRolePrimary);
  EXPECT_EQ(standby_->cluster_epoch(), 6u);
}

// A cluster-view refresh handshakes every endpoint, a lagging standby too,
// and must leave it a standby. The client adopted epoch 2 from the primary
// on the way; the standby's own epoch is still 1, and a server fences on any
// higher stamped epoch, so only an unstamped handshake keeps it healthy.
// Endpoint order [fenced server, primary, standby] makes the refresh adopt 2
// before it reaches the standby. The standby must then still self-promote
// (to 3) once the primary dies.
TEST_F(NetClusterTest, RefreshHandshakeNeverFencesALaggingStandby) {
  ASSERT_TRUE(primary_->Promote(2).ok());
  StartPuller(/*failover=*/true);
  ASSERT_EQ(standby_->cluster_epoch(), 1u);

  net::ServerOptions fopts;
  fopts.num_shards = 2;
  fopts.data_dir = JoinPath(dir_, "fenced_data");
  fopts.checkpoint_dir = JoinPath(dir_, "fenced_ckpt");
  std::unique_ptr<net::Server> fenced;
  ASSERT_TRUE(net::Server::Start(fopts, &fenced).ok());
  fenced->Fence();

  net::ClientOptions copts = ClusterClientOptions();
  copts.port = fenced->port();
  copts.standbys = {{"127.0.0.1", primary_->port()}, {"127.0.0.1", standby_->port()}};
  std::unique_ptr<net::Client> client;
  ASSERT_TRUE(net::Client::Connect(copts, &client).ok());
  EXPECT_EQ(client->cluster_epoch(), 1u);

  // The fenced server refuses the open, the refresh walks all three
  // endpoints, and the open lands on the epoch-2 primary.
  const int64_t refreshes_before = client->metrics().Sum("client.cluster_refreshes");
  uint64_t handle = 0;
  StorePattern pattern;
  ASSERT_TRUE(client->OpenStore("cluster.rf.h0", RmwSpec("rf"), &handle, &pattern).ok());
  EXPECT_GT(client->metrics().Sum("client.cluster_refreshes"), refreshes_before);
  EXPECT_EQ(client->cluster_epoch(), 2u);
  EXPECT_EQ(client->handshake_view().role, net::kRolePrimary);
  EXPECT_EQ(standby_->cluster_role(), net::kRoleStandby)
      << "the refresh handshake fenced the standby";

  client.reset();
  fenced->Stop();
  primary_->Stop();
  ASSERT_TRUE(WaitFor([&] { return puller_->promoted(); }, 20'000))
      << "standby never promoted itself";
  EXPECT_EQ(standby_->cluster_role(), net::kRolePrimary);
  EXPECT_EQ(standby_->cluster_epoch(), 3u);
}

// Satellite: kill and restart the standby in the middle of a NEXMark run.
// The primary keeps acking (it drops the dead subscriber), the restarted
// puller re-subscribes and receives a FRESH snapshot covering the
// unreplicated window, and afterwards acked writes fail over intact.
TEST_F(NetClusterTest, StandbyRestartMidRunShipsFreshSnapshot) {
  const std::string query = "q5";

  NexmarkConfig nexmark;
  nexmark.events_per_worker = 4'000;
  nexmark.num_people = 120;
  nexmark.num_auctions = 120;
  nexmark.inter_event_ms = 10;

  QueryParams params;
  params.window_size_ms = 20'000;
  params.session_gap_ms = 2'000;

  FlowKvBackendFactory embedded(JoinPath(dir_, "embedded_" + query), FlowKvOptions{});
  RunOutcome reference = RunQuery(query, &embedded, nexmark, params);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
  ASSERT_FALSE(reference.results.empty());

  StartPuller(/*failover=*/false);

  net::ClientOptions copts;
  copts.port = primary_->port();
  copts.request_timeout_ms = 60'000;
  copts.max_retries = 8;
  RemoteBackendFactory remote(copts);
  RunOutcome remote_run =
      RunQuery(query, &remote, nexmark, params, /*hook_at_event=*/2'000, [this] {
        // Hard-bounce the standby: new process (fresh Server), new
        // subscription. kRestoreStore wipes to the shipped snapshot, so the
        // restart cannot resurrect stale state.
        puller_->Stop();
        puller_.reset();
        standby_->Stop();
        standby_.reset();
        ASSERT_TRUE(net::Server::Start(sopts_, &standby_).ok());
        StartPuller(/*failover=*/false);  // asserts a fresh snapshot restored
      });
  ASSERT_TRUE(remote_run.status.ok()) << remote_run.status.ToString();
  EXPECT_EQ(remote_run.results, reference.results)
      << query << " diverged across a standby restart";
  EXPECT_TRUE(puller_->snapshot_loaded());

  // The re-subscribed stream is live again: a synchronously replicated
  // write survives killing the primary and promoting the standby.
  net::ClientOptions fopts;
  fopts.port = primary_->port();
  fopts.standbys = {{"127.0.0.1", standby_->port()}};
  fopts.request_timeout_ms = 20'000;
  fopts.max_retries = 8;
  fopts.reconnect_backoff_ms = 10;
  fopts.reconnect_backoff_max_ms = 200;
  fopts.jitter_seed = 19;
  std::unique_ptr<net::Client> client;
  ASSERT_TRUE(net::Client::Connect(fopts, &client).ok());
  const Window w(0, 1000);
  uint64_t handle = 0;
  StorePattern pattern;
  ASSERT_TRUE(client->OpenStore("cluster.rs.h0", RmwSpec("rs"), &handle, &pattern).ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(client->RmwPut(handle, "k" + std::to_string(i), w, "v").ok());
  }
  ASSERT_TRUE(client->Flush().ok());

  primary_->Stop();
  ASSERT_TRUE(standby_->Promote(2).ok());
  std::string value;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(client->RmwGet(handle, "k" + std::to_string(i), w, &value).ok())
        << "acked write k" << i << " lost across the standby restart";
    EXPECT_EQ(value, "v");
  }
  client.reset();
}

// The acceptance bar from the issue: a NEXMark query whose primary is
// killed mid-run — with nothing but the lease/election machinery to recover
// it — must match the embedded reference exactly. RMW-only queries (q5,
// q12): idempotent Puts make the at-least-once replay of the in-flight
// batch converge to the same state on the promoted standby.
class ClusterEquivalenceTest : public NetClusterTest,
                               public ::testing::WithParamInterface<std::string> {};

TEST_P(ClusterEquivalenceTest, NexmarkMatchesEmbeddedAcrossAutomatedFailover) {
  const std::string query = GetParam();

  NexmarkConfig nexmark;
  nexmark.events_per_worker = 4'000;
  nexmark.num_people = 120;
  nexmark.num_auctions = 120;
  nexmark.inter_event_ms = 10;

  QueryParams params;
  params.window_size_ms = 20'000;
  params.session_gap_ms = 2'000;

  FlowKvBackendFactory embedded(JoinPath(dir_, "embedded_" + query), FlowKvOptions{});
  RunOutcome reference = RunQuery(query, &embedded, nexmark, params);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
  ASSERT_FALSE(reference.results.empty());

  StartPuller(/*failover=*/true);
  RemoteBackendFactory remote(ClusterClientOptions());
  RunOutcome remote_run = RunQuery(query, &remote, nexmark, params,
                                   /*hook_at_event=*/2'000,
                                   [this] { primary_->Stop(); });
  ASSERT_TRUE(remote_run.status.ok()) << remote_run.status.ToString();
  EXPECT_EQ(remote_run.results.size(), reference.results.size());
  EXPECT_EQ(remote_run.results, reference.results)
      << query << " diverged across automated failover";

  // The recovery really was the election, not a revived primary.
  EXPECT_TRUE(puller_->promoted());
  EXPECT_EQ(standby_->cluster_role(), net::kRolePrimary);
  EXPECT_EQ(standby_->cluster_epoch(), 2u);
}

INSTANTIATE_TEST_SUITE_P(RmwQueries, ClusterEquivalenceTest,
                         ::testing::Values("q5", "q12"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ---------------------------------------------------------------------------
// Promotion crash sweep: kill the promoting standby at EVERY sync point of
// the epoch-bump commit, for every point until a run completes uncrashed.
// Invariants on restart: the server always comes back, the epoch is exactly
// 1 or 2 (atomic rename — never torn, never regressed) and 2 whenever the
// promote was acknowledged, and the seeded store is intact.

class PromotionCrashSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fs_ = std::make_unique<FaultInjectionFs>();
    InstallFsHooks(fs_.get());
  }
  void TearDown() override {
    fs_->ResetTracking();
    InstallFsHooks(nullptr);
    for (const auto& dir : dirs_) {
      RemoveDirRecursively(dir).IgnoreError();
    }
  }

  std::string TempDir(const std::string& tag) {
    dirs_.push_back(MakeTempDir(tag));
    return dirs_.back();
  }

  std::unique_ptr<FaultInjectionFs> fs_;
  std::vector<std::string> dirs_;
};

TEST_F(PromotionCrashSweepTest, PromotionSurvivesCrashAtEverySyncPoint) {
  constexpr int kKeys = 16;
  const Window w(0, 1000);

  for (uint64_t crash_point = 1;; ++crash_point) {
    const std::string dir = TempDir("promo_crash");
    net::ServerOptions options;
    options.num_shards = 2;
    options.data_dir = JoinPath(dir, "data");
    options.checkpoint_dir = JoinPath(dir, "ckpt");
    fs_->ResetTracking();

    // Seed durable state as a primary: one batch and a clean drain.
    {
      std::unique_ptr<net::Server> server;
      ASSERT_TRUE(net::Server::Start(options, &server).ok());
      net::ClientOptions copts;
      copts.port = server->port();
      std::unique_ptr<net::Client> client;
      ASSERT_TRUE(net::Client::Connect(copts, &client).ok());
      uint64_t handle = 0;
      StorePattern pattern;
      ASSERT_TRUE(client->OpenStore("promo.h0", RmwSpec("promo"), &handle, &pattern).ok());
      for (int i = 0; i < kKeys; ++i) {
        ASSERT_TRUE(client->RmwPut(handle, "k" + std::to_string(i), w, "v").ok());
      }
      ASSERT_TRUE(client->Flush().ok());
      client.reset();
      ASSERT_TRUE(server->DrainAndStop().ok());
    }

    // Restart as a standby and promote with the crash armed at
    // `crash_point` — this sweeps every fsync of PersistClusterEpoch's
    // write + rename commit.
    bool promote_ok = false;
    {
      net::ServerOptions sopts = options;
      sopts.start_as_standby = true;
      std::unique_ptr<net::Server> server;
      ASSERT_TRUE(net::Server::Start(sopts, &server).ok());
      ASSERT_EQ(server->cluster_epoch(), 1u);
      fs_->ResetTracking();
      fs_->CrashAtSyncPoint(crash_point);
      const Status promoted = server->Promote(2);
      promote_ok = promoted.ok();
      server->Stop();
    }
    const bool crashed = fs_->crashed();
    if (crashed) {
      ASSERT_TRUE(fs_->RestoreCrashImage().ok());
    } else {
      fs_->ResetTracking();
    }

    // Restart on the crash image (revived as a primary so the store is
    // readable) and check the invariants.
    {
      std::unique_ptr<net::Server> server;
      const Status restarted = net::Server::Start(options, &server);
      ASSERT_TRUE(restarted.ok())
          << "crash point " << crash_point << ": " << restarted.ToString();
      const uint64_t epoch = server->cluster_epoch();
      EXPECT_TRUE(epoch == 1 || epoch == 2)
          << "crash point " << crash_point << " tore the epoch: " << epoch;
      if (promote_ok) {
        EXPECT_EQ(epoch, 2u)
            << "crash point " << crash_point << " regressed an acked promotion";
      }
      net::ClientOptions copts;
      copts.port = server->port();
      std::unique_ptr<net::Client> client;
      ASSERT_TRUE(net::Client::Connect(copts, &client).ok());
      uint64_t handle = 0;
      StorePattern pattern;
      ASSERT_TRUE(client->OpenStore("promo.h0", RmwSpec("promo"), &handle, &pattern).ok());
      std::string value;
      for (int i = 0; i < kKeys; ++i) {
        ASSERT_TRUE(client->RmwGet(handle, "k" + std::to_string(i), w, &value).ok())
            << "crash point " << crash_point << " lost committed key k" << i;
        EXPECT_EQ(value, "v");
      }
      client.reset();
      server->Stop();
    }

    if (!crashed) {
      // The armed point was past the promotion's last sync: sweep done. A
      // promotion that never crashed at point 1 would mean its commit does
      // no hooked fsync at all — the sweep would be vacuous.
      EXPECT_GT(crash_point, 1u) << "promotion commit performed no tracked sync";
      break;
    }
  }
}

}  // namespace
}  // namespace flowkv
