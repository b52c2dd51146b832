// Chaos tests for the state service: a FaultInjectionSocket tortures the
// client ↔ server path (refused connects, resets mid-frame, short I/O,
// latency spikes, corrupted bytes) while the workload on top must either
// recover transparently through the client's retry/backoff machinery or fail
// with a clean status — and NEXMark results through the faulted remote
// backend must stay identical to the embedded reference.
//
// Also home of the SIGTERM-drain crash sweep (fault_injection_fs.h): a
// simulated power failure is armed at every sync point of the server's drain
// checkpoint in turn; whatever the crash point, a restarted server must come
// back serving every previously committed epoch, and the new epoch's data
// exactly when the drain reported success.
#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/backends/flowkv_backend.h"
#include "src/backends/remote_backend.h"
#include "src/common/env.h"
#include "src/common/fault_injection_fs.h"
#include "src/common/fault_injection_socket.h"
#include "src/common/fs_hooks.h"
#include "src/common/net_hooks.h"
#include "src/net/client.h"
#include "src/net/replica.h"
#include "src/net/server.h"
#include "src/nexmark/generator.h"
#include "src/nexmark/queries.h"
#include "src/obs/metrics.h"
#include "src/spe/job_runner.h"

namespace flowkv {
namespace {

using Results = std::vector<std::tuple<int64_t, std::string, std::string>>;

OperatorStateSpec RmwSpec(const std::string& name) {
  OperatorStateSpec spec;
  spec.name = name;
  spec.window_kind = WindowKind::kTumbling;
  spec.incremental = true;
  spec.window_size_ms = 1000;
  return spec;
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

RunOutcome RunQueryOn(const std::string& query, StateBackendFactory* factory,
                      const NexmarkConfig& nexmark, const QueryParams& params) {
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
  while (source.Next(&event)) {
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

NexmarkConfig SmallNexmark() {
  NexmarkConfig nexmark;
  nexmark.events_per_worker = 4'000;
  nexmark.num_people = 120;
  nexmark.num_auctions = 120;
  nexmark.inter_event_ms = 10;
  return nexmark;
}

QueryParams DefaultParams() {
  QueryParams params;
  params.window_size_ms = 20'000;
  params.session_gap_ms = 2'000;
  return params;
}

// ---------------------------------------------------------------------------
// Socket chaos against a live server.

class NetChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir("net_chaos");
    net::ServerOptions options;
    options.num_shards = 2;
    options.data_dir = JoinPath(dir_, "server_data");
    options.checkpoint_dir = JoinPath(dir_, "server_ckpt");
    ASSERT_TRUE(net::Server::Start(options, &server_).ok());
    faults_ = std::make_unique<FaultInjectionSocket>(/*seed=*/4242);
    InstallNetHooks(faults_.get());
  }

  void TearDown() override {
    InstallNetHooks(nullptr);
    if (server_ != nullptr) {
      server_->Stop();
    }
    RemoveDirRecursively(dir_).IgnoreError();
  }

  net::ClientOptions RetryingOptions() {
    net::ClientOptions copts;
    copts.port = server_->port();
    copts.connect_timeout_ms = 10'000;
    copts.request_timeout_ms = 120'000;
    copts.max_retries = 10;
    copts.max_reconnect_attempts = 10;
    copts.reconnect_backoff_ms = 5;
    copts.reconnect_backoff_max_ms = 100;
    copts.jitter_seed = 7;
    // A corrupted length prefix stalls the stream mid-frame; give up on the
    // stalled connection quickly so the sweep spends its time on retries.
    copts.frame_stall_timeout_ms = 500;
    return copts;
  }

  std::string dir_;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<FaultInjectionSocket> faults_;
};

TEST_F(NetChaosTest, RefusedConnectIsRetriedWithinTimeout) {
  faults_->FailConnectAt(0);  // the very next connect is refused
  std::unique_ptr<net::Client> client;
  ASSERT_TRUE(net::Client::Connect(RetryingOptions(), &client).ok());
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_GE(faults_->injected_connect_failures(), 1);
}

TEST_F(NetChaosTest, SignalStormOnlyInterruptsNeverFails) {
  // SIGUSR1 fired at the client thread every few hundred microseconds while
  // latency faults widen every poll window, so connect()/poll()/send()/recv()
  // keep returning EINTR mid-request. Interrupted waits must resume against
  // the same absolute deadline — no spurious failures, no lost responses.
  struct sigaction sa;
  struct sigaction old_sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART: syscalls must see EINTR
  ASSERT_EQ(0, ::sigaction(SIGUSR1, &sa, &old_sa));

  SocketFaultPlan plan;
  plan.latency_prob = 0.2;
  plan.latency_min_ms = 1;
  plan.latency_max_ms = 4;
  faults_->SetPlan(plan);

  std::atomic<bool> stop{false};
  const pthread_t victim = pthread_self();
  std::thread storm([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ::pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  std::unique_ptr<net::Client> client;
  ASSERT_TRUE(net::Client::Connect(RetryingOptions(), &client).ok());
  uint64_t handle = 0;
  ASSERT_TRUE(client->OpenStore("chaos.eintr.h0", RmwSpec("chaos"), &handle, nullptr).ok());
  const Window w(0, 1000);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client->RmwPut(handle, "k" + std::to_string(i), w, "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(client->Flush().ok());
  for (int i = 0; i < 200; ++i) {
    std::string value;
    ASSERT_TRUE(client->RmwGet(handle, "k" + std::to_string(i), w, &value).ok());
    EXPECT_EQ(value, "v" + std::to_string(i));
  }

  stop.store(true);
  storm.join();
  ::sigaction(SIGUSR1, &old_sa, nullptr);
  faults_->ClearFaults();
}

TEST_F(NetChaosTest, SendResetIsRetriedAndIdempotentWritesSurvive) {
  std::unique_ptr<net::Client> client;
  ASSERT_TRUE(net::Client::Connect(RetryingOptions(), &client).ok());
  uint64_t handle = 0;
  StorePattern pattern;
  ASSERT_TRUE(client->OpenStore("chaos.send.h0", RmwSpec("chaos"), &handle, &pattern).ok());
  const Window w(0, 1000);
  ASSERT_TRUE(client->RmwPut(handle, "k1", w, "v1").ok());
  ASSERT_TRUE(client->Flush().ok());

  faults_->ResetSendAt(0);  // reset the very next send mid-frame
  ASSERT_TRUE(client->RmwPut(handle, "k2", w, "v2").ok());
  const Status flushed = client->Flush();
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();
  EXPECT_GE(faults_->injected_resets(), 1);

  std::string value;
  ASSERT_TRUE(client->RmwGet(handle, "k1", w, &value).ok());
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(client->RmwGet(handle, "k2", w, &value).ok());
  EXPECT_EQ(value, "v2");
}

TEST_F(NetChaosTest, RecvResetReplaysTheBatchAtLeastOnce) {
  std::unique_ptr<net::Client> client;
  ASSERT_TRUE(net::Client::Connect(RetryingOptions(), &client).ok());
  uint64_t handle = 0;
  StorePattern pattern;
  ASSERT_TRUE(client->OpenStore("chaos.recv.h0", RmwSpec("chaos"), &handle, &pattern).ok());
  const Window w(0, 1000);

  // The response is lost after execution; the retried batch re-applies the
  // Put — idempotent, so the state converges to exactly the written value.
  faults_->ResetRecvAt(0);
  ASSERT_TRUE(client->RmwPut(handle, "k", w, "v").ok());
  ASSERT_TRUE(client->Flush().ok());
  EXPECT_GE(faults_->injected_resets(), 1);

  std::string value;
  ASSERT_TRUE(client->RmwGet(handle, "k", w, &value).ok());
  EXPECT_EQ(value, "v");
}

TEST_F(NetChaosTest, CorruptedBytesNeverSilentlySucceed) {
  std::unique_ptr<net::Client> client;
  ASSERT_TRUE(net::Client::Connect(RetryingOptions(), &client).ok());

  // Corrupt every received byte stream: each attempt must surface as a clean
  // connection error (the frame CRC catches the damage), never as a reply.
  SocketFaultPlan plan;
  plan.corrupt_recv_prob = 1.0;
  faults_->SetPlan(plan);
  const Status pinged = client->Ping();
  EXPECT_FALSE(pinged.ok());
  EXPECT_TRUE(pinged.IsConnectionReset() || pinged.IsTimedOut()) << pinged.ToString();
  EXPECT_GE(faults_->injected_corruptions(), 1);

  // Heal the network: the same client recovers on its next call.
  faults_->ClearFaults();
  EXPECT_TRUE(client->Ping().ok());
}

// Benign faults (short writes, short reads, latency) perturb I/O boundaries
// without losing or duplicating anything, so every state pattern must come
// through bit-identical — AAR/AUR appends included.
TEST_F(NetChaosTest, NexmarkEquivalenceUnderShortIoAndLatency) {
  const NexmarkConfig nexmark = SmallNexmark();
  const QueryParams params = DefaultParams();

  for (const std::string& query : {std::string("q5"), std::string("q7"),
                                   std::string("q11-median")}) {
    faults_->ClearFaults();
    FlowKvBackendFactory embedded(JoinPath(dir_, "embedded_benign_" + query),
                                  FlowKvOptions{});
    RunOutcome reference = RunQueryOn(query, &embedded, nexmark, params);
    ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();

    SocketFaultPlan plan;
    plan.short_send_prob = 0.2;
    plan.short_recv_prob = 0.2;
    plan.latency_prob = 0.002;
    plan.latency_min_ms = 1;
    plan.latency_max_ms = 2;
    faults_->SetPlan(plan);
    faults_->EnableCaptureFilter();  // torture only connections made below

    RemoteBackendFactory remote(RetryingOptions());
    RunOutcome remote_run = RunQueryOn(query, &remote, nexmark, params);
    faults_->ClearFaults();
    faults_->DisableCaptureFilter();
    ASSERT_TRUE(remote_run.status.ok()) << query << ": " << remote_run.status.ToString();
    EXPECT_EQ(remote_run.results, reference.results)
        << query << " diverged under short-I/O/latency chaos";
    EXPECT_GT(faults_->injected_short_ios(), 0);
  }
}

// Lossy faults (resets, refused connects, corrupted reads) force retries that
// may re-execute a delivered batch, so the sweep runs the RMW-only queries —
// their Puts are idempotent, making retry convergence exact (docs/NETWORK.md:
// at-least-once delivery + idempotent ops = exactly-once effect). q11's
// session merges add Get(absorbed) + Remove, which the RMW accumulator cache
// answers and forgets locally while the writes behind them are retried on
// the wire.
TEST_F(NetChaosTest, NexmarkEquivalenceUnderResetsAndCorruption) {
  const NexmarkConfig nexmark = SmallNexmark();
  const QueryParams params = DefaultParams();

  for (const std::string& query : {std::string("q5"), std::string("q11"), std::string("q12")}) {
    faults_->ClearFaults();
    FlowKvBackendFactory embedded(JoinPath(dir_, "embedded_lossy_" + query),
                                  FlowKvOptions{});
    RunOutcome reference = RunQueryOn(query, &embedded, nexmark, params);
    ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();

    SocketFaultPlan plan;
    plan.connect_refuse_prob = 0.05;
    plan.reset_on_send_prob = 0.002;
    plan.reset_on_recv_prob = 0.002;
    plan.corrupt_recv_prob = 0.002;
    plan.short_send_prob = 0.1;
    plan.short_recv_prob = 0.1;
    faults_->SetPlan(plan);
    faults_->EnableCaptureFilter();

    RemoteBackendFactory remote(RetryingOptions());
    RunOutcome remote_run = RunQueryOn(query, &remote, nexmark, params);
    faults_->ClearFaults();
    faults_->DisableCaptureFilter();
    ASSERT_TRUE(remote_run.status.ok()) << query << ": " << remote_run.status.ToString();
    EXPECT_EQ(remote_run.results, reference.results)
        << query << " diverged under reset/corruption chaos";
    EXPECT_GT(faults_->injected_resets() + faults_->injected_corruptions(), 0);
  }
}

// Counter `name` of the client behind `backend`.
int64_t CounterValue(StateBackend* backend, const char* name) {
  return RemoteBackendClient(backend)->metrics().Sum(name);
}

// Reads `key` through a backend freshly created for the same worker and
// operator: same server-side store, but an empty client batch and an empty
// accumulator cache, so only the server can answer.
Status ReadThroughFreshBackend(RemoteBackendFactory* factory, const std::string& op,
                               const std::string& key, std::string* value) {
  std::unique_ptr<StateBackend> backend;
  FLOWKV_RETURN_IF_ERROR(factory->CreateBackend(0, op, &backend));
  std::unique_ptr<RmwState> state;
  FLOWKV_RETURN_IF_ERROR(backend->CreateRmw(RmwSpec(op), &state));
  return state->Get(key, Window(0, 1000), value);
}

// Fail-fast options for tests that black out the network on purpose.
net::ClientOptions OutageOptions(net::ClientOptions copts) {
  copts.request_timeout_ms = 400;  // fail fast while the plan refuses all
  copts.max_retries = 1;
  copts.max_reconnect_attempts = 2;
  return copts;
}

// The replay buffer papers over a full outage the retry budget cannot: with
// buffering enabled and the server unreachable, writes are held locally and
// replayed once the service returns, in order, before the next read that
// reaches the server. One-op batches make every Put try the network, so the
// outage really is met by the replay buffer, not the client batch.
TEST_F(NetChaosTest, ReplayBufferRidesOutATotalOutage) {
  net::ClientOptions copts = OutageOptions(RetryingOptions());
  copts.max_batch_ops = 1;
  RemoteBackendFactory factory(copts);
  factory.set_replay_buffer_bytes(1u << 20);
  std::unique_ptr<StateBackend> backend;
  ASSERT_TRUE(factory.CreateBackend(0, "outage", &backend).ok());
  std::unique_ptr<RmwState> state;
  ASSERT_TRUE(backend->CreateRmw(RmwSpec("outage"), &state).ok());
  const Window w(0, 1000);
  ASSERT_TRUE(state->Put("before", w, "b").ok());

  // Total outage: every send and connect fails. Writes must still be
  // accepted (buffered), not surfaced as errors.
  const int64_t buffered_before = CounterValue(backend.get(), "remote.buffered_writes");
  SocketFaultPlan outage;
  outage.reset_on_send_prob = 1.0;
  outage.connect_refuse_prob = 1.0;
  faults_->SetPlan(outage);
  ASSERT_TRUE(state->Put("during1", w, "d1").ok());
  ASSERT_TRUE(state->Put("during2", w, "d2").ok());
  EXPECT_EQ(CounterValue(backend.get(), "remote.buffered_writes") - buffered_before, 2);

  // Service restored: a read that reaches the server replays the buffer
  // first. The key was never written, so the accumulator cache cannot
  // answer it.
  faults_->ClearFaults();
  std::string value;
  EXPECT_TRUE(state->Get("absent", w, &value).IsNotFound());

  for (const auto& [key, expected] : {std::pair<std::string, std::string>{"before", "b"},
                                      {"during1", "d1"},
                                      {"during2", "d2"}}) {
    const Status s = ReadThroughFreshBackend(&factory, "outage", key, &value);
    ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
    EXPECT_EQ(value, expected) << key;
  }
}

// Regression: writes acked while sitting in the client batch must survive a
// failed flush. With four-op batches, a and b wait client-side when the
// outage starts; c joins them, and d fills the batch, whose send fails. All
// four calls return OK, so all four writes must reach the server, in order.
TEST_F(NetChaosTest, AckedBatchedWritesSurviveAFailedFlush) {
  net::ClientOptions copts = OutageOptions(RetryingOptions());
  copts.max_batch_ops = 4;
  RemoteBackendFactory factory(copts);
  factory.set_replay_buffer_bytes(1u << 20);
  std::unique_ptr<StateBackend> backend;
  ASSERT_TRUE(factory.CreateBackend(0, "batched", &backend).ok());
  std::unique_ptr<RmwState> state;
  ASSERT_TRUE(backend->CreateRmw(RmwSpec("batched"), &state).ok());
  const Window w(0, 1000);
  ASSERT_TRUE(state->Put("a", w, "va").ok());
  ASSERT_TRUE(state->Put("b", w, "vb").ok());

  SocketFaultPlan outage;
  outage.reset_on_send_prob = 1.0;
  outage.connect_refuse_prob = 1.0;
  faults_->SetPlan(outage);
  ASSERT_TRUE(state->Put("c", w, "vc").ok());
  ASSERT_TRUE(state->Put("d", w, "vd").ok());
  // An overwrite during the outage: order decides which value wins.
  ASSERT_TRUE(state->Put("a", w, "va2").ok());

  faults_->ClearFaults();
  std::string value;
  EXPECT_TRUE(state->Get("absent", w, &value).IsNotFound());

  for (const auto& [key, expected] : {std::pair<std::string, std::string>{"a", "va2"},
                                      {"b", "vb"},
                                      {"c", "vc"},
                                      {"d", "vd"}}) {
    const Status s = ReadThroughFreshBackend(&factory, "batched", key, &value);
    ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
    EXPECT_EQ(value, expected) << key;
  }
}

// The RMW accumulator cache is dropped on any failure: after an injected
// error, the next Get of a cached key goes to the server.
TEST_F(NetChaosTest, RmwCacheMissesAfterAnInjectedError) {
  net::ClientOptions copts = OutageOptions(RetryingOptions());
  copts.max_batch_ops = 1;
  RemoteBackendFactory factory(copts);
  std::unique_ptr<StateBackend> backend;
  ASSERT_TRUE(factory.CreateBackend(0, "invalidate", &backend).ok());
  std::unique_ptr<RmwState> state;
  ASSERT_TRUE(backend->CreateRmw(RmwSpec("invalidate"), &state).ok());
  const Window w(0, 1000);
  ASSERT_TRUE(state->Put("k", w, "v1").ok());

  std::string value;
  int64_t hits = CounterValue(backend.get(), "remote.rmw_cache_hits");
  ASSERT_TRUE(state->Get("k", w, &value).ok());
  EXPECT_EQ(value, "v1");
  EXPECT_EQ(CounterValue(backend.get(), "remote.rmw_cache_hits") - hits, 1);

  // No replay buffer: the outage surfaces as an error from the Put.
  SocketFaultPlan outage;
  outage.reset_on_send_prob = 1.0;
  outage.connect_refuse_prob = 1.0;
  faults_->SetPlan(outage);
  EXPECT_FALSE(state->Put("k", w, "v2").ok());
  faults_->ClearFaults();

  hits = CounterValue(backend.get(), "remote.rmw_cache_hits");
  const int64_t misses = CounterValue(backend.get(), "remote.rmw_cache_misses");
  ASSERT_TRUE(state->Get("k", w, &value).ok());
  EXPECT_EQ(value, "v1") << "the failed put must not have reached the server";
  EXPECT_EQ(CounterValue(backend.get(), "remote.rmw_cache_hits") - hits, 0);
  EXPECT_EQ(CounterValue(backend.get(), "remote.rmw_cache_misses") - misses, 1);
}

// ---------------------------------------------------------------------------
// Prefetch × failover: kill the primary while pushed window chunks sit in
// the client's read-ahead cache. The reconnect must clear the cache BEFORE
// anything replays against the standby — the pre-kill pushes describe the
// dead primary's shadow state and must never short-circuit a read — and the
// fresh connection must re-negotiate pushes so prefetch resumes on the
// promoted standby.

OperatorStateSpec AarSpec(const std::string& name) {
  OperatorStateSpec spec;
  spec.name = name;
  spec.window_kind = WindowKind::kTumbling;
  spec.incremental = false;
  spec.window_size_ms = 1000;
  return spec;
}

TEST(PrefetchFailoverChaosTest, PrimaryKilledWithPushesInFlight) {
  const std::string dir = MakeTempDir("chaos_prefetch");
  std::unique_ptr<net::Server> primary;
  std::unique_ptr<net::Server> standby;
  std::unique_ptr<net::ReplicaPuller> puller;

  net::ServerOptions popts;
  popts.num_shards = 2;
  popts.data_dir = JoinPath(dir, "primary_data");
  popts.checkpoint_dir = JoinPath(dir, "primary_ckpt");
  ASSERT_TRUE(net::Server::Start(popts, &primary).ok());
  net::ServerOptions sopts;
  sopts.num_shards = 2;
  sopts.data_dir = JoinPath(dir, "standby_data");
  sopts.checkpoint_dir = JoinPath(dir, "standby_ckpt");
  ASSERT_TRUE(net::Server::Start(sopts, &standby).ok());

  net::ReplicaOptions ropts;
  ropts.primary_port = primary->port();
  ropts.self_port = standby->port();
  ropts.snapshot_dir = JoinPath(dir, "standby_snapshot");
  ASSERT_TRUE(net::ReplicaPuller::Start(ropts, &puller).ok());
  for (int i = 0; i < 200 && !puller->snapshot_loaded(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(puller->snapshot_loaded()) << "standby never restored a snapshot";

  net::ClientOptions copts;
  copts.port = primary->port();
  copts.standbys = {{"127.0.0.1", standby->port()}};
  copts.request_timeout_ms = 60'000;
  copts.max_retries = 8;
  copts.max_reconnect_attempts = 8;
  copts.reconnect_backoff_ms = 10;
  copts.reconnect_backoff_max_ms = 200;
  copts.jitter_seed = 11;
  copts.enable_prefetch_push = true;
  std::unique_ptr<net::Client> client;
  ASSERT_TRUE(net::Client::Connect(copts, &client).ok());
  ASSERT_TRUE(client->push_negotiated());

  uint64_t h = 0;
  ASSERT_TRUE(client->OpenStore("chaos.pf.h0", AarSpec("pf"), &h, nullptr).ok());
  const Window w0(0, 1000);
  const Window w1(1000, 2000);
  std::vector<std::pair<std::string, std::string>> expected;
  for (int i = 0; i < 8; ++i) {
    const std::string key = "k" + std::to_string(i % 4);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(client->AppendAligned(h, key, value, w0).ok());
    expected.emplace_back(key, value);
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client->AppendAligned(h, "k" + std::to_string(i), "next", w1).ok());
  }
  // Acked flush: w0's pushes are banked in the cache and (synchronous
  // replication) every append is on the standby.
  ASSERT_TRUE(client->Flush().ok());

  primary->Stop();  // hard kill, pushed chunks still cached client-side

  // The next call fails over; the reconnect must clear the cache first and
  // re-register on the standby.
  ASSERT_TRUE(client->Ping().ok());
  EXPECT_EQ(client->endpoint_index(), 1u);
  EXPECT_TRUE(client->push_negotiated());
  EXPECT_EQ(client->cache_bytes(), 0u);

  std::vector<std::pair<std::string, std::string>> got;
  bool done = false;
  while (!done) {
    std::vector<WindowChunkEntry> chunk;
    ASSERT_TRUE(client->GetWindowChunk(h, w0, &chunk, &done).ok());
    for (const WindowChunkEntry& e : chunk) {
      for (const std::string& v : e.values) {
        got.emplace_back(e.key, v);
      }
    }
  }
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected) << "standby is missing acked appends";
  EXPECT_EQ(client->cache_counters().hits, 0)
      << "a pre-kill push was served after failover";
  EXPECT_GE(client->cache_counters().misses, 1);

  // Prefetch works again on the promoted standby: the same dance now hits.
  const Window w2(2000, 3000);
  const Window w3(3000, 4000);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client->AppendAligned(h, "k" + std::to_string(i), "late", w2).ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client->AppendAligned(h, "k" + std::to_string(i), "later", w3).ok());
  }
  ASSERT_TRUE(client->Flush().ok());
  done = false;
  int values = 0;
  while (!done) {
    std::vector<WindowChunkEntry> chunk;
    ASSERT_TRUE(client->GetWindowChunk(h, w2, &chunk, &done).ok());
    for (const WindowChunkEntry& e : chunk) {
      values += static_cast<int>(e.values.size());
    }
  }
  EXPECT_EQ(values, 4);
  EXPECT_EQ(client->cache_counters().hits, 1)
      << "push registration did not survive failover";

  client.reset();
  puller->Stop();
  standby->Stop();
  RemoveDirRecursively(dir).IgnoreError();
}

// ---------------------------------------------------------------------------
// S2: SIGTERM-drain checkpoint crash sweep.
//
// Epoch 1 commits cleanly; then a crash is armed at sync point N of the
// second drain checkpoint, for every N until a run completes uncrashed.
// Invariant: the restarted server always serves epoch 1's batch, and serves
// the second batch exactly when the second drain reported success.

class DrainCrashSweepTest : public ::testing::Test {
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

TEST_F(DrainCrashSweepTest, DrainCheckpointSurvivesCrashAtEverySyncPoint) {
  constexpr int kKeysPerBatch = 16;
  const Window w(0, 1000);
  const auto key = [](int batch, int i) {
    return "b" + std::to_string(batch) + "_k" + std::to_string(i);
  };

  for (uint64_t crash_point = 1;; ++crash_point) {
    const std::string dir = TempDir("drain_crash");
    net::ServerOptions options;
    options.num_shards = 2;
    options.data_dir = JoinPath(dir, "data");
    options.checkpoint_dir = JoinPath(dir, "ckpt");
    fs_->ResetTracking();

    // Batch 1 + clean drain: epoch 1 commits.
    {
      std::unique_ptr<net::Server> server;
      ASSERT_TRUE(net::Server::Start(options, &server).ok());
      net::ClientOptions copts;
      copts.port = server->port();
      std::unique_ptr<net::Client> client;
      ASSERT_TRUE(net::Client::Connect(copts, &client).ok());
      uint64_t handle = 0;
      StorePattern pattern;
      ASSERT_TRUE(client->OpenStore("sweep.h0", RmwSpec("sweep"), &handle, &pattern).ok());
      for (int i = 0; i < kKeysPerBatch; ++i) {
        ASSERT_TRUE(client->RmwPut(handle, key(1, i), w, "v1").ok());
      }
      ASSERT_TRUE(client->Flush().ok());
      client.reset();  // the drain below flushes outboxes faster with no peer
      ASSERT_TRUE(server->DrainAndStop().ok());
    }

    // Batch 2, then a drain with the crash armed at `crash_point`.
    bool second_drain_ok = false;
    {
      std::unique_ptr<net::Server> server;
      ASSERT_TRUE(net::Server::Start(options, &server).ok());
      net::ClientOptions copts;
      copts.port = server->port();
      std::unique_ptr<net::Client> client;
      ASSERT_TRUE(net::Client::Connect(copts, &client).ok());
      uint64_t handle = 0;
      StorePattern pattern;
      ASSERT_TRUE(client->OpenStore("sweep.h0", RmwSpec("sweep"), &handle, &pattern).ok());
      for (int i = 0; i < kKeysPerBatch; ++i) {
        ASSERT_TRUE(client->RmwPut(handle, key(2, i), w, "v2").ok());
      }
      ASSERT_TRUE(client->Flush().ok());
      client.reset();
      fs_->ResetTracking();
      fs_->CrashAtSyncPoint(crash_point);
      second_drain_ok = server->DrainAndStop().ok();
    }
    const bool crashed = fs_->crashed();
    if (crashed) {
      ASSERT_TRUE(fs_->RestoreCrashImage().ok());
    } else {
      fs_->ResetTracking();
    }

    // Restart on the crash image: the server must come back, with batch 1
    // always present and batch 2 present iff its drain was acknowledged.
    {
      std::unique_ptr<net::Server> server;
      const Status restarted = net::Server::Start(options, &server);
      ASSERT_TRUE(restarted.ok())
          << "crash point " << crash_point << ": " << restarted.ToString();
      net::ClientOptions copts;
      copts.port = server->port();
      std::unique_ptr<net::Client> client;
      ASSERT_TRUE(net::Client::Connect(copts, &client).ok());
      uint64_t handle = 0;
      StorePattern pattern;
      ASSERT_TRUE(client->OpenStore("sweep.h0", RmwSpec("sweep"), &handle, &pattern).ok());
      std::string value;
      for (int i = 0; i < kKeysPerBatch; ++i) {
        ASSERT_TRUE(client->RmwGet(handle, key(1, i), w, &value).ok())
            << "crash point " << crash_point << " lost committed key " << key(1, i);
        EXPECT_EQ(value, "v1");
      }
      if (second_drain_ok) {
        for (int i = 0; i < kKeysPerBatch; ++i) {
          ASSERT_TRUE(client->RmwGet(handle, key(2, i), w, &value).ok())
              << "crash point " << crash_point << " lost acked drain key " << key(2, i);
          EXPECT_EQ(value, "v2");
        }
      }
      client.reset();
      server->Stop();
    }

    if (!crashed) {
      break;  // the armed point was past the drain's last sync: sweep done
    }
  }
}

}  // namespace
}  // namespace flowkv
