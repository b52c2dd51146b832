// Primary → standby replication and client failover. A second flowkv_server
// runs as a hot standby (ReplicaPuller: snapshot shipping + sequenced op
// forwarding, src/net/replica.h); clients list it in
// ClientOptions::standbys. Because replication is synchronous — the primary
// parks a response until the standby acked the sequence carrying its ops —
// an acknowledged write must survive killing the primary at any moment, and
// a NEXMark query that loses its primary mid-run must still produce results
// identical to the embedded reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/backends/flowkv_backend.h"
#include "src/backends/remote_backend.h"
#include "src/common/env.h"
#include "src/net/client.h"
#include "src/net/replica.h"
#include "src/net/server.h"
#include "src/nexmark/generator.h"
#include "src/nexmark/queries.h"
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

// Runs `query`, optionally hard-killing `kill_server` after `kill_at_event`
// events have been processed (0 = never kill).
RunOutcome RunQuery(const std::string& query, StateBackendFactory* factory,
                    const NexmarkConfig& nexmark, const QueryParams& params,
                    int kill_at_event = 0, net::Server* kill_server = nullptr) {
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
    if (kill_server != nullptr && ++processed == kill_at_event) {
      kill_server->Stop();  // mid-query hard kill: no drain, no checkpoint
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

class NetFailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir("net_failover");

    net::ServerOptions popts;
    popts.num_shards = 2;
    popts.data_dir = JoinPath(dir_, "primary_data");
    popts.checkpoint_dir = JoinPath(dir_, "primary_ckpt");
    ASSERT_TRUE(net::Server::Start(popts, &primary_).ok());

    net::ServerOptions sopts;
    sopts.num_shards = 2;
    sopts.data_dir = JoinPath(dir_, "standby_data");
    sopts.checkpoint_dir = JoinPath(dir_, "standby_ckpt");
    ASSERT_TRUE(net::Server::Start(sopts, &standby_).ok());
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

  // Subscribes the standby to the primary and waits for the initial snapshot
  // to land, so every later acked write is covered by forwarding.
  void StartPuller() {
    net::ReplicaOptions ropts;
    ropts.primary_port = primary_->port();
    ropts.self_port = standby_->port();
    ropts.snapshot_dir = JoinPath(dir_, "standby_snapshot");
    ASSERT_TRUE(net::ReplicaPuller::Start(ropts, &puller_).ok());
    for (int i = 0; i < 200 && !puller_->snapshot_loaded(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_TRUE(puller_->snapshot_loaded()) << "standby never restored a snapshot";
  }

  net::ClientOptions FailoverOptions() {
    net::ClientOptions copts;
    copts.port = primary_->port();
    copts.standbys = {{"127.0.0.1", standby_->port()}};
    copts.request_timeout_ms = 60'000;
    copts.max_retries = 8;
    copts.max_reconnect_attempts = 8;
    copts.reconnect_backoff_ms = 10;
    copts.reconnect_backoff_max_ms = 200;
    copts.jitter_seed = 11;
    return copts;
  }

  std::unique_ptr<net::Client> ClientTo(int port) {
    net::ClientOptions copts;
    copts.port = port;
    std::unique_ptr<net::Client> client;
    EXPECT_TRUE(net::Client::Connect(copts, &client).ok());
    return client;
  }

  std::string dir_;
  std::unique_ptr<net::Server> primary_;
  std::unique_ptr<net::Server> standby_;
  std::unique_ptr<net::ReplicaPuller> puller_;
};

// State written before the standby ever subscribed arrives via the shipped
// snapshot (a fresh barrier checkpoint), not the forward log.
TEST_F(NetFailoverTest, SnapshotShipsPreexistingState) {
  const Window w(0, 1000);
  {
    std::unique_ptr<net::Client> client = ClientTo(primary_->port());
    ASSERT_NE(client, nullptr);
    uint64_t handle = 0;
    StorePattern pattern;
    ASSERT_TRUE(client->OpenStore("repl.pre.h0", RmwSpec("pre"), &handle, &pattern).ok());
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(client->RmwPut(handle, "k" + std::to_string(i), w, "v").ok());
    }
    ASSERT_TRUE(client->Flush().ok());
  }

  StartPuller();

  std::unique_ptr<net::Client> reader = ClientTo(standby_->port());
  ASSERT_NE(reader, nullptr);
  uint64_t handle = 0;
  StorePattern pattern;
  ASSERT_TRUE(reader->OpenStore("repl.pre.h0", RmwSpec("pre"), &handle, &pattern).ok());
  std::string value;
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(reader->RmwGet(handle, "k" + std::to_string(i), w, &value).ok())
        << "snapshot lost k" << i;
    EXPECT_EQ(value, "v");
  }
}

// Synchronous forwarding: once the primary acks a write, it is already
// applied on the standby — readable there without any settling delay.
TEST_F(NetFailoverTest, AckedWritesAreOnTheStandbyImmediately) {
  StartPuller();
  const Window w(0, 1000);

  std::unique_ptr<net::Client> writer = ClientTo(primary_->port());
  ASSERT_NE(writer, nullptr);
  uint64_t handle = 0;
  StorePattern pattern;
  ASSERT_TRUE(writer->OpenStore("repl.fwd.h0", RmwSpec("fwd"), &handle, &pattern).ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(writer->RmwPut(handle, "k" + std::to_string(i), w, "v").ok());
  }
  ASSERT_TRUE(writer->Flush().ok());  // returns only after the standby acked

  std::unique_ptr<net::Client> reader = ClientTo(standby_->port());
  ASSERT_NE(reader, nullptr);
  uint64_t rhandle = 0;
  ASSERT_TRUE(reader->OpenStore("repl.fwd.h0", RmwSpec("fwd"), &rhandle, &pattern).ok());
  std::string value;
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(reader->RmwGet(rhandle, "k" + std::to_string(i), w, &value).ok())
        << "acked write k" << i << " missing on standby";
    EXPECT_EQ(value, "v");
  }
}

// Kill the primary between two batches: the client fails over to the
// standby, re-opens its stores, and every acked write is still there.
TEST_F(NetFailoverTest, FailoverPreservesAckedWrites) {
  StartPuller();
  const Window w(0, 1000);

  std::unique_ptr<net::Client> client;
  ASSERT_TRUE(net::Client::Connect(FailoverOptions(), &client).ok());
  uint64_t handle = 0;
  StorePattern pattern;
  ASSERT_TRUE(client->OpenStore("repl.fo.h0", RmwSpec("fo"), &handle, &pattern).ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(client->RmwPut(handle, "a" + std::to_string(i), w, "va").ok());
  }
  ASSERT_TRUE(client->Flush().ok());

  primary_->Stop();  // hard kill, no drain

  // The same client keeps working: writes and reads fail over transparently.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(client->RmwPut(handle, "b" + std::to_string(i), w, "vb").ok());
  }
  const Status flushed = client->Flush();
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();
  EXPECT_EQ(client->endpoint_index(), 1u) << "client should be on the standby";

  std::string value;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(client->RmwGet(handle, "a" + std::to_string(i), w, &value).ok())
        << "acked pre-kill write a" << i << " lost in failover";
    EXPECT_EQ(value, "va");
    ASSERT_TRUE(client->RmwGet(handle, "b" + std::to_string(i), w, &value).ok());
    EXPECT_EQ(value, "vb");
  }
}

// The acceptance bar from the issue: a NEXMark query whose primary dies
// mid-run must match the embedded reference exactly. RMW-only queries (q5,
// q12) — idempotent Puts make the at-least-once replay of the in-flight
// batch converge to the exact same state on the standby.
class FailoverEquivalenceTest : public NetFailoverTest,
                                public ::testing::WithParamInterface<std::string> {};

TEST_P(FailoverEquivalenceTest, NexmarkMatchesEmbeddedAcrossPrimaryKill) {
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

  StartPuller();
  RemoteBackendFactory remote(FailoverOptions());
  RunOutcome remote_run = RunQuery(query, &remote, nexmark, params,
                                   /*kill_at_event=*/2'000, primary_.get());
  ASSERT_TRUE(remote_run.status.ok()) << remote_run.status.ToString();
  EXPECT_EQ(remote_run.results.size(), reference.results.size());
  EXPECT_EQ(remote_run.results, reference.results)
      << query << " diverged after failing over mid-query";
}

INSTANTIATE_TEST_SUITE_P(RmwQueries, FailoverEquivalenceTest,
                         ::testing::Values("q5", "q12"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace flowkv
