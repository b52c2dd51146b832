// Loopback server/client integration: a real flowkv_server::net::Server on
// 127.0.0.1 exercised through the blocking client across all three store
// patterns, multi-chunk window drains, write batching, reads carrying the
// pending writes, store placement on the opening connection's reactor,
// long fields pipelined across reactors, server-side metrics, error
// passthrough, timeouts, oversized-frame protection, refusal of a foreign
// wire version on both sides, server pushes read inline ahead of a response
// (scripted peers), and the graceful drain → checkpoint → restart → resume
// cycle (no acknowledged state lost, whatever the restarted shard count).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/coding.h"
#include "src/common/env.h"
#include "src/flowkv/flowkv_store.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "tools/stat_format.h"

namespace flowkv {
namespace net {
namespace {

OperatorStateSpec RmwSpec(const std::string& name) {
  OperatorStateSpec spec;
  spec.name = name;
  spec.window_kind = WindowKind::kTumbling;
  spec.incremental = true;
  spec.window_size_ms = 1000;
  return spec;
}

OperatorStateSpec AarSpec(const std::string& name) {
  OperatorStateSpec spec;
  spec.name = name;
  spec.window_kind = WindowKind::kTumbling;
  spec.incremental = false;
  spec.window_size_ms = 1000;
  return spec;
}

OperatorStateSpec AurSpec(const std::string& name) {
  OperatorStateSpec spec;
  spec.name = name;
  spec.window_kind = WindowKind::kSession;
  spec.incremental = false;
  spec.session_gap_ms = 500;
  return spec;
}

// The kStats document of the server `client` is connected to.
tools::JsonValue FetchStats(Client* client) {
  std::string json;
  EXPECT_TRUE(client->Stats(&json).ok());
  tools::JsonValue doc;
  EXPECT_TRUE(tools::ParseJson(json, &doc)) << json;
  return doc;
}

// A per-shard counter from kStats, in shard order.
std::vector<int64_t> ShardCounter(const tools::JsonValue& stats, const std::string& field) {
  std::vector<int64_t> values;
  if (const tools::JsonValue* shards = stats.Get("shards")) {
    for (const tools::JsonValue& shard : shards->arr) {
      values.push_back(static_cast<int64_t>(shard.Num(field)));
    }
  }
  return values;
}

int64_t TotalShardOps(const tools::JsonValue& stats) {
  int64_t ops = 0;
  for (const int64_t v : ShardCounter(stats, "ops")) ops += v;
  return ops;
}

class NetLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir("net_loopback");
    // A store lives on the reactor whose connection opened it, so stores
    // opened on consecutive connections sit on different reactors.
    options_.num_shards = 3;
    options_.data_dir = JoinPath(dir_, "data");
    options_.checkpoint_dir = JoinPath(dir_, "ckpt");
    options_.drain_grace_ms = 5000;
    ASSERT_TRUE(Server::Start(options_, &server_).ok());
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
    }
    RemoveDirRecursively(dir_).IgnoreError();
  }

  std::unique_ptr<Client> MakeClient() {
    ClientOptions copts;
    copts.port = server_->port();
    copts.request_timeout_ms = 20'000;
    std::unique_ptr<Client> client;
    EXPECT_TRUE(Client::Connect(copts, &client).ok());
    return client;
  }

  std::string dir_;
  ServerOptions options_;
  std::unique_ptr<Server> server_;
};

TEST_F(NetLoopbackTest, PingAndUnknownStore) {
  auto client = MakeClient();
  ASSERT_TRUE(client->Ping().ok());

  // An unregistered handle is rejected client-side.
  std::string acc;
  EXPECT_FALSE(client->RmwGet(99, "k", Window(0, 1000), &acc).ok());
}

TEST_F(NetLoopbackTest, OpsThatAreNeverRequestsAreRefusedPerOp) {
  // Replication frames, the server-push frame, and kReplicaSubscribe inside
  // a batch are refused op by op; the rest of the batch and the connection
  // carry on.
  auto client = MakeClient();
  std::vector<OpRequest> ops(5);
  ops[0].type = OpType::kPing;
  ops[1].type = OpType::kSnapshotFile;
  ops[2].type = OpType::kSnapshotDone;
  ops[3].type = OpType::kPushChunk;
  ops[4].type = OpType::kReplicaSubscribe;
  std::vector<OpResult> results;
  ASSERT_TRUE(client->ExecuteRaw(ops, &results).ok());
  ASSERT_EQ(results.size(), ops.size());
  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].type, ops[i].type);
    EXPECT_EQ(results[i].status.code(), StatusCode::kInvalidArgument)
        << OpTypeName(ops[i].type) << ": " << results[i].status.ToString();
  }
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(NetLoopbackTest, RmwPutGetRemove) {
  auto client = MakeClient();
  uint64_t h = 0;
  StorePattern pattern;
  ASSERT_TRUE(client->OpenStore("t.rmw.h0", RmwSpec("rmw-op"), &h, &pattern).ok());
  EXPECT_EQ(pattern, StorePattern::kReadModifyWrite);

  const Window w(0, 1000);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(client->RmwPut(h, key, w, "acc" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(client->Flush().ok());

  for (int i = 0; i < 200; ++i) {
    std::string acc;
    ASSERT_TRUE(client->RmwGet(h, "key" + std::to_string(i), w, &acc).ok());
    EXPECT_EQ(acc, "acc" + std::to_string(i));
  }

  // NotFound passes through the wire as a status, not a failure.
  std::string acc;
  const Status miss = client->RmwGet(h, "nope", w, &acc);
  EXPECT_TRUE(miss.IsNotFound()) << miss.ToString();

  ASSERT_TRUE(client->RmwRemove(h, "key7", w).ok());
  ASSERT_TRUE(client->Flush().ok());
  EXPECT_TRUE(client->RmwGet(h, "key7", w, &acc).IsNotFound());

  // Overwrite keeps the latest value (write order preserved through batching).
  ASSERT_TRUE(client->RmwPut(h, "key3", w, "v1").ok());
  ASSERT_TRUE(client->RmwPut(h, "key3", w, "v2").ok());
  ASSERT_TRUE(client->RmwGet(h, "key3", w, &acc).ok());
  EXPECT_EQ(acc, "v2");
}

TEST_F(NetLoopbackTest, AarAppendAndMultiChunkDrain) {
  auto client = MakeClient();
  uint64_t h = 0;
  StorePattern pattern;
  ASSERT_TRUE(client->OpenStore("t.aar.h0", AarSpec("aar-op"), &h, &pattern).ok());
  EXPECT_EQ(pattern, StorePattern::kAppendAligned);

  const Window w(0, 1000);
  std::map<std::string, std::vector<std::string>> expected;
  for (int i = 0; i < 300; ++i) {
    const std::string key = "k" + std::to_string(i % 60);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(client->AppendAligned(h, key, value, w).ok());
    expected[key].push_back(value);
  }
  ASSERT_TRUE(client->Flush().ok());

  // Drain the window: the store's one shard hands it back in chunks, one
  // store partition (FlowKvOptions::num_partitions, 2 by default) at a time.
  std::map<std::string, std::vector<std::string>> got;
  int chunks = 0;
  int data_chunks = 0;
  while (true) {
    std::vector<WindowChunkEntry> chunk;
    bool done = false;
    ASSERT_TRUE(client->GetWindowChunk(h, w, &chunk, &done).ok());
    for (auto& entry : chunk) {
      auto& dst = got[entry.key];
      dst.insert(dst.end(), entry.values.begin(), entry.values.end());
    }
    ++chunks;
    data_chunks += chunk.empty() ? 0 : 1;
    if (done) break;
    ASSERT_LT(chunks, 10'000) << "drain did not terminate";
  }
  // Per-key append order is preserved; key order is not.
  EXPECT_EQ(got, expected);
  EXPECT_GE(data_chunks, 2) << "60 keys over 2 partitions drain in at least 2 chunks";
  // Every append and every chunk ran on one shard.
  const std::vector<int64_t> ops = ShardCounter(FetchStats(client.get()), "ops");
  EXPECT_EQ(std::count_if(ops.begin(), ops.end(), [](int64_t v) { return v > 0; }), 1);

  // A second drain sees nothing: the read was fetch-and-remove.
  std::vector<WindowChunkEntry> chunk;
  bool done = false;
  ASSERT_TRUE(client->GetWindowChunk(h, w, &chunk, &done).ok());
  EXPECT_TRUE(done);
  EXPECT_TRUE(chunk.empty());
}

TEST_F(NetLoopbackTest, AurAppendGetMerge) {
  auto client = MakeClient();
  uint64_t h = 0;
  StorePattern pattern;
  ASSERT_TRUE(client->OpenStore("t.aur.h0", AurSpec("aur-op"), &h, &pattern).ok());
  EXPECT_EQ(pattern, StorePattern::kAppendUnaligned);

  const Window w1(0, 500);
  const Window w2(700, 1200);
  const Window merged(0, 1200);
  ASSERT_TRUE(client->AppendUnaligned(h, "user1", "a", w1, 10).ok());
  ASSERT_TRUE(client->AppendUnaligned(h, "user1", "b", w1, 20).ok());
  ASSERT_TRUE(client->AppendUnaligned(h, "user1", "c", w2, 710).ok());
  ASSERT_TRUE(client->MergeWindows(h, "user1", {w1, w2}, merged).ok());

  std::vector<std::string> values;
  ASSERT_TRUE(client->GetUnaligned(h, "user1", merged, &values).ok());
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<std::string>{"a", "b", "c"}));
}

// A read carries the pending write batch in its own frame, checked through
// the server's kStats counters.
class NetPiggybackTest : public NetLoopbackTest {
 protected:
  // Server-wide request count and per-shard op counts from kStats. The
  // kStats request itself counts as one request.
  struct Counts {
    int64_t requests = 0;
    std::vector<int64_t> shard_ops;
  };
  static Counts FetchCounts(Client* client) {
    Counts counts;
    std::string json;
    EXPECT_TRUE(client->Stats(&json).ok());
    tools::JsonValue doc;
    EXPECT_TRUE(tools::ParseJson(json, &doc)) << json;
    const tools::JsonValue* server = doc.Get("server");
    const tools::JsonValue* shards = doc.Get("shards");
    EXPECT_NE(server, nullptr);
    EXPECT_NE(shards, nullptr);
    if (server != nullptr && shards != nullptr) {
      counts.requests = static_cast<int64_t>(server->Num("requests"));
      counts.shard_ops = ShardCounter(doc, "ops");
    }
    return counts;
  }
};

TEST_F(NetPiggybackTest, ReadCarriesBufferedWritesInOneRequest) {
  // Two stores on two reactors: each is opened first by a connection of its
  // own, so it lives on a shard of that connection's reactor.
  auto client = MakeClient();
  auto other = MakeClient();
  uint64_t h = 0;
  uint64_t far = 0;
  ASSERT_TRUE(client->OpenStore("t.piggy.h0", RmwSpec("piggy-op"), &h, nullptr).ok());
  ASSERT_TRUE(other->OpenStore("t.piggy.h1", RmwSpec("piggy-far"), &far, nullptr).ok());
  ASSERT_TRUE(client->OpenStore("t.piggy.h1", RmwSpec("piggy-far"), &far, nullptr).ok());
  const Window w(0, 1000);

  const Counts before = FetchCounts(client.get());
  for (int i = 0; i < 24; ++i) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(client->RmwPut(h, key, w, "v" + std::to_string(i)).ok());
    ASSERT_TRUE(client->RmwPut(far, key, w, "f" + std::to_string(i)).ok());
  }
  std::string acc;
  ASSERT_TRUE(client->RmwGet(h, "key0", w, &acc).ok());
  EXPECT_EQ(acc, "v0");
  const Counts after = FetchCounts(client.get());
  // The read and the second kStats: the 48 puts rode the read's frame.
  EXPECT_EQ(after.requests - before.requests, 2);
  ASSERT_EQ(after.shard_ops.size(), 3u);
  int shards_written = 0;
  for (size_t s = 0; s < after.shard_ops.size(); ++s) {
    shards_written += after.shard_ops[s] > before.shard_ops[s] ? 1 : 0;
  }
  EXPECT_EQ(shards_written, 2) << "the batch should run on both stores' shards";
  ASSERT_TRUE(client->RmwGet(far, "key7", w, &acc).ok());
  EXPECT_EQ(acc, "f7");

  // Read-your-writes in one frame.
  const Counts before_rw = FetchCounts(client.get());
  for (int i = 0; i < 24; ++i) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(client->RmwPut(h, key, w, "w" + std::to_string(i)).ok());
    ASSERT_TRUE(client->RmwGet(h, key, w, &acc).ok());
    EXPECT_EQ(acc, "w" + std::to_string(i));
  }
  EXPECT_EQ(FetchCounts(client.get()).requests - before_rw.requests, 24 + 1);
}

TEST_F(NetPiggybackTest, FailedWriteSurfacesFromTheRead) {
  auto client = MakeClient();
  uint64_t rmw = 0;
  uint64_t aar = 0;
  ASSERT_TRUE(client->OpenStore("t.piggyfail.h0", RmwSpec("piggy-rmw"), &rmw, nullptr).ok());
  ASSERT_TRUE(client->OpenStore("t.piggyfail.h1", AarSpec("piggy-aar"), &aar, nullptr).ok());
  const Window w(0, 1000);

  // An RMW put against an AAR store is refused by the server, but only when
  // it executes: buffering it succeeds.
  ASSERT_TRUE(client->RmwPut(aar, "k", w, "v").ok());
  ASSERT_TRUE(client->RmwPut(rmw, "good", w, "g").ok());
  std::string acc;
  const Status read = client->RmwGet(rmw, "good", w, &acc);
  EXPECT_EQ(read.code(), StatusCode::kFailedPrecondition) << read.ToString();

  // The frame executed: the good write landed and the batch is not re-sent.
  ASSERT_TRUE(client->RmwGet(rmw, "good", w, &acc).ok());
  EXPECT_EQ(acc, "g");
}

TEST_F(NetPiggybackTest, BadReadHandleKeepsPendingWrites) {
  auto client = MakeClient();
  uint64_t h = 0;
  ASSERT_TRUE(client->OpenStore("t.piggybad.h0", RmwSpec("piggy-bad"), &h, nullptr).ok());
  const Window w(0, 1000);
  ASSERT_TRUE(client->RmwPut(h, "k", w, "v").ok());
  std::string acc;
  EXPECT_EQ(client->RmwGet(h + 99, "k", w, &acc).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(client->RmwGet(h, "k", w, &acc).ok());
  EXPECT_EQ(acc, "v");
}

TEST_F(NetLoopbackTest, ServerMetricsAreLabeled) {
  auto client = MakeClient();
  uint64_t h = 0;
  ASSERT_TRUE(client->OpenStore("t.metrics.h0", RmwSpec("metered-op"), &h, nullptr).ok());
  ASSERT_TRUE(client->RmwPut(h, "k", Window(0, 1000), "v").ok());
  ASSERT_TRUE(client->Flush().ok());

  // Server-side request metrics carry the per-operator label (satellite:
  // per-operator labels in src/obs).
  bool found_shard_ops = false;
  for (const auto& sample : server_->metrics().Snapshot()) {
    if (sample.name == "shard.ops" && sample.labels.op == "metered-op" &&
        sample.value > 0) {
      found_shard_ops = true;
    }
  }
  EXPECT_TRUE(found_shard_ops) << "no per-operator shard.ops sample";

  bool found_latency_hist = false;
  for (const auto& hist : server_->metrics().HistogramSnapshots()) {
    if (hist.name == "server.request_latency_ms" && hist.count > 0) {
      found_latency_hist = true;
      EXPECT_GE(hist.p99, hist.p50);
    }
  }
  EXPECT_TRUE(found_latency_hist) << "no request-latency histogram snapshot";
}

// Sends 200 puts to the server `client` is connected to.
void PutTraffic(Client* client) {
  uint64_t h = 0;
  ASSERT_TRUE(client->OpenStore("t.traffic.h0", RmwSpec("traffic-op"), &h, nullptr).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client->RmwPut(h, "k" + std::to_string(i), Window(0, 1000), "v").ok());
  }
  ASSERT_TRUE(client->Flush().ok());
}

// Every instrument in a live server's registry appears in its kStats
// document under the <block>.<field> naming rule, and every key the stats
// tools, the benches and perfbench read is still there.
TEST_F(NetLoopbackTest, StatsCoverEveryInstrument) {
  auto client = MakeClient();
  uint64_t h = 0;
  ASSERT_TRUE(client->OpenStore("t.cover.h0", RmwSpec("cover-op"), &h, nullptr).ok());
  ASSERT_TRUE(client->RmwPut(h, "k", Window(0, 1000), "v").ok());
  std::string acc;
  ASSERT_TRUE(client->RmwGet(h, "k", Window(0, 1000), &acc).ok());

  const tools::JsonValue doc = FetchStats(client.get());
  const tools::JsonValue* shards = doc.Get("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->arr.size(), static_cast<size_t>(options_.num_shards));
  auto find = [&](const std::string& name, int worker) -> const tools::JsonValue* {
    const size_t dot = name.find('.');
    const std::string field = name.substr(dot + 1);
    if (name.compare(0, dot, "shard") == 0) {
      return worker >= 0 && static_cast<size_t>(worker) < shards->arr.size()
                 ? shards->arr[static_cast<size_t>(worker)].Get(field)
                 : nullptr;
    }
    const tools::JsonValue* block = doc.Get(name.substr(0, dot));
    return block != nullptr ? block->Get(field) : nullptr;
  };
  for (const obs::MetricSample& m : server_->metrics().Snapshot()) {
    const tools::JsonValue* v = find(m.name, m.labels.worker);
    EXPECT_TRUE(v != nullptr && v->kind == tools::JsonValue::Kind::kNumber) << m.name;
  }
  for (const obs::HistogramSample& hist : server_->metrics().HistogramSnapshots()) {
    const tools::JsonValue* v = find(hist.name, hist.labels.worker);
    ASSERT_NE(v, nullptr) << hist.name;
    if (v->kind == tools::JsonValue::Kind::kArray) {  // per-operator, in a shard
      bool found = false;
      for (const tools::JsonValue& entry : v->arr) {
        found |= entry.Str("op") == hist.labels.op && entry.Get("p99") != nullptr;
      }
      EXPECT_TRUE(found) << hist.name << " op=" << hist.labels.op;
    } else {
      EXPECT_NE(v->Get("p99"), nullptr) << hist.name;
    }
  }

  const std::vector<std::pair<std::string, std::vector<std::string>>> golden = {
      {"server",
       {"num_shards", "requests", "req_per_sec", "bytes_in", "bytes_out", "open_conns",
        "pending_requests", "shed_overload", "shed_deadline", "protocol_errors"}},
      {"cluster", {"role", "epoch", "lease_ms", "priority", "fenced_rejects"}},
      {"replication", {"subscribed", "lag", "parked", "heartbeat_age_ms"}},
      {"prefetch",
       {"enabled", "registrations", "fired", "fired_entries", "fired_bytes", "invalidated",
        "overflow", "waste", "shadow_bytes", "pushes_sent", "pushes_dropped"}},
      {"trace", {"enabled", "events", "dropped"}},
  };
  for (const auto& [block_name, keys] : golden) {
    const tools::JsonValue* block = doc.Get(block_name);
    ASSERT_NE(block, nullptr) << block_name;
    for (const std::string& key : keys) {
      EXPECT_NE(block->Get(key), nullptr) << block_name << "." << key;
    }
  }
  const tools::JsonValue* latency = doc.Get("server")->Get("request_latency_ms");
  ASSERT_NE(latency, nullptr);
  for (const char* key : {"count", "p50", "p95", "p99", "max"}) {
    EXPECT_NE(latency->Get(key), nullptr) << "request_latency_ms." << key;
  }
  for (const char* key : {"window_s", "slow_threshold_ms", "slow_requests"}) {
    EXPECT_NE(doc.Get(key), nullptr) << key;
  }
  for (const tools::JsonValue& shard : shards->arr) {
    for (const char* key : {"shard", "queue_depth", "ops", "ops_per_sec", "op_latency_ms"}) {
      EXPECT_NE(shard.Get(key), nullptr) << "shards[]." << key;
    }
  }
}

// Two servers in one process count into their own instruments: traffic to
// one never shows up in the other's kStats.
TEST_F(NetLoopbackTest, TwoServersKeepSeparateCounters) {
  ServerOptions other_options = options_;
  other_options.data_dir = JoinPath(dir_, "other_data");
  other_options.checkpoint_dir = JoinPath(dir_, "other_ckpt");
  std::unique_ptr<Server> other;
  ASSERT_TRUE(Server::Start(other_options, &other).ok());

  PutTraffic(MakeClient().get());

  ClientOptions copts;
  copts.port = other->port();
  std::unique_ptr<Client> observer;
  ASSERT_TRUE(Client::Connect(copts, &observer).ok());
  const tools::JsonValue stats = FetchStats(observer.get());
  // The observer's own handshake and this poll, nothing else.
  EXPECT_LE(stats.Get("server")->Num("requests"), 2);
  EXPECT_EQ(TotalShardOps(stats), 0);
  other->Stop();
}

// A server started after another one stopped, in the same process, starts
// its counters at zero.
TEST_F(NetLoopbackTest, RestartedServerCountersStartAtZero) {
  PutTraffic(MakeClient().get());
  server_->Stop();
  server_.reset();
  ASSERT_TRUE(Server::Start(options_, &server_).ok());

  auto client = MakeClient();
  const tools::JsonValue stats = FetchStats(client.get());
  EXPECT_LE(stats.Get("server")->Num("requests"), 2);
  EXPECT_EQ(TotalShardOps(stats), 0);
}

TEST_F(NetLoopbackTest, GatherStatsAndServerSideCheckpoint) {
  auto client = MakeClient();
  uint64_t h = 0;
  ASSERT_TRUE(client->OpenStore("t.stats.h0", RmwSpec("stats-op"), &h, nullptr).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client->RmwPut(h, "k" + std::to_string(i), Window(0, 1000), "v").ok());
  }
  ASSERT_TRUE(client->Flush().ok());

  std::vector<std::pair<std::string, int64_t>> fields;
  ASSERT_TRUE(client->GatherStats(h, &fields).ok());
  int64_t writes = -1;
  for (const auto& [name, value] : fields) {
    if (name == "writes") writes = value;
  }
  EXPECT_GE(writes, 50) << "aggregated shard stats must count every put";

  // The checkpoint is written at the given path itself, and an embedded
  // store restores every put from it.
  const std::string ckpt = JoinPath(dir_, "manual_ckpt");
  ASSERT_TRUE(client->Checkpoint(h, ckpt).ok());
  std::unique_ptr<FlowKvStore> restored;
  ASSERT_TRUE(FlowKvStore::RestoreFrom(ckpt, JoinPath(dir_, "restored"), options_.store_options,
                                       RmwSpec("stats-op"), &restored)
                  .ok());
  for (int i = 0; i < 50; ++i) {
    std::string acc;
    ASSERT_TRUE(restored->Get("k" + std::to_string(i), Window(0, 1000), &acc).ok()) << i;
    EXPECT_EQ(acc, "v");
  }
}

TEST_F(NetLoopbackTest, DrainCheckpointRestartResume) {
  const int port = server_->port();
  {
    auto client = MakeClient();
    uint64_t h = 0;
    ASSERT_TRUE(client->OpenStore("t.durable.h0", RmwSpec("durable-op"), &h, nullptr).ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          client->RmwPut(h, "k" + std::to_string(i), Window(0, 1000), "v" + std::to_string(i))
              .ok());
    }
    // Flush returns only after the server acked every put.
    ASSERT_TRUE(client->Flush().ok());

    // Graceful drain: the same path the binary's SIGTERM handler triggers.
    ASSERT_TRUE(server_->DrainAndStop().ok());
    server_.reset();
  }

  // Restart on the same directories and port: the committed epoch restores.
  options_.port = port;
  ASSERT_TRUE(Server::Start(options_, &server_).ok());

  auto client = MakeClient();
  uint64_t h = 0;
  StorePattern pattern;
  ASSERT_TRUE(client->OpenStore("t.durable.h0", RmwSpec("durable-op"), &h, &pattern).ok());
  EXPECT_EQ(pattern, StorePattern::kReadModifyWrite);
  for (int i = 0; i < 100; ++i) {
    std::string acc;
    ASSERT_TRUE(client->RmwGet(h, "k" + std::to_string(i), Window(0, 1000), &acc).ok())
        << "acked key k" << i << " lost across drain/restart";
    EXPECT_EQ(acc, "v" + std::to_string(i));
  }
}

// Restarting with another shard count restores every store: a store's
// checkpoint is one directory, and no key is hashed across shards. Stores
// opened on three connections sit on three shards; the restart has two.
TEST_F(NetLoopbackTest, DrainCheckpointRestoresIntoAnotherShardCount) {
  const Window w(0, 1000);
  {
    std::vector<std::unique_ptr<Client>> clients;
    for (int c = 0; c < 3; ++c) {
      clients.push_back(MakeClient());
      Client* client = clients.back().get();
      uint64_t h = 0;
      const std::string ns = "reshard_h" + std::to_string(c);
      ASSERT_TRUE(client->OpenStore(ns, RmwSpec(ns), &h, nullptr).ok());
      for (int i = 0; i < 50; ++i) {
        const std::string suffix = std::to_string(c) + "." + std::to_string(i);
        ASSERT_TRUE(client->RmwPut(h, "k" + std::to_string(i), w, "v" + suffix).ok());
      }
      ASSERT_TRUE(client->Flush().ok());
    }
    uint64_t aar = 0;
    ASSERT_TRUE(clients[0]->OpenStore("reshard_aar", AarSpec("reshard-aar"), &aar, nullptr).ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(clients[0]->AppendAligned(aar, "a" + std::to_string(i % 5), "x", w).ok());
    }
    ASSERT_TRUE(clients[0]->Flush().ok());
    std::vector<int64_t> ops = ShardCounter(FetchStats(clients[0].get()), "ops");
    EXPECT_EQ(std::count_if(ops.begin(), ops.end(), [](int64_t v) { return v > 0; }), 3)
        << "three connections should place their stores on three shards";
    ASSERT_TRUE(server_->DrainAndStop().ok());
    server_.reset();
  }

  options_.num_shards = 2;
  ASSERT_TRUE(Server::Start(options_, &server_).ok());
  auto client = MakeClient();
  for (int c = 0; c < 3; ++c) {
    uint64_t h = 0;
    const std::string ns = "reshard_h" + std::to_string(c);
    ASSERT_TRUE(client->OpenStore(ns, RmwSpec(ns), &h, nullptr).ok());
    for (int i = 0; i < 50; ++i) {
      std::string acc;
      ASSERT_TRUE(client->RmwGet(h, "k" + std::to_string(i), w, &acc).ok())
          << ns << " lost k" << i << " across a restart with another shard count";
      EXPECT_EQ(acc, "v" + std::to_string(c) + "." + std::to_string(i));
    }
  }
  // Each namespace has one live directory whatever shard its store sits on,
  // and the restore replaced it: a stale copy would be data an AAR open
  // reads back. (These namespaces need no escaping, so they are their
  // directory names.) No per-shard directory exists.
  std::vector<std::string> top;
  ASSERT_TRUE(ListDir(options_.data_dir, &top).ok());
  EXPECT_EQ(top, std::vector<std::string>{"stores"});
  std::vector<std::string> live;
  ASSERT_TRUE(ListDir(JoinPath(options_.data_dir, "stores"), &live).ok());
  std::sort(live.begin(), live.end());
  EXPECT_EQ(live, (std::vector<std::string>{"reshard_aar", "reshard_h0", "reshard_h1",
                                            "reshard_h2"}));
  uint64_t aar = 0;
  ASSERT_TRUE(client->OpenStore("reshard_aar", AarSpec("reshard-aar"), &aar, nullptr).ok());
  int64_t values = 0;
  bool done = false;
  while (!done) {
    std::vector<WindowChunkEntry> chunk;
    ASSERT_TRUE(client->GetWindowChunk(aar, w, &chunk, &done).ok());
    for (const WindowChunkEntry& entry : chunk) values += static_cast<int64_t>(entry.values.size());
  }
  EXPECT_EQ(values, 20);
}

TEST_F(NetLoopbackTest, ClientReconnectsAcrossRestart) {
  const int port = server_->port();
  auto client = MakeClient();
  uint64_t h = 0;
  ASSERT_TRUE(client->OpenStore("t.reconnect.h0", RmwSpec("reconnect-op"), &h, nullptr).ok());
  ASSERT_TRUE(client->RmwPut(h, "stable", Window(0, 1000), "before").ok());
  ASSERT_TRUE(client->Flush().ok());

  // Bounce the server while the client holds its (now dead) connection.
  ASSERT_TRUE(server_->DrainAndStop().ok());
  server_.reset();
  options_.port = port;
  ASSERT_TRUE(Server::Start(options_, &server_).ok());

  // The next read hits ConnectionReset internally, reconnects with backoff,
  // re-opens the registered store, and succeeds.
  std::string acc;
  ASSERT_TRUE(client->RmwGet(h, "stable", Window(0, 1000), &acc).ok());
  EXPECT_EQ(acc, "before");
}

TEST_F(NetLoopbackTest, DistinctNamespacesDoNotCollideOnDisk) {
  // "w0.q7" and "w0_q7" used to sanitize to the same directory name, silently
  // sharing one store's files; the escaping must be injective.
  auto client = MakeClient();
  uint64_t h1 = 0, h2 = 0;
  ASSERT_TRUE(client->OpenStore("w0.q7", RmwSpec("collide-a"), &h1, nullptr).ok());
  ASSERT_TRUE(client->OpenStore("w0_q7", RmwSpec("collide-b"), &h2, nullptr).ok());
  const Window w(0, 1000);
  ASSERT_TRUE(client->RmwPut(h1, "k", w, "from-dotted").ok());
  ASSERT_TRUE(client->RmwPut(h2, "k", w, "from-underscored").ok());
  ASSERT_TRUE(client->Flush().ok());

  std::string acc;
  ASSERT_TRUE(client->RmwGet(h1, "k", w, &acc).ok());
  EXPECT_EQ(acc, "from-dotted");
  ASSERT_TRUE(client->RmwGet(h2, "k", w, &acc).ok());
  EXPECT_EQ(acc, "from-underscored");

  // And the two stores occupy two distinct directories.
  std::vector<std::string> entries;
  ASSERT_TRUE(ListDir(JoinPath(options_.data_dir, "stores"), &entries).ok());
  EXPECT_EQ(entries.size(), 2u) << "namespaces collided onto one directory";
}

TEST_F(NetLoopbackTest, FailedOpenIsRetriableNotPoisoned) {
  // Plant a regular file where the store's directory would go, so the
  // open fails.
  const std::string stores_dir = JoinPath(options_.data_dir, "stores");
  ASSERT_TRUE(CreateDirs(stores_dir).ok());
  const std::string blocker = JoinPath(stores_dir, "failstore");
  ASSERT_TRUE(WriteStringToFile(blocker, "in the way").ok());

  auto client = MakeClient();
  uint64_t h = 0;
  EXPECT_FALSE(client->OpenStore("failstore", RmwSpec("fail-op"), &h, nullptr).ok());

  // A failed entry must not satisfy a later open idempotently: once the
  // obstruction is gone, re-opening the same namespace retries the open on
  // the store's shard and the store becomes usable.
  ASSERT_EQ(::unlink(blocker.c_str()), 0);
  ASSERT_TRUE(client->OpenStore("failstore", RmwSpec("fail-op"), &h, nullptr).ok());
  const Window w(0, 1000);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(client->RmwPut(h, key, w, "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(client->Flush().ok());
  for (int i = 0; i < 50; ++i) {
    std::string acc;
    ASSERT_TRUE(client->RmwGet(h, "k" + std::to_string(i), w, &acc).ok())
        << "op failed against a store that reported a successful open";
    EXPECT_EQ(acc, "v" + std::to_string(i));
  }
}

// A handshake-free blocking socket connected to 127.0.0.1:`port`, or -1.
int ConnectRaw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST_F(NetLoopbackTest, OversizedFrameDropsConnection) {
  // Claim a payload far beyond the server's limit.
  const int fd = ConnectRaw(server_->port());
  ASSERT_GE(fd, 0);

  unsigned char header[8] = {0};
  const uint32_t huge = 1u << 30;  // 1 GiB claimed payload
  std::memcpy(header, &huge, 4);
  ASSERT_EQ(::send(fd, header, sizeof(header), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(header)));

  // The server must close the connection instead of allocating 1 GiB.
  char buf[16];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);  // blocks until close
  EXPECT_EQ(n, 0);
  ::close(fd);

  // And the server stays healthy for well-behaved clients.
  auto client = MakeClient();
  EXPECT_TRUE(client->Ping().ok());
}

// `payload` (an encoded message) relabelled with another wire version.
std::string WithWireVersion(const std::string& payload, uint32_t version) {
  Slice rest(payload);
  uint32_t ours = 0;
  EXPECT_TRUE(GetVarint32(&rest, &ours));
  std::string out;
  PutVarint32(&out, version);
  out.append(rest.data(), rest.size());
  return out;
}

int64_t ProtocolErrors(Client* client) {
  std::string json;
  EXPECT_TRUE(client->Stats(&json).ok());
  tools::JsonValue doc;
  EXPECT_TRUE(tools::ParseJson(json, &doc)) << json;
  const tools::JsonValue* server = doc.Get("server");
  return server != nullptr ? static_cast<int64_t>(server->Num("protocol_errors")) : -1;
}

TEST_F(NetLoopbackTest, ForeignWireVersionRequestIsRefused) {
  auto bystander = MakeClient();
  const int64_t errors_before = ProtocolErrors(bystander.get());

  const int fd = ConnectRaw(server_->port());
  ASSERT_GE(fd, 0);

  // A well-framed ping whose header names the next wire version.
  RequestMessage ping;
  ping.request_id = 1;
  ping.ops.resize(1);
  std::string payload;
  EncodeRequest(ping, &payload);
  std::string frame;
  AppendFrame(&frame, WithWireVersion(payload, kWireVersion + 1));
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));

  // The server closes the connection without answering.
  char buf[16];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);  // blocks until close
  EXPECT_EQ(n, 0);
  ::close(fd);

  // Counted once, and a client of this version on the same server is still
  // served.
  EXPECT_EQ(ProtocolErrors(bystander.get()), errors_before + 1);
  EXPECT_TRUE(bystander->Ping().ok());
}

// Blocking-socket helpers for the fake servers below.
bool ReadOneRequest(int fd, RequestMessage* request) {
  std::string buf;
  char chunk[4096];
  while (true) {
    Slice input(buf);
    Slice payload;
    bool complete = false;
    if (!TryDecodeFrame(&input, &payload, &complete).ok()) {
      return false;
    }
    if (complete) {
      return DecodeRequest(payload, request).ok();
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      return false;
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
}

void WriteResponse(int fd, const ResponseMessage& response) {
  std::string payload;
  EncodeResponse(response, &payload);
  std::string frame;
  AppendFrame(&frame, payload);
  ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
}

void WriteOkResponse(int fd, const RequestMessage& request) {
  ResponseMessage response;
  response.request_id = request.request_id;
  response.results.resize(request.ops.size());
  WriteResponse(fd, response);
}

// Reads the client's kClusterInfo handshake and answers it as an epoch-1
// primary, reporting prefetch push when `push`.
bool AnswerHandshake(int fd, bool push) {
  RequestMessage handshake;
  if (!ReadOneRequest(fd, &handshake) || handshake.ops.size() != 1 ||
      handshake.ops[0].type != OpType::kClusterInfo) {
    return false;
  }
  ClusterView view;
  view.epoch = 1;
  view.role = kRolePrimary;
  view.prefetch_push = push;
  ResponseMessage response;
  response.request_id = handshake.request_id;
  response.results.resize(1);
  response.results[0].type = OpType::kClusterInfo;
  response.results[0].stat_fields = ClusterViewFields(view);
  WriteResponse(fd, response);
  return true;
}

TEST(NetClientStaleFrameTest, LateResponseAfterTimeoutDoesNotPoisonNextRequest) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 2), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  // Fake server: the first connection's reply lands only after the client
  // gave up on it; a second connection is then served promptly.
  std::atomic<bool> stale_sent{false};
  std::thread fake([listen_fd, &stale_sent] {
    const int c1 = ::accept(listen_fd, nullptr, nullptr);
    if (c1 < 0) return;
    // The client handshakes on every fresh connection; answer the handshake
    // promptly so Connect() succeeds, then delay the reply to the test's
    // Ping until long after the client gave up on it.
    if (AnswerHandshake(c1, /*push=*/false)) {
      RequestMessage req1;
      if (ReadOneRequest(c1, &req1)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(600));
        WriteOkResponse(c1, req1);  // stale: the client timed out long ago
      }
    }
    stale_sent.store(true);
    // Bounded wait for the reconnect, so a regression (client never
    // reconnects) fails the test instead of hanging it on join().
    pollfd pfd = {listen_fd, POLLIN, 0};
    if (::poll(&pfd, 1, 10'000) > 0) {
      const int c2 = ::accept(listen_fd, nullptr, nullptr);
      if (c2 >= 0) {
        // Exactly two requests arrive here: the handshake (every fresh
        // connection opens with one) and the retried Ping.
        RequestMessage req2;
        if (AnswerHandshake(c2, /*push=*/false) && ReadOneRequest(c2, &req2)) {
          WriteOkResponse(c2, req2);
        }
        ::close(c2);
      }
    }
    ::close(c1);
  });

  ClientOptions copts;
  copts.port = ntohs(addr.sin_port);
  copts.request_timeout_ms = 300;
  copts.reconnect_backoff_ms = 1;
  std::unique_ptr<Client> client;
  ASSERT_TRUE(Client::Connect(copts, &client).ok());
  EXPECT_TRUE(client->Ping().IsTimedOut());

  // Wait until the late frame is definitely queued, then issue the next
  // request. The timed-out attempt must have dropped its connection —
  // otherwise this reads the stale frame and fails with an id mismatch.
  while (!stale_sent.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const Status s = client->Ping();
  EXPECT_TRUE(s.ok()) << s.ToString();

  fake.join();
  ::close(listen_fd);
}

// ----- scripted peers: server pushes read inline ahead of a response -----

// An unsolicited push frame carrying `results` kPushChunk results.
ResponseMessage PushFrame(uint64_t store_id, int results) {
  ResponseMessage push;
  push.request_id = kPushRequestId;
  for (int i = 0; i < results; ++i) {
    OpResult chunk;
    chunk.type = OpType::kPushChunk;
    chunk.store_id = store_id;
    chunk.window = Window(0, 1000);
    chunk.push_seq = 1;
    chunk.chunk.push_back(WindowChunkEntry{"k", {"v"}});
    push.results.push_back(std::move(chunk));
  }
  return push;
}

// A loopback listener whose thread runs `script`, which plays the server.
// Declare it before the client: the client must close its socket first so a
// script blocked reading the next request returns, then the destructor joins.
class ScriptedPeer {
 public:
  explicit ScriptedPeer(std::function<void(ScriptedPeer*)> script) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (listen_fd_ < 0 || ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 2) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ADD_FAILURE() << "cannot listen on loopback";
      return;
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread(std::move(script), this);
  }
  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;
  ~ScriptedPeer() {
    if (thread_.joinable()) {
      thread_.join();
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
    }
  }

  // Accepts the next connection within `timeout_ms` (-1 on timeout), so a
  // client that never connects fails the test instead of hanging it.
  int Accept(int timeout_ms = 10'000) {
    pollfd pfd = {listen_fd_, POLLIN, 0};
    return ::poll(&pfd, 1, timeout_ms) > 0 ? ::accept(listen_fd_, nullptr, nullptr) : -1;
  }

  int port() const { return port_; }

  std::unique_ptr<Client> ConnectPushClient() {
    ClientOptions copts;
    copts.port = port_;
    copts.enable_prefetch_push = true;
    copts.request_timeout_ms = 2000;
    copts.reconnect_backoff_ms = 1;
    copts.jitter_seed = 5;
    std::unique_ptr<Client> client;
    const Status s = Client::Connect(copts, &client);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return client;
  }

 private:
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

TEST(NetClientPushDemuxTest, PushForUnknownStoreAheadOfResponseIsSkipped) {
  std::atomic<int> answered{0};
  ScriptedPeer peer([&answered](ScriptedPeer* p) {
    const int fd = p->Accept();
    if (fd < 0) return;
    if (AnswerHandshake(fd, /*push=*/true)) {
      for (int i = 0; i < 2; ++i) {
        RequestMessage ping;
        if (!ReadOneRequest(fd, &ping)) break;
        if (i == 0) {
          WriteResponse(fd, PushFrame(/*store_id=*/77, /*results=*/1));
        }
        ++answered;  // before the reply, which releases the client
        WriteOkResponse(fd, ping);
      }
    }
    ::close(fd);
  });
  auto client = peer.ConnectPushClient();
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->push_negotiated());
  Status s = client->Ping();
  EXPECT_TRUE(s.ok()) << s.ToString();
  // The same socket serves the next request: the push did not break it.
  s = client->Ping();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(answered.load(), 2);
  EXPECT_EQ(client->cache_counters().pushes, 0) << "a push for an unmapped store was banked";
}

TEST(NetClientPushDemuxTest, MalformedPushIsRetriedOnAFreshConnection) {
  std::atomic<bool> retried{false};
  ScriptedPeer peer([&retried](ScriptedPeer* p) {
    const int first = p->Accept();
    if (first < 0) return;
    RequestMessage ping;
    if (AnswerHandshake(first, /*push=*/true) && ReadOneRequest(first, &ping)) {
      WriteResponse(first, PushFrame(/*store_id=*/77, /*results=*/2));
      const int second = p->Accept();
      if (second >= 0) {
        if (AnswerHandshake(second, /*push=*/true) && ReadOneRequest(second, &ping)) {
          retried.store(true);  // before the reply, which releases the client
          WriteOkResponse(second, ping);
        }
        ::close(second);
      }
    }
    ::close(first);
  });
  auto client = peer.ConnectPushClient();
  ASSERT_NE(client, nullptr);
  const Status s = client->Ping();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(retried.load()) << "the Ping was not re-sent on a fresh connection";
}

TEST(NetClientPushDemuxTest, ResponseWithAnotherIdFailsTheCall) {
  ScriptedPeer peer([](ScriptedPeer* p) {
    const int fd = p->Accept();
    if (fd < 0) return;
    RequestMessage ping;
    if (AnswerHandshake(fd, /*push=*/true) && ReadOneRequest(fd, &ping)) {
      ResponseMessage wrong;
      wrong.request_id = ping.request_id + 7;
      wrong.results.resize(1);
      WriteResponse(fd, wrong);
      // Hold the connection until the client drops it.
      char byte;
      while (::recv(fd, &byte, 1, 0) > 0) {
      }
    }
    ::close(fd);
  });
  auto client = peer.ConnectPushClient();
  ASSERT_NE(client, nullptr);
  const Status s = client->Ping();
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
}

TEST(NetClientVersionTest, ForeignVersionHandshakeFailsWithoutReconnecting) {
  std::atomic<int> connections{0};
  {
    // Answers every handshake with the next wire version, and counts
    // connections until none arrives for 500 ms.
    ScriptedPeer peer([&connections](ScriptedPeer* p) {
      for (int fd = p->Accept(); fd >= 0; fd = p->Accept(/*timeout_ms=*/500)) {
        ++connections;
        RequestMessage handshake;
        if (ReadOneRequest(fd, &handshake)) {
          ResponseMessage response;
          response.request_id = handshake.request_id;
          response.results.resize(1);
          response.results[0].type = OpType::kClusterInfo;
          std::string payload;
          EncodeResponse(response, &payload);
          std::string frame;
          AppendFrame(&frame, WithWireVersion(payload, kWireVersion + 1));
          ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
          char byte;
          while (::recv(fd, &byte, 1, 0) > 0) {
          }
        }
        ::close(fd);
      }
    });
    ClientOptions copts;
    copts.port = peer.port();
    copts.max_reconnect_attempts = 5;
    copts.reconnect_backoff_ms = 1;
    std::unique_ptr<Client> client;
    const Status s = Client::Connect(copts, &client);
    EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
    EXPECT_NE(s.message().find(std::to_string(kWireVersion + 1)), std::string::npos)
        << s.ToString();
    EXPECT_NE(s.message().find(std::to_string(kWireVersion)), std::string::npos)
        << s.ToString();
  }  // the peer's destructor joins its thread
  EXPECT_EQ(connections.load(), 1) << "the client reconnected to a foreign-version peer";
}

TEST(NetClientTimeoutTest, UnresponsivePeerTimesOut) {
  // A listener that accepts but never replies. The client handshakes on
  // every connect, so an accepting-but-silent peer is detected at Connect()
  // — kTimedOut once the handshake exhausts the deadline — rather than
  // surfacing on the first request.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  ClientOptions copts;
  copts.port = ntohs(addr.sin_port);
  copts.request_timeout_ms = 200;
  copts.reconnect_backoff_ms = 1;
  std::unique_ptr<Client> client;
  const Status s = Client::Connect(copts, &client);
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();
  ::close(listen_fd);
}

TEST(NetClientConnectTest, RefusedConnectionFails) {
  ClientOptions copts;
  copts.port = 1;  // virtually guaranteed closed
  copts.max_reconnect_attempts = 1;
  copts.reconnect_backoff_ms = 1;
  std::unique_ptr<Client> client;
  const Status s = Client::Connect(copts, &client);
  EXPECT_FALSE(s.ok());
}

// The same multi-client workload against 1, 3 and 5 shards (one reactor
// each): 4 clients share one reactor, spread over three, or leave one idle.
// Each client uses only the store it opened, which lives on its own
// connection's reactor, so no op ever takes the cross-reactor queue path.
class NetShardCountTest : public ::testing::TestWithParam<int> {};

TEST_P(NetShardCountTest, ConcurrentClientsStayOnTheirReactors) {
  const std::string dir = MakeTempDir("net_reactors");
  ServerOptions sopts;
  sopts.num_shards = GetParam();
  sopts.data_dir = JoinPath(dir, "data");
  sopts.checkpoint_dir = JoinPath(dir, "ckpt");
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Start(sopts, &server).ok());

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientOptions copts;
      copts.port = server->port();
      copts.request_timeout_ms = 20'000;
      std::unique_ptr<Client> client;
      if (!Client::Connect(copts, &client).ok()) {
        ++failures;
        return;
      }
      uint64_t h = 0;
      const std::string name = "t.reactors.c" + std::to_string(c);
      if (!client->OpenStore(name, RmwSpec(name), &h, nullptr).ok()) {
        ++failures;
        return;
      }
      const Window w(0, 1000);
      for (int i = 0; i < kOpsPerClient; ++i) {
        const std::string key = "k" + std::to_string(i);
        if (!client->RmwPut(h, key, w, "v" + std::to_string(i)).ok()) {
          ++failures;
          return;
        }
      }
      if (!client->Flush().ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kOpsPerClient; ++i) {
        std::string acc;
        if (!client->RmwGet(h, "k" + std::to_string(i), w, &acc).ok() ||
            acc != "v" + std::to_string(i)) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(0, failures.load()) << "with num_shards=" << GetParam();

  ClientOptions copts;
  copts.port = server->port();
  std::unique_ptr<Client> stats_client;
  ASSERT_TRUE(Client::Connect(copts, &stats_client).ok());
  const tools::JsonValue stats = FetchStats(stats_client.get());
  ASSERT_NE(stats.Get("server"), nullptr);
  EXPECT_EQ(stats.Get("server")->Num("num_shards"), GetParam());
  EXPECT_EQ(ShardCounter(stats, "cross_reactor_dispatches"),
            std::vector<int64_t>(static_cast<size_t>(GetParam()), 0));
  EXPECT_GE(TotalShardOps(stats), 2 * kClients * kOpsPerClient);

  server->Stop();
  RemoveDirRecursively(dir).IgnoreError();
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, NetShardCountTest, ::testing::Values(1, 3, 5));

// The pool is one thread per shard, so the shard count is bounded; Start
// refuses an out-of-range count before it creates any fd or thread.
TEST(NetShardCountBoundTest, StartRefusesShardCountsOutOfRange) {
  const std::string dir = MakeTempDir("net_shard_bound");
  const auto threads = [] {
    std::vector<std::string> tasks;
    EXPECT_TRUE(ListDir("/proc/self/task", &tasks).ok());
    return tasks.size();
  };
  const size_t threads_before = threads();
  for (const int shards : {0, kMaxServerShards + 1}) {
    ServerOptions sopts;
    sopts.num_shards = shards;
    sopts.data_dir = JoinPath(dir, "data");
    std::unique_ptr<Server> server;
    const Status s = Server::Start(sopts, &server);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << shards << ": " << s.ToString();
    EXPECT_EQ(server, nullptr);
    EXPECT_FALSE(FileExists(sopts.data_dir)) << "refused before touching data_dir";
  }
  EXPECT_EQ(threads(), threads_before);
  RemoveDirRecursively(dir).IgnoreError();
}

// A connection that opened its stores finds them on its own reactor: its
// RMW and AAR traffic runs inline, and shard.cross_reactor_dispatches stays
// 0. A second connection using the same store from the other reactor posts
// its ops to the store's shard, which the counter shows.
TEST(NetPlacementTest, OwnStoresNeverCrossReactors) {
  const std::string dir = MakeTempDir("net_placement");
  ServerOptions sopts;
  sopts.num_shards = 2;
  sopts.data_dir = JoinPath(dir, "data");
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Start(sopts, &server).ok());
  ClientOptions copts;
  copts.port = server->port();
  copts.request_timeout_ms = 20'000;
  const auto cross_reactor = [](Client* client) {
    int64_t total = 0;
    for (const int64_t v : ShardCounter(FetchStats(client), "cross_reactor_dispatches")) {
      total += v;
    }
    return total;
  };

  std::unique_ptr<Client> owner;
  ASSERT_TRUE(Client::Connect(copts, &owner).ok());
  uint64_t rmw = 0;
  uint64_t aar = 0;
  ASSERT_TRUE(owner->OpenStore("t.place.rmw", RmwSpec("place-rmw"), &rmw, nullptr).ok());
  ASSERT_TRUE(owner->OpenStore("t.place.aar", AarSpec("place-aar"), &aar, nullptr).ok());
  const Window w(0, 1000);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(owner->RmwPut(rmw, key, w, "v" + std::to_string(i)).ok());
    ASSERT_TRUE(owner->AppendAligned(aar, key, "a", w).ok());
    std::string acc;
    ASSERT_TRUE(owner->RmwGet(rmw, key, w, &acc).ok());
  }
  bool done = false;
  while (!done) {
    std::vector<WindowChunkEntry> chunk;
    ASSERT_TRUE(owner->GetWindowChunk(aar, w, &chunk, &done).ok());
  }
  const tools::JsonValue stats = FetchStats(owner.get());
  ASSERT_EQ(ShardCounter(stats, "cross_reactor_dispatches").size(), 2u);
  EXPECT_GT(TotalShardOps(stats), 300);
  EXPECT_EQ(cross_reactor(owner.get()), 0);

  // Round-robin accept puts the next connection on the other reactor.
  std::unique_ptr<Client> visitor;
  ASSERT_TRUE(Client::Connect(copts, &visitor).ok());
  uint64_t shared = 0;
  ASSERT_TRUE(visitor->OpenStore("t.place.rmw", RmwSpec("place-rmw"), &shared, nullptr).ok());
  std::string acc;
  ASSERT_TRUE(visitor->RmwGet(shared, "k7", w, &acc).ok());
  EXPECT_EQ(acc, "v7");
  EXPECT_GT(cross_reactor(visitor.get()), 0);

  server->Stop();
  RemoveDirRecursively(dir).IgnoreError();
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

// Reads `count` response frames off a blocking socket.
bool ReadResponses(int fd, size_t count, std::vector<ResponseMessage>* out) {
  std::string buf;
  char chunk[4096];
  while (out->size() < count) {
    Slice input(buf);
    Slice payload;
    bool complete = false;
    if (!TryDecodeFrame(&input, &payload, &complete).ok()) {
      return false;
    }
    if (complete) {
      ResponseMessage response;
      if (!DecodeResponse(payload, &response).ok()) {
        return false;
      }
      out->push_back(std::move(response));
      buf.erase(0, buf.size() - input.size());
      continue;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      return false;
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
  return true;
}

TEST(NetPlacementTest, LongFieldsPipelinedAcrossReactorsReadBackByteExact) {
  // Two frames of long fields, sent in one write, from a connection on the
  // other reactor than the stores': both frames sit in one rx buffer, and
  // every op takes the queued cross-reactor path. The first frame is over
  // the rx buffer's 256 KiB compaction threshold, so consuming it moves the
  // second frame to the front of the buffer while the first frame's ops may
  // still wait in the shard queue: an op that aliased the buffer would
  // read the second frame's bytes.
  const std::string dir = MakeTempDir("net_long_fields");
  ServerOptions sopts;
  sopts.num_shards = 2;
  sopts.data_dir = JoinPath(dir, "data");
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Start(sopts, &server).ok());
  ClientOptions copts;
  copts.port = server->port();
  copts.request_timeout_ms = 20'000;
  std::unique_ptr<Client> owner;
  ASSERT_TRUE(Client::Connect(copts, &owner).ok());
  uint64_t rmw = 0;
  uint64_t aar = 0;
  ASSERT_TRUE(owner->OpenStore("t.long.rmw", RmwSpec("long-rmw"), &rmw, nullptr).ok());
  ASSERT_TRUE(owner->OpenStore("t.long.aar", AarSpec("long-aar"), &aar, nullptr).ok());
  const auto cross_reactor = [&] {
    int64_t total = 0;
    for (const int64_t v : ShardCounter(FetchStats(owner.get()), "cross_reactor_dispatches")) {
      total += v;
    }
    return total;
  };
  EXPECT_EQ(cross_reactor(), 0);

  // Round-robin accept puts this connection on the other reactor.
  const int fd = ConnectRaw(server->port());
  ASSERT_GE(fd, 0);

  const Window w(0, 1000);
  const int kFrameKeys[2] = {330, 8};  // ~270 KiB and ~6.5 KiB of fields
  const int kKeys = kFrameKeys[0] + kFrameKeys[1];
  std::string frames;
  for (int f = 0, i = 0; f < 2; ++f) {
    RequestMessage request;
    request.request_id = static_cast<uint64_t>(f + 1);
    for (int j = 0; j < kFrameKeys[f]; ++j, ++i) {
      OpRequest put;
      put.type = OpType::kRmwPut;
      put.store_id = rmw;
      put.key = LongKey(i);
      put.value = LongValue(i);
      put.window = w;
      request.ops.push_back(put);
      OpRequest append = put;
      append.type = OpType::kAppendAligned;
      append.store_id = aar;
      request.ops.push_back(append);
    }
    // A read of a key written by the first frame, answered from the queue.
    OpRequest get;
    get.type = OpType::kRmwGet;
    get.store_id = rmw;
    get.key = LongKey(0);
    get.window = w;
    request.ops.push_back(get);
    std::string payload;
    EncodeRequest(request, &payload);
    AppendFrame(&frames, payload);
  }
  ASSERT_EQ(::send(fd, frames.data(), frames.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frames.size()));
  std::vector<ResponseMessage> responses;
  ASSERT_TRUE(ReadResponses(fd, 2, &responses));
  ::close(fd);
  std::sort(responses.begin(), responses.end(),
            [](const ResponseMessage& a, const ResponseMessage& b) {
              return a.request_id < b.request_id;
            });
  for (int f = 0; f < 2; ++f) {
    const ResponseMessage& response = responses[static_cast<size_t>(f)];
    EXPECT_EQ(response.request_id, static_cast<uint64_t>(f + 1));
    ASSERT_EQ(response.results.size(), static_cast<size_t>(2 * kFrameKeys[f] + 1));
    for (const OpResult& result : response.results) {
      EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    }
    EXPECT_EQ(response.results.back().accumulator, LongValue(0));
  }
  EXPECT_GT(cross_reactor(), 0);

  // Every field reads back byte-exact from the stores' own reactor.
  std::string acc;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(owner->RmwGet(rmw, LongKey(i), w, &acc).ok()) << "long key " << i;
    EXPECT_EQ(acc, LongValue(i)) << "long key " << i;
  }
  std::map<std::string, std::vector<std::string>> drained;
  for (bool done = false; !done;) {
    std::vector<WindowChunkEntry> chunk;
    ASSERT_TRUE(owner->GetWindowChunk(aar, w, &chunk, &done).ok());
    for (WindowChunkEntry& entry : chunk) {
      auto& values = drained[entry.key];
      values.insert(values.end(), entry.values.begin(), entry.values.end());
    }
  }
  ASSERT_EQ(drained.size(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(drained[LongKey(i)], std::vector<std::string>{LongValue(i)}) << "long key " << i;
  }

  owner.reset();
  server->Stop();
  RemoveDirRecursively(dir).IgnoreError();
}

// The AF_UNIX transport speaks the exact same protocol as TCP: a client
// connected over the socket file and one connected over 127.0.0.1 see each
// other's writes, and the socket file is removed once the server stops.
TEST(NetUnixSocketTest, UnixAndTcpClientsShareState) {
  const std::string dir = MakeTempDir("net_unix");
  ServerOptions sopts;
  sopts.num_shards = 2;
  sopts.data_dir = JoinPath(dir, "data");
  sopts.unix_socket_path = JoinPath(dir, "flowkv.sock");
  std::unique_ptr<Server> server;
  ASSERT_TRUE(Server::Start(sopts, &server).ok());

  ClientOptions uopts;
  uopts.unix_socket_path = sopts.unix_socket_path;
  uopts.request_timeout_ms = 20'000;
  std::unique_ptr<Client> unix_client;
  ASSERT_TRUE(Client::Connect(uopts, &unix_client).ok());

  ClientOptions topts;
  topts.port = server->port();
  topts.request_timeout_ms = 20'000;
  std::unique_ptr<Client> tcp_client;
  ASSERT_TRUE(Client::Connect(topts, &tcp_client).ok());

  const std::string name = "t.unix";
  uint64_t uh = 0, th = 0;
  ASSERT_TRUE(unix_client->OpenStore(name, RmwSpec(name), &uh, nullptr).ok());
  ASSERT_TRUE(tcp_client->OpenStore(name, RmwSpec(name), &th, nullptr).ok());

  const Window w(0, 1000);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(unix_client->RmwPut(uh, "uk" + std::to_string(i), w,
                                    "uv" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(unix_client->Flush().ok());

  for (int i = 0; i < 64; ++i) {
    std::string acc;
    ASSERT_TRUE(tcp_client->RmwGet(th, "uk" + std::to_string(i), w, &acc).ok());
    EXPECT_EQ("uv" + std::to_string(i), acc);
  }
  std::string acc;
  ASSERT_TRUE(tcp_client->RmwPut(th, "tk", w, "tv").ok());
  ASSERT_TRUE(tcp_client->Flush().ok());
  ASSERT_TRUE(unix_client->RmwGet(uh, "tk", w, &acc).ok());
  EXPECT_EQ("tv", acc);

  unix_client.reset();
  tcp_client.reset();
  server->Stop();
  EXPECT_FALSE(FileExists(sopts.unix_socket_path))
      << "socket file should be unlinked at shutdown";
  server.reset();
  RemoveDirRecursively(dir).IgnoreError();
}

}  // namespace
}  // namespace net
}  // namespace flowkv
