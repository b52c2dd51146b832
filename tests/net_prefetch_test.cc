// ETT-driven prefetch subsystem (src/net/prefetch.h, docs/NETWORK.md): unit
// tests for the count-based ReadAheadCache and the per-shard
// ShardPrefetchScheduler, plus end-to-end coverage of the push path — a
// push-enabled Client against a loopback flowkv_server must serve a closed
// window's read from pushed client memory (deterministically, thanks to the
// push-before-ack wire ordering), degrade to remote reads against a
// push-disabled server, stay correct when pushes pile up behind an idle
// subscriber, and every NEXMark query through the prefetch-enabled remote
// backend must match the embedded reference exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/backends/flowkv_backend.h"
#include "src/backends/remote_backend.h"
#include "src/common/env.h"
#include "src/net/client.h"
#include "src/net/prefetch.h"
#include "src/net/server.h"
#include "src/nexmark/generator.h"
#include "src/nexmark/queries.h"
#include "src/spe/job_runner.h"
#include "tools/stat_format.h"

namespace flowkv {
namespace {

using net::FiredPush;
using net::ReadAheadCache;
using net::ShardPrefetchScheduler;

// ----- ReadAheadCache -----

TEST(ReadAheadCacheTest, HitRequiresExactCountMatch) {
  obs::MetricsRegistry metrics;
  ReadAheadCache cache(1u << 20, &metrics);
  const Window w(0, 1000);
  cache.OnLocalAppend(1, w);
  cache.OnLocalAppend(1, w);

  std::vector<WindowChunkEntry> pushed;
  pushed.push_back(WindowChunkEntry{"k", {"v0", "v1"}});
  cache.OnPush(1, w, std::move(pushed));

  std::vector<WindowChunkEntry> chunk;
  ASSERT_TRUE(cache.TryServe(1, w, &chunk));
  ASSERT_EQ(chunk.size(), 1u);
  EXPECT_EQ(chunk[0].key, "k");
  EXPECT_EQ(chunk[0].values, (std::vector<std::string>{"v0", "v1"}));
  EXPECT_EQ(cache.counters().hits, 1);
  EXPECT_EQ(cache.bytes(), 0u);  // entry consumed

  // The entry and the count are gone: a second read of the same window can
  // only go remote (and is not even a miss — nothing local is outstanding).
  EXPECT_FALSE(cache.TryServe(1, w, &chunk));
  EXPECT_EQ(cache.counters().misses, 0);
}

TEST(ReadAheadCacheTest, CountMismatchIsSafeMiss) {
  obs::MetricsRegistry metrics;
  ReadAheadCache cache(1u << 20, &metrics);
  const Window w(0, 1000);
  cache.OnLocalAppend(7, w);
  cache.OnLocalAppend(7, w);

  // The push lost a value (backpressure shed, partial fire): 1 != 2.
  std::vector<WindowChunkEntry> pushed;
  pushed.push_back(WindowChunkEntry{"k", {"v0"}});
  cache.OnPush(7, w, std::move(pushed));

  std::vector<WindowChunkEntry> chunk;
  EXPECT_FALSE(cache.TryServe(7, w, &chunk));
  EXPECT_EQ(cache.counters().misses, 1);
  EXPECT_EQ(cache.counters().hits, 0);

  // A late local append after a count-matching push breaks the equality in
  // the other direction — still a miss, never a short read.
  const Window w2(1000, 2000);
  cache.OnLocalAppend(7, w2);
  std::vector<WindowChunkEntry> pushed2;
  pushed2.push_back(WindowChunkEntry{"k", {"v0"}});
  cache.OnPush(7, w2, std::move(pushed2));
  cache.OnLocalAppend(7, w2);
  EXPECT_FALSE(cache.TryServe(7, w2, &chunk));
  EXPECT_EQ(cache.counters().misses, 2);
}

TEST(ReadAheadCacheTest, PushWithoutLocalAppendsIsStale) {
  obs::MetricsRegistry metrics;
  ReadAheadCache cache(1u << 20, &metrics);
  std::vector<WindowChunkEntry> pushed;
  pushed.push_back(WindowChunkEntry{"k", {"v"}});
  cache.OnPush(3, Window(0, 1000), std::move(pushed));
  EXPECT_EQ(cache.counters().stale, 1);
  EXPECT_EQ(cache.counters().pushes, 0);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ReadAheadCacheTest, ShardChunksAccumulatePerWindow) {
  // The server pushes each window once: a second push for a window that
  // already has an entry is dropped as stale, and the first push alone
  // decides the count check.
  obs::MetricsRegistry metrics;
  ReadAheadCache cache(1u << 20, &metrics);
  const Window w(0, 1000);
  for (int i = 0; i < 4; ++i) {
    cache.OnLocalAppend(1, w);
  }
  std::vector<WindowChunkEntry> shard0;
  shard0.push_back(WindowChunkEntry{"a", {"v0", "v1"}});
  cache.OnPush(1, w, std::move(shard0));
  const size_t bytes_after_first = cache.bytes();

  std::vector<WindowChunkEntry> shard1;
  shard1.push_back(WindowChunkEntry{"b", {"v2", "v3"}});
  cache.OnPush(1, w, std::move(shard1));

  EXPECT_EQ(cache.counters().pushes, 1);
  EXPECT_EQ(cache.counters().stale, 1);
  EXPECT_EQ(cache.bytes(), bytes_after_first);
  std::vector<WindowChunkEntry> chunk;
  EXPECT_FALSE(cache.TryServe(1, w, &chunk));  // 2 of 4 values, never completed
}

TEST(ReadAheadCacheTest, RemoteReadDoneDiscardsEntryAsWaste) {
  obs::MetricsRegistry metrics;
  ReadAheadCache cache(1u << 20, &metrics);
  const Window w(0, 1000);
  cache.OnLocalAppend(1, w);
  std::vector<WindowChunkEntry> pushed;
  pushed.push_back(WindowChunkEntry{"k", {"v0", "v1"}});  // 2 != 1: unservable
  cache.OnPush(1, w, std::move(pushed));

  cache.OnRemoteRead(1, w);
  EXPECT_EQ(cache.counters().waste, 2);
  EXPECT_EQ(cache.bytes(), 0u);
  // The local count is forgotten too: the window's life is over.
  std::vector<WindowChunkEntry> chunk;
  EXPECT_FALSE(cache.TryServe(1, w, &chunk));
  EXPECT_EQ(cache.counters().misses, 0);
}

// A window whose drain has started remotely is never served from the cache,
// even when the pushes complete mid-drain and the counts then match: the
// chunks already read would be delivered twice.
TEST(ReadAheadCacheTest, PushCompletingMidRemoteDrainIsNotServed) {
  obs::MetricsRegistry metrics;
  ReadAheadCache cache(1u << 20, &metrics);
  const Window w(0, 1000);
  cache.OnLocalAppend(1, w);
  cache.OnLocalAppend(1, w);
  std::vector<WindowChunkEntry> shard0;
  shard0.push_back(WindowChunkEntry{"a", {"v0"}});
  cache.OnPush(1, w, std::move(shard0));

  // Miss (1 of 2 values pushed): the first remote chunk is read.
  std::vector<WindowChunkEntry> chunk;
  EXPECT_FALSE(cache.TryServe(1, w, &chunk));
  cache.OnRemoteRead(1, w);

  // A second push lands before the drain's next call.
  std::vector<WindowChunkEntry> shard1;
  shard1.push_back(WindowChunkEntry{"b", {"v1"}});
  cache.OnPush(1, w, std::move(shard1));
  EXPECT_FALSE(cache.TryServe(1, w, &chunk));
  EXPECT_EQ(cache.counters().hits, 0);
}

TEST(ReadAheadCacheTest, ClearDropsEntriesButKeepsLocalCounts) {
  obs::MetricsRegistry metrics;
  ReadAheadCache cache(1u << 20, &metrics);
  const Window w(0, 1000);
  cache.OnLocalAppend(1, w);
  std::vector<WindowChunkEntry> pushed;
  pushed.push_back(WindowChunkEntry{"k", {"v"}});
  cache.OnPush(1, w, std::move(pushed));

  cache.Clear();  // reconnect/failover
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.counters().waste, 1);

  // A re-push from the new peer against the surviving local count can still
  // hit — the count describes client history, not the dead connection.
  std::vector<WindowChunkEntry> repushed;
  repushed.push_back(WindowChunkEntry{"k", {"v"}});
  cache.OnPush(1, w, std::move(repushed));
  std::vector<WindowChunkEntry> chunk;
  EXPECT_TRUE(cache.TryServe(1, w, &chunk));
}

TEST(ReadAheadCacheTest, CapacityBoundEvictsLeastRecentlyPushed) {
  obs::MetricsRegistry metrics;
  ReadAheadCache cache(200, &metrics);  // tiny: two ~100-byte entries exceed it
  const Window w0(0, 1000);
  const Window w1(1000, 2000);
  cache.OnLocalAppend(1, w0);
  cache.OnLocalAppend(1, w1);

  std::vector<WindowChunkEntry> big0;
  big0.push_back(WindowChunkEntry{"key0", {std::string(100, 'a')}});
  cache.OnPush(1, w0, std::move(big0));
  std::vector<WindowChunkEntry> big1;
  big1.push_back(WindowChunkEntry{"key1", {std::string(100, 'b')}});
  cache.OnPush(1, w1, std::move(big1));

  EXPECT_EQ(cache.counters().evictions, 1);
  EXPECT_LE(cache.bytes(), 200u);
  // The older entry (w0) was the victim; w1 still hits.
  std::vector<WindowChunkEntry> chunk;
  EXPECT_FALSE(cache.TryServe(1, w0, &chunk));
  EXPECT_TRUE(cache.TryServe(1, w1, &chunk));
}

// ----- ShardPrefetchScheduler -----

TEST(ShardPrefetchSchedulerTest, NoSubscribersMeansNoShadowState) {
  obs::MetricsRegistry metrics;
  ShardPrefetchScheduler sched(1u << 20, &metrics);
  sched.OnAppend(1, "k", "v", Window(0, 1000));
  sched.OnAppend(1, "k", "v", Window(1000, 2000));
  EXPECT_EQ(sched.shadow_bytes(), 0u);
  EXPECT_FALSE(sched.has_fired());
}

TEST(ShardPrefetchSchedulerTest, FiresWhenEventTimePassesWindowEnd) {
  obs::MetricsRegistry metrics;
  ShardPrefetchScheduler sched(1u << 20, &metrics);
  sched.Register(42, 1);
  ASSERT_TRUE(sched.HasSubscribers(1));

  sched.OnAppend(1, "a", "v0", Window(0, 1000));
  sched.OnAppend(1, "a", "v1", Window(0, 1000));
  sched.OnAppend(1, "b", "v2", Window(0, 1000));
  EXPECT_FALSE(sched.has_fired()) << "event time has not reached 1000 yet";
  EXPECT_GT(sched.shadow_bytes(), 0u);

  // A tuple in [1000, 2000) proves event time reached 1000: [0, 1000) can no
  // longer grow for an in-order stream, so it fires.
  sched.OnAppend(1, "a", "w1", Window(1000, 2000));
  ASSERT_TRUE(sched.has_fired());

  std::vector<FiredPush> fired;
  sched.TakeFired(&fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].store_id, 1u);
  EXPECT_EQ(fired[0].window, Window(0, 1000));
  EXPECT_EQ(fired[0].conn_ids, (std::vector<uint64_t>{42}));
  ASSERT_EQ(fired[0].chunk.size(), 2u);  // key-grouped: "a" (2 values), "b" (1)
  int64_t values = 0;
  for (const WindowChunkEntry& e : fired[0].chunk) {
    values += static_cast<int64_t>(e.values.size());
  }
  EXPECT_EQ(values, 3);
  EXPECT_FALSE(sched.has_fired());
}

TEST(ShardPrefetchSchedulerTest, FiredQueueIsEarliestDeadlineFirst) {
  obs::MetricsRegistry metrics;
  ShardPrefetchScheduler sched(1u << 20, &metrics);
  sched.Register(1, 9);
  // Two overlapping shadows (merge/session shapes) pending at once; a far
  // append closes both in one step.
  sched.OnAppend(9, "k", "v", Window(0, 2000));
  sched.OnAppend(9, "k", "v", Window(0, 1000));
  sched.OnAppend(9, "k", "v", Window(2000, 3000));
  std::vector<FiredPush> fired;
  sched.TakeFired(&fired);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].window, Window(0, 1000)) << "EDF: earliest end first";
  EXPECT_EQ(fired[1].window, Window(0, 2000));
  EXPECT_LT(fired[0].push_seq, fired[1].push_seq);
}

TEST(ShardPrefetchSchedulerTest, LateAppendIntoFiredWindowInvalidates) {
  obs::MetricsRegistry metrics;
  ShardPrefetchScheduler sched(1u << 20, &metrics);
  sched.Register(1, 9);
  sched.OnAppend(9, "k", "v", Window(0, 1000));
  sched.OnAppend(9, "k", "v", Window(1000, 2000));  // fires [0, 1000)
  std::vector<FiredPush> fired;
  sched.TakeFired(&fired);
  ASSERT_EQ(fired.size(), 1u);

  // A straggler lands in the already-fired window: no new shadow may grow
  // there (a second push could never match the client's count anyway).
  sched.OnAppend(9, "late", "v", Window(0, 1000));
  EXPECT_FALSE(sched.has_fired());
  sched.OnAppend(9, "late", "v", Window(0, 1000));
  EXPECT_FALSE(sched.has_fired());
}

TEST(ShardPrefetchSchedulerTest, ConsumedWindowDropsShadowAsWaste) {
  obs::MetricsRegistry metrics;
  ShardPrefetchScheduler sched(1u << 20, &metrics);
  sched.Register(1, 9);
  sched.OnAppend(9, "k", "v", Window(0, 1000));
  ASSERT_GT(sched.shadow_bytes(), 0u);
  // The client reads (or drops) the window before it ever fired.
  sched.OnWindowConsumed(9, Window(0, 1000));
  EXPECT_EQ(sched.shadow_bytes(), 0u);
  // Event time moving on afterwards must not fire the consumed window.
  sched.OnAppend(9, "k", "v", Window(1000, 2000));
  std::vector<FiredPush> fired;
  sched.TakeFired(&fired);
  EXPECT_TRUE(fired.empty());
}

TEST(ShardPrefetchSchedulerTest, BudgetOverflowAbandonsWindow) {
  obs::MetricsRegistry metrics;
  ShardPrefetchScheduler sched(100, &metrics);  // tiny budget
  sched.Register(1, 9);
  sched.OnAppend(9, "k", std::string(40, 'x'), Window(0, 1000));
  sched.OnAppend(9, "k", std::string(40, 'x'), Window(0, 1000));  // over 100
  EXPECT_EQ(sched.shadow_bytes(), 0u) << "over-budget window abandoned whole";
  // Closing the window must NOT push the partial shadow.
  sched.OnAppend(9, "k", "v", Window(1000, 2000));
  std::vector<FiredPush> fired;
  sched.TakeFired(&fired);
  EXPECT_TRUE(fired.empty());
  // Consuming the window clears the abandonment; the next incarnation of the
  // window (after a merge or re-open) shadows normally again.
  sched.OnWindowConsumed(9, Window(0, 1000));
}

TEST(ShardPrefetchSchedulerTest, UnregisterLastSubscriberDropsShadows) {
  obs::MetricsRegistry metrics;
  ShardPrefetchScheduler sched(1u << 20, &metrics);
  sched.Register(1, 9);
  sched.Register(2, 9);
  sched.OnAppend(9, "k", "v", Window(0, 1000));
  sched.Unregister(1);
  EXPECT_TRUE(sched.HasSubscribers(9));
  EXPECT_GT(sched.shadow_bytes(), 0u);
  sched.Unregister(2);
  EXPECT_FALSE(sched.HasSubscribers(9));
  EXPECT_EQ(sched.shadow_bytes(), 0u);
}

// ----- end-to-end: a push-enabled Client against a loopback server -----

OperatorStateSpec AarSpec(const std::string& name) {
  OperatorStateSpec spec;
  spec.name = name;
  spec.window_kind = WindowKind::kTumbling;
  spec.incremental = false;
  spec.window_size_ms = 1000;
  return spec;
}

// Drains a window through the chunked read protocol into key → values.
Status ReadWindow(net::Client* client, uint64_t handle, const Window& w,
                  std::map<std::string, std::vector<std::string>>* out) {
  out->clear();
  bool done = false;
  while (!done) {
    std::vector<WindowChunkEntry> chunk;
    FLOWKV_RETURN_IF_ERROR(client->GetWindowChunk(handle, w, &chunk, &done));
    for (WindowChunkEntry& e : chunk) {
      auto& values = (*out)[e.key];
      for (std::string& v : e.values) {
        values.push_back(std::move(v));
      }
    }
  }
  return Status::Ok();
}

class NetPrefetchE2ETest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeTempDir("net_prefetch"); }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
    }
    RemoveDirRecursively(dir_).IgnoreError();
  }

  void StartServer(bool server_push) {
    net::ServerOptions options;
    options.num_shards = 2;
    options.data_dir = JoinPath(dir_, "server_data");
    options.checkpoint_dir = JoinPath(dir_, "server_ckpt");
    options.enable_prefetch_push = server_push;
    ASSERT_TRUE(net::Server::Start(options, &server_).ok());
  }

  std::unique_ptr<net::Client> PushClientTo(int port) {
    net::ClientOptions copts;
    copts.port = port;
    copts.enable_prefetch_push = true;
    copts.jitter_seed = 17;
    std::unique_ptr<net::Client> client;
    EXPECT_TRUE(net::Client::Connect(copts, &client).ok());
    return client;
  }

  std::string dir_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(NetPrefetchE2ETest, ClosedWindowIsServedFromPushedCache) {
  StartServer(/*server_push=*/true);
  std::unique_ptr<net::Client> client = PushClientTo(server_->port());
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->push_negotiated());

  uint64_t h = 0;
  StorePattern pattern;
  ASSERT_TRUE(client->OpenStore("t.prefetch.h0", AarSpec("prefetch-op"), &h, &pattern).ok());
  ASSERT_EQ(pattern, StorePattern::kAppendAligned);

  const Window w0(0, 1000);
  const Window w1(1000, 2000);
  std::map<std::string, std::vector<std::string>> expected;
  for (int i = 0; i < 8; ++i) {
    const std::string key = "k" + std::to_string(i % 4);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(client->AppendAligned(h, key, value, w0).ok());
    expected[key].push_back(value);
  }
  // The same keys in the next window advance the store's event-time
  // high-water mark past w0.end, so its shard fires the w0 shadow — and
  // queues the push BEFORE acking these appends.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client->AppendAligned(h, "k" + std::to_string(i), "next", w1).ok());
  }
  ASSERT_TRUE(client->Flush().ok());

  // Flush acked ⇒ the client read the pushes ahead of the ack: the hit is
  // deterministic.
  std::map<std::string, std::vector<std::string>> got;
  ASSERT_TRUE(ReadWindow(client.get(), h, w0, &got).ok());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(client->cache_counters().hits, 1);
  EXPECT_EQ(client->cache_counters().misses, 0);

  // The cache hit consumed the server-side copy with kDropWindow: after the
  // drop flushes, a second (blocking) client must find the window empty.
  ASSERT_TRUE(client->Flush().ok());
  net::ClientOptions bopts;
  bopts.port = server_->port();
  std::unique_ptr<net::Client> blocking;
  ASSERT_TRUE(net::Client::Connect(bopts, &blocking).ok());
  uint64_t h2 = 0;
  ASSERT_TRUE(blocking->OpenStore("t.prefetch.h0", AarSpec("prefetch-op"), &h2, nullptr).ok());
  std::map<std::string, std::vector<std::string>> after_drop;
  ASSERT_TRUE(ReadWindow(blocking.get(), h2, w0, &after_drop).ok());
  EXPECT_TRUE(after_drop.empty()) << "kDropWindow did not consume server state";
}

// Push before ack must hold when the store's shard sits on another reactor
// than the connection: the shard posts its push to the connection's
// reactor, and the ack must not overtake it when the request completes
// there. The store is opened by a connection on one reactor, so it lives
// there, and appended from a connection on the other. Every window closed by
// an acked flush is then a hit, never a miss.
TEST_F(NetPrefetchE2ETest, EveryFlushedWindowIsAHitAcrossReactors) {
  net::ServerOptions options;
  options.num_shards = 2;
  options.data_dir = JoinPath(dir_, "server_data");
  options.enable_prefetch_push = true;
  ASSERT_TRUE(net::Server::Start(options, &server_).ok());
  net::ClientOptions oopts;
  oopts.port = server_->port();
  std::unique_ptr<net::Client> opener;
  ASSERT_TRUE(net::Client::Connect(oopts, &opener).ok());
  uint64_t opened = 0;
  ASSERT_TRUE(
      opener->OpenStore("t.reactors.h0", AarSpec("reactors-op"), &opened, nullptr).ok());
  // Round-robin accept puts the next connection on the other reactor.
  std::unique_ptr<net::Client> client = PushClientTo(server_->port());
  ASSERT_NE(client, nullptr);
  uint64_t h = 0;
  ASSERT_TRUE(client->OpenStore("t.reactors.h0", AarSpec("reactors-op"), &h, nullptr).ok());

  const int kWindows = 100;
  for (int i = 0; i < kWindows; ++i) {
    const Window w(i * 1000, (i + 1) * 1000);
    const Window next((i + 1) * 1000, (i + 2) * 1000);
    for (int k = 0; k < 16; ++k) {
      ASSERT_TRUE(client->AppendAligned(h, "k" + std::to_string(k), "v", w).ok());
    }
    for (int k = 0; k < 16; ++k) {
      ASSERT_TRUE(client->AppendAligned(h, "k" + std::to_string(k), "next", next).ok());
    }
    ASSERT_TRUE(client->Flush().ok());
    std::map<std::string, std::vector<std::string>> got;
    ASSERT_TRUE(ReadWindow(client.get(), h, w, &got).ok());
    ASSERT_EQ(got.size(), 16u) << "window " << i;
  }
  EXPECT_EQ(client->cache_counters().hits, kWindows);
  EXPECT_EQ(client->cache_counters().misses, 0);

  // Every append was posted across reactors to the store's shard.
  std::string json;
  ASSERT_TRUE(client->Stats(&json).ok());
  tools::JsonValue stats;
  ASSERT_TRUE(tools::ParseJson(json, &stats)) << json;
  int64_t cross_reactor = 0;
  for (const tools::JsonValue& shard : stats.Get("shards")->arr) {
    cross_reactor += static_cast<int64_t>(shard.Num("cross_reactor_dispatches"));
  }
  EXPECT_GE(cross_reactor, kWindows);
}

TEST_F(NetPrefetchE2ETest, CrossClientPushIsStaleWithoutLocalHistory) {
  StartServer(/*server_push=*/true);
  std::unique_ptr<net::Client> subscriber = PushClientTo(server_->port());
  ASSERT_NE(subscriber, nullptr);
  uint64_t h = 0;
  ASSERT_TRUE(subscriber->OpenStore("t.shared.h0", AarSpec("shared-op"), &h, nullptr).ok());

  // Another client writes the store; the subscriber gets the push but never
  // appended locally — the count check must park it as stale, not serve it.
  net::ClientOptions wopts;
  wopts.port = server_->port();
  std::unique_ptr<net::Client> writer;
  ASSERT_TRUE(net::Client::Connect(wopts, &writer).ok());
  uint64_t wh = 0;
  ASSERT_TRUE(writer->OpenStore("t.shared.h0", AarSpec("shared-op"), &wh, nullptr).ok());
  ASSERT_TRUE(writer->AppendAligned(wh, "k", "v", Window(0, 1000)).ok());
  ASSERT_TRUE(writer->AppendAligned(wh, "k", "v", Window(1000, 2000)).ok());
  ASSERT_TRUE(writer->Flush().ok());

  // The push waits in the subscriber's socket until its next call reads it
  // ahead of the response; ping until it has been read.
  for (int i = 0; i < 500 && subscriber->cache_counters().stale == 0; ++i) {
    ASSERT_TRUE(subscriber->Ping().ok());
  }
  EXPECT_EQ(subscriber->cache_counters().stale, 1);
  EXPECT_EQ(subscriber->cache_counters().hits, 0);
  EXPECT_EQ(subscriber->cache_bytes(), 0u);

  // The subscriber still reads the window correctly — remotely.
  std::map<std::string, std::vector<std::string>> got;
  ASSERT_TRUE(ReadWindow(subscriber.get(), h, Window(0, 1000), &got).ok());
  ASSERT_EQ(got.count("k"), 1u);
  EXPECT_EQ(got["k"].size(), 1u);
}

// The server-wide count of pushes shed at a connection's outbox bound, from
// kStats.
int64_t PushesDropped(net::Client* client) {
  std::string json;
  EXPECT_TRUE(client->Stats(&json).ok());
  tools::JsonValue doc;
  EXPECT_TRUE(tools::ParseJson(json, &doc)) << json;
  const tools::JsonValue* prefetch = doc.Get("prefetch");
  return prefetch == nullptr ? -1 : static_cast<int64_t>(prefetch->Num("pushes_dropped"));
}

// Pushes another connection triggers wait in an idle subscriber's socket
// until its next call. Once the socket buffers and then the connection's
// outbox bound are full, the server sheds further pushes rather than stall,
// and the subscriber still reads every window correctly — remotely, since it
// has no local history for them.
TEST_F(NetPrefetchE2ETest, IdleSubscriberGetsPushesShedAndReadsRemotely) {
  net::ServerOptions options;
  options.num_shards = 2;
  options.data_dir = JoinPath(dir_, "server_data");
  options.enable_prefetch_push = true;
  options.max_outbox_bytes = 64u << 10;
  ASSERT_TRUE(net::Server::Start(options, &server_).ok());
  std::unique_ptr<net::Client> subscriber = PushClientTo(server_->port());
  ASSERT_NE(subscriber, nullptr);
  ASSERT_TRUE(subscriber->push_negotiated());
  uint64_t h = 0;
  ASSERT_TRUE(subscriber->OpenStore("t.idle.h0", AarSpec("idle-op"), &h, nullptr).ok());

  net::ClientOptions wopts;
  wopts.port = server_->port();
  std::unique_ptr<net::Client> writer;
  ASSERT_TRUE(net::Client::Connect(wopts, &writer).ok());
  uint64_t wh = 0;
  ASSERT_TRUE(writer->OpenStore("t.idle.h0", AarSpec("idle-op"), &wh, nullptr).ok());

  // Each window closes the one before it, so every window's push (8 keys,
  // 4 KiB values) queues behind the idle subscriber. Stop once the server
  // reports a shed push; the cap bounds the run if it never does.
  const int kKeys = 8;
  const std::string filler(4096, 'x');
  auto value = [&](int window, int key) {
    return filler + std::to_string(window) + "." + std::to_string(key);
  };
  int windows = 0;
  int64_t dropped = 0;
  while (dropped == 0 && windows < 1024) {
    for (int i = 0; i < 16; ++i, ++windows) {
      const Window w(windows * 1000, (windows + 1) * 1000);
      for (int k = 0; k < kKeys; ++k) {
        ASSERT_TRUE(writer->AppendAligned(wh, "k" + std::to_string(k), value(windows, k), w).ok());
      }
    }
    ASSERT_TRUE(writer->Flush().ok());
    dropped = PushesDropped(writer.get());
  }
  EXPECT_GT(dropped, 0) << "pushes never outgrew the outbox bound after " << windows
                        << " windows";

  // The first window's push was delivered, a late one's was shed; both read
  // back whole, and neither from the cache.
  for (const int i : {0, windows - 2}) {
    std::map<std::string, std::vector<std::string>> got;
    ASSERT_TRUE(ReadWindow(subscriber.get(), h, Window(i * 1000, (i + 1) * 1000), &got).ok());
    ASSERT_EQ(got.size(), static_cast<size_t>(kKeys)) << "window " << i;
    for (int k = 0; k < kKeys; ++k) {
      EXPECT_EQ(got["k" + std::to_string(k)], std::vector<std::string>{value(i, k)})
          << "window " << i;
    }
  }
  EXPECT_EQ(subscriber->cache_counters().hits, 0);
  EXPECT_GT(subscriber->cache_counters().stale, 0);
  EXPECT_EQ(subscriber->cache_bytes(), 0u);
}

// Two clients on one thread count into their own registries: one client's
// cache hit and the other's retries against a fenced server never show up
// in the other client's counters.
TEST_F(NetPrefetchE2ETest, TwoClientsOnOneThreadKeepSeparateCounters) {
  StartServer(/*server_push=*/true);
  std::unique_ptr<net::Client> reader = PushClientTo(server_->port());
  ASSERT_NE(reader, nullptr);

  net::ServerOptions fenced_options;
  fenced_options.num_shards = 2;
  fenced_options.data_dir = JoinPath(dir_, "fenced_data");
  std::unique_ptr<net::Server> fenced;
  ASSERT_TRUE(net::Server::Start(fenced_options, &fenced).ok());
  fenced->Fence();
  net::ClientOptions copts;
  copts.port = fenced->port();
  copts.max_retries = 2;
  copts.jitter_seed = 17;
  std::unique_ptr<net::Client> retrier;
  ASSERT_TRUE(net::Client::Connect(copts, &retrier).ok());

  uint64_t h = 0;
  ASSERT_TRUE(reader->OpenStore("t.isolated.h0", AarSpec("isolated-op"), &h, nullptr).ok());
  ASSERT_TRUE(reader->AppendAligned(h, "k", "v", Window(0, 1000)).ok());
  ASSERT_TRUE(reader->AppendAligned(h, "k", "next", Window(1000, 2000)).ok());
  ASSERT_TRUE(reader->Flush().ok());
  std::map<std::string, std::vector<std::string>> got;
  ASSERT_TRUE(ReadWindow(reader.get(), h, Window(0, 1000), &got).ok());
  EXPECT_TRUE(retrier->OpenStore("t.fenced.h0", AarSpec("fenced-op"), &h, nullptr)
                  .IsFencedOff());

  EXPECT_EQ(reader->metrics().Sum("client.prefetch_hits"), 1);
  EXPECT_EQ(reader->metrics().Sum("client.retries"), 0);
  EXPECT_EQ(retrier->metrics().Sum("client.prefetch_hits"), 0);
  EXPECT_EQ(retrier->metrics().Sum("client.retries"), copts.max_retries);
  fenced->Stop();
}

TEST_F(NetPrefetchE2ETest, ServerWithPushDisabledDegrades) {
  StartServer(/*server_push=*/false);
  std::unique_ptr<net::Client> client = PushClientTo(server_->port());
  ASSERT_NE(client, nullptr);
  EXPECT_FALSE(client->handshake_view().prefetch_push)
      << "the handshake must report no push when the server opts out";
  EXPECT_FALSE(client->push_negotiated());

  uint64_t h = 0;
  ASSERT_TRUE(client->OpenStore("t.nopush.h0", AarSpec("nopush-op"), &h, nullptr).ok());
  ASSERT_TRUE(client->AppendAligned(h, "k", "v", Window(0, 1000)).ok());
  ASSERT_TRUE(client->Flush().ok());
  std::map<std::string, std::vector<std::string>> got;
  ASSERT_TRUE(ReadWindow(client.get(), h, Window(0, 1000), &got).ok());
  EXPECT_EQ(got["k"], (std::vector<std::string>{"v"}));
  EXPECT_EQ(client->cache_counters().hits, 0);
}

TEST_F(NetPrefetchE2ETest, StatsExposePrefetchCounters) {
  StartServer(/*server_push=*/true);
  std::unique_ptr<net::Client> client = PushClientTo(server_->port());
  ASSERT_NE(client, nullptr);
  uint64_t h = 0;
  ASSERT_TRUE(client->OpenStore("t.stats.h0", AarSpec("stats-op"), &h, nullptr).ok());
  ASSERT_TRUE(client->AppendAligned(h, "k", "v", Window(0, 1000)).ok());
  ASSERT_TRUE(client->AppendAligned(h, "k", "v", Window(1000, 2000)).ok());
  ASSERT_TRUE(client->Flush().ok());

  std::string json;
  ASSERT_TRUE(client->Stats(&json).ok());
  EXPECT_NE(json.find("\"prefetch\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"fired\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"pushes_sent\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"shadow_bytes\""), std::string::npos) << json;
}

// ----- end-to-end: NEXMark equivalence with prefetch enabled -----

using Results = std::vector<std::tuple<int64_t, std::string, std::string>>;

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

class PrefetchEquivalenceTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir("net_prefetch_e2e");
    net::ServerOptions options;
    options.num_shards = 2;
    options.data_dir = JoinPath(dir_, "server_data");
    options.checkpoint_dir = JoinPath(dir_, "server_ckpt");
    ASSERT_TRUE(net::Server::Start(options, &server_).ok());
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
    }
    RemoveDirRecursively(dir_).IgnoreError();
  }

  std::string dir_;
  std::unique_ptr<net::Server> server_;
};

TEST_P(PrefetchEquivalenceTest, RemoteWithPrefetchMatchesEmbedded) {
  const std::string query = GetParam();

  NexmarkConfig nexmark;
  nexmark.events_per_worker = 8'000;
  nexmark.num_people = 150;
  nexmark.num_auctions = 150;
  nexmark.inter_event_ms = 10;

  QueryParams params;
  params.window_size_ms = 20'000;
  params.session_gap_ms = 2'000;

  FlowKvBackendFactory embedded(JoinPath(dir_, "embedded"), FlowKvOptions{});
  RunOutcome reference = RunQueryOn(query, &embedded, nexmark, params);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
  ASSERT_FALSE(reference.results.empty()) << "query produced no output";

  net::ClientOptions copts;
  copts.port = server_->port();
  copts.request_timeout_ms = 60'000;
  copts.enable_prefetch_push = true;  // subscribes and serves from the cache
  RemoteBackendFactory remote(copts);
  RunOutcome remote_run = RunQueryOn(query, &remote, nexmark, params);
  ASSERT_TRUE(remote_run.status.ok()) << remote_run.status.ToString();
  EXPECT_EQ(remote_run.results.size(), reference.results.size());
  EXPECT_EQ(remote_run.results, reference.results)
      << "prefetch-enabled remote state diverges from embedded FlowKV";
}

INSTANTIATE_TEST_SUITE_P(AllQueries, PrefetchEquivalenceTest,
                         ::testing::ValuesIn(NexmarkQueryNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace flowkv
