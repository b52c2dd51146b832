// End-to-end remote-state equivalence: every NEXMark query runs once against
// the embedded FlowKV backend and once through RemoteBackend → loopback
// flowkv_server, and must produce the identical multiset of results. This is
// the acceptance test for the state-server subsystem: the wire protocol,
// sharding, batching, reads carrying pending writes, cross-shard window
// drains, and the RMW accumulator cache (at its default budget and at one
// too small to hold a query's live windows) are all on the path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/backends/flowkv_backend.h"
#include "src/backends/remote_backend.h"
#include "src/common/env.h"
#include "src/net/server.h"
#include "src/nexmark/generator.h"
#include "src/nexmark/queries.h"
#include "src/obs/metrics.h"
#include "src/spe/job_runner.h"

namespace flowkv {
namespace {

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

class RemoteEquivalenceTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir("net_e2e");
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

  // Runs `query` embedded and remote (with `copts` on the client) and
  // expects identical results.
  void ExpectRemoteMatchesEmbedded(const std::string& query, net::ClientOptions copts) {
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

    copts.port = server_->port();
    copts.request_timeout_ms = 60'000;
    RemoteBackendFactory remote(copts);
    RunOutcome remote_run = RunQueryOn(query, &remote, nexmark, params);
    ASSERT_TRUE(remote_run.status.ok()) << remote_run.status.ToString();
    EXPECT_EQ(remote_run.results.size(), reference.results.size());
    EXPECT_EQ(remote_run.results, reference.results)
        << "remote state server diverges from embedded FlowKV";
  }

  std::string dir_;
  std::unique_ptr<net::Server> server_;
};

TEST_P(RemoteEquivalenceTest, RemoteMatchesEmbedded) {
  ExpectRemoteMatchesEmbedded(GetParam(), net::ClientOptions{});
}

INSTANTIATE_TEST_SUITE_P(AllQueries, RemoteEquivalenceTest,
                         ::testing::ValuesIn(NexmarkQueryNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// A budget that holds only a handful of accumulators: most Puts overflow it
// and drop their entry, so Gets alternate between cache hits and server
// reads within one window's lifetime.
class TinyRmwCacheEquivalenceTest : public RemoteEquivalenceTest {};

TEST_P(TinyRmwCacheEquivalenceTest, RemoteMatchesEmbedded) {
  net::ClientOptions copts;
  copts.read_ahead_cache_bytes = 512;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const int64_t hits = reg.GetCounter("remote.rmw_cache_hits")->Value();
  const int64_t misses = reg.GetCounter("remote.rmw_cache_misses")->Value();
  ExpectRemoteMatchesEmbedded(GetParam(), copts);
  EXPECT_GT(reg.GetCounter("remote.rmw_cache_hits")->Value(), hits);
  EXPECT_GT(reg.GetCounter("remote.rmw_cache_misses")->Value(), misses);
}

INSTANTIATE_TEST_SUITE_P(RmwQueries, TinyRmwCacheEquivalenceTest,
                         ::testing::Values("q5", "q11"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// The cache forgets a removed accumulator: the next Get goes to the server,
// which no longer has it either.
TEST_F(RemoteEquivalenceTest, GetAfterRemoveReachesTheServer) {
  net::ClientOptions copts;
  copts.port = server_->port();
  RemoteBackendFactory factory(copts);
  std::unique_ptr<StateBackend> backend;
  ASSERT_TRUE(factory.CreateBackend(0, "remove", &backend).ok());
  OperatorStateSpec spec;
  spec.name = "remove";
  spec.window_kind = WindowKind::kTumbling;
  spec.incremental = true;
  spec.window_size_ms = 1000;
  std::unique_ptr<RmwState> state;
  ASSERT_TRUE(backend->CreateRmw(spec, &state).ok());
  const Window w(0, 1000);

  obs::Counter* hits = obs::MetricsRegistry::Global().GetCounter("remote.rmw_cache_hits");
  obs::Counter* misses = obs::MetricsRegistry::Global().GetCounter("remote.rmw_cache_misses");
  ASSERT_TRUE(state->Put("k", w, "v").ok());
  std::string value;
  const int64_t hits_before = hits->Value();
  ASSERT_TRUE(state->Get("k", w, &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_EQ(hits->Value() - hits_before, 1);

  ASSERT_TRUE(state->Remove("k", w).ok());
  const int64_t misses_before = misses->Value();
  EXPECT_TRUE(state->Get("k", w, &value).IsNotFound());
  EXPECT_EQ(misses->Value() - misses_before, 1);
}

}  // namespace
}  // namespace flowkv
