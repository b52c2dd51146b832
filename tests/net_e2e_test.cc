// End-to-end remote-state equivalence: every NEXMark query runs once against
// the embedded FlowKV backend and once through RemoteBackend → loopback
// flowkv_server, and must produce the identical multiset of results. This is
// the acceptance test for the state-server subsystem: the wire protocol,
// store placement, batching, reads carrying pending writes, multi-chunk
// window drains, and the RMW accumulator cache (at its default budget and at one
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

// RMW accumulator cache counters, summed over a run's backends.
struct CacheTally {
  int64_t hits = 0;
  int64_t misses = 0;
};

// Forwards to a remote backend and, when destroyed, adds its client's cache
// counters to a tally: a query's backends die with its pipeline.
class TallyingBackend : public StateBackend {
 public:
  TallyingBackend(std::unique_ptr<StateBackend> inner, CacheTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}
  ~TallyingBackend() override {
    const obs::MetricsRegistry& metrics = RemoteBackendClient(inner_.get())->metrics();
    tally_->hits += metrics.Sum("remote.rmw_cache_hits");
    tally_->misses += metrics.Sum("remote.rmw_cache_misses");
  }

  Status CreateAppendAligned(const OperatorStateSpec& spec,
                             std::unique_ptr<AppendAlignedState>* out) override {
    return inner_->CreateAppendAligned(spec, out);
  }
  Status CreateAppendUnaligned(const OperatorStateSpec& spec,
                               std::unique_ptr<AppendUnalignedState>* out) override {
    return inner_->CreateAppendUnaligned(spec, out);
  }
  Status CreateRmw(const OperatorStateSpec& spec, std::unique_ptr<RmwState>* out) override {
    return inner_->CreateRmw(spec, out);
  }
  StoreStats GatherStats() const override { return inner_->GatherStats(); }
  Status CheckpointTo(const std::string& checkpoint_dir) const override {
    return inner_->CheckpointTo(checkpoint_dir);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<StateBackend> inner_;
  CacheTally* tally_;
};

class TallyingFactory : public StateBackendFactory {
 public:
  TallyingFactory(StateBackendFactory* inner, CacheTally* tally)
      : inner_(inner), tally_(tally) {}

  Status CreateBackend(int worker, const std::string& operator_name,
                       std::unique_ptr<StateBackend>* out) override {
    std::unique_ptr<StateBackend> backend;
    FLOWKV_RETURN_IF_ERROR(inner_->CreateBackend(worker, operator_name, &backend));
    *out = std::make_unique<TallyingBackend>(std::move(backend), tally_);
    return Status::Ok();
  }
  std::string name() const override { return inner_->name(); }

 private:
  StateBackendFactory* inner_;
  CacheTally* tally_;
};

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
  // expects identical results. The remote run's RMW cache counters are added
  // to `tally` when given.
  void ExpectRemoteMatchesEmbedded(const std::string& query, net::ClientOptions copts,
                                   CacheTally* tally = nullptr) {
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
    CacheTally unused;
    TallyingFactory tallying(&remote, tally != nullptr ? tally : &unused);
    RunOutcome remote_run = RunQueryOn(query, &tallying, nexmark, params);
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
  CacheTally tally;
  ExpectRemoteMatchesEmbedded(GetParam(), copts, &tally);
  EXPECT_GT(tally.hits, 0);
  EXPECT_GT(tally.misses, 0);
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

  const obs::MetricsRegistry& metrics = RemoteBackendClient(backend.get())->metrics();
  ASSERT_TRUE(state->Put("k", w, "v").ok());
  std::string value;
  const int64_t hits_before = metrics.Sum("remote.rmw_cache_hits");
  ASSERT_TRUE(state->Get("k", w, &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_EQ(metrics.Sum("remote.rmw_cache_hits") - hits_before, 1);

  ASSERT_TRUE(state->Remove("k", w).ok());
  const int64_t misses_before = metrics.Sum("remote.rmw_cache_misses");
  EXPECT_TRUE(state->Get("k", w, &value).IsNotFound());
  EXPECT_EQ(metrics.Sum("remote.rmw_cache_misses") - misses_before, 1);
}

}  // namespace
}  // namespace flowkv
