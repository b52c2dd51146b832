// End-to-end distributed tracing and live introspection:
//  - a NEXMark query through RemoteBackend → loopback flowkv_server with
//    tracing enabled produces client spans and server spans that share
//    trace ids, with the queue-wait vs execution breakdown present;
//  - the kStats op returns a parseable introspection document whose slow
//    log captures requests above the threshold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/backends/remote_backend.h"
#include "src/common/env.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/nexmark/generator.h"
#include "src/nexmark/queries.h"
#include "src/obs/trace.h"
#include "src/spe/job_runner.h"
#include "tools/stat_format.h"

namespace flowkv {
namespace {

class NullCollector : public Collector {
 public:
  Status Emit(const Event& event) override {
    ++results;
    return Status::Ok();
  }
  int results = 0;
};

// Runs `query` once against `factory` (worker 0), returning the status.
Status RunQueryOn(const std::string& query, StateBackendFactory* factory,
                  int* results_out) {
  NexmarkConfig nexmark;
  nexmark.events_per_worker = 4'000;
  nexmark.num_people = 150;
  nexmark.num_auctions = 150;
  nexmark.inter_event_ms = 10;
  QueryParams params;
  params.window_size_ms = 20'000;
  params.session_gap_ms = 2'000;

  NullCollector collector;
  Pipeline pipeline;
  FLOWKV_RETURN_IF_ERROR(BuildNexmarkQuery(query, params, &pipeline));
  FLOWKV_RETURN_IF_ERROR(pipeline.Open(factory, 0, &collector));
  NexmarkSource source(nexmark, 0);
  Event event;
  int64_t max_ts = 0;
  int since_watermark = 0;
  while (source.Next(&event)) {
    FLOWKV_RETURN_IF_ERROR(pipeline.Process(event));
    max_ts = event.timestamp;
    if (++since_watermark >= 128) {
      since_watermark = 0;
      FLOWKV_RETURN_IF_ERROR(pipeline.AdvanceWatermark(max_ts));
    }
  }
  FLOWKV_RETURN_IF_ERROR(pipeline.Finish());
  if (results_out != nullptr) {
    *results_out = collector.results;
  }
  return Status::Ok();
}

class NetTraceE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir("net_trace_e2e");
    obs::Tracing::Reset();
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
    }
    obs::Tracing::Disable();
    obs::Tracing::Reset();
    RemoveDirRecursively(dir_).IgnoreError();
  }

  void StartServer(net::ServerOptions options) {
    options.num_shards = 2;
    options.data_dir = JoinPath(dir_, "server_data");
    ASSERT_TRUE(net::Server::Start(options, &server_).ok());
  }

  std::string dir_;
  std::unique_ptr<net::Server> server_;
};

// Collects the trace_id arg values of all events named `name`.
std::set<int64_t> TraceIdsOf(const std::vector<obs::TraceEvent>& events,
                             const char* name) {
  std::set<int64_t> ids;
  for (const obs::TraceEvent& ev : events) {
    if (std::strcmp(ev.name, name) != 0) continue;
    for (int i = 0; i < ev.n_args; ++i) {
      if (std::strcmp(ev.arg_name[i], "trace_id") == 0 && ev.arg_val[i] != 0) {
        ids.insert(ev.arg_val[i]);
      }
    }
  }
  return ids;
}

TEST_F(NetTraceE2eTest, ClientAndServerSpansShareTraceIds) {
  StartServer(net::ServerOptions{});
  obs::Tracing::Enable();

  net::ClientOptions copts;
  copts.port = server_->port();
  copts.request_timeout_ms = 60'000;
  RemoteBackendFactory remote(copts);
  int results = 0;
  ASSERT_TRUE(RunQueryOn("q11", &remote, &results).ok());
  EXPECT_GT(results, 0);

  // Quiesce all writers (shard threads included) before reading the rings.
  server_->Stop();
  server_.reset();
  obs::Tracing::Disable();

  const std::vector<obs::TraceEvent> events = obs::Tracing::SnapshotEvents();
  const std::set<int64_t> client_ids = TraceIdsOf(events, "client_batch");
  const std::set<int64_t> queue_ids = TraceIdsOf(events, "server_queue_wait");
  const std::set<int64_t> exec_ids = TraceIdsOf(events, "server_exec");
  const std::set<int64_t> request_ids = TraceIdsOf(events, "server_request");

  // The client stamped ids and the server continued them through the shard
  // queue and execution — the property that makes a merged client+server
  // Chrome trace line up.
  ASSERT_FALSE(client_ids.empty()) << "client emitted no traced batches";
  ASSERT_FALSE(queue_ids.empty()) << "no queue-wait sub-spans";
  ASSERT_FALSE(exec_ids.empty()) << "no execution sub-spans";
  for (int64_t id : queue_ids) {
    EXPECT_TRUE(client_ids.count(id)) << "queue-wait span with unknown trace id";
  }
  for (int64_t id : exec_ids) {
    EXPECT_TRUE(client_ids.count(id)) << "exec span with unknown trace id";
  }
  for (int64_t id : request_ids) {
    EXPECT_TRUE(client_ids.count(id)) << "request span with unknown trace id";
  }

  // The export carries the process identity used to merge the two sides.
  obs::Tracing::SetExportProcess(2, "flowkv_server");
  const std::string trace_path = JoinPath(dir_, "trace.json");
  ASSERT_TRUE(obs::Tracing::ExportChromeTrace(trace_path));
  std::string exported;
  ASSERT_TRUE(ReadFileToString(trace_path, &exported).ok());
  EXPECT_NE(exported.find("\"process_name\""), std::string::npos);
  EXPECT_NE(exported.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(exported.find("server_queue_wait"), std::string::npos);
  EXPECT_NE(exported.find("client_batch"), std::string::npos);
}

TEST_F(NetTraceE2eTest, StatsOpReportsShardsAndSlowLog) {
  net::ServerOptions options;
  // Tiny positive threshold: every finished request lands in the slow log
  // (threshold 0 disables it), standing in for an injected-latency request.
  options.slow_request_threshold_ms = 1e-6;
  options.slow_log_size = 8;
  StartServer(options);

  net::ClientOptions copts;
  copts.port = server_->port();
  std::unique_ptr<net::Client> client;
  ASSERT_TRUE(net::Client::Connect(copts, &client).ok());

  OperatorStateSpec spec;
  spec.name = "stats";
  spec.window_kind = WindowKind::kTumbling;
  spec.incremental = true;
  spec.window_size_ms = 1000;
  uint64_t handle = 0;
  StorePattern pattern;
  ASSERT_TRUE(client->OpenStore("stats.h0", spec, &handle, &pattern).ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        client->RmwPut(handle, "k" + std::to_string(i % 8), Window(0, 1000),
                       "v" + std::to_string(i))
            .ok());
  }
  ASSERT_TRUE(client->Flush().ok());

  std::string json;
  ASSERT_TRUE(client->Stats(&json).ok());
  tools::JsonValue doc;
  ASSERT_TRUE(tools::ParseJson(json, &doc)) << json;

  const tools::JsonValue* server = doc.Get("server");
  ASSERT_NE(server, nullptr);
  EXPECT_GE(server->Num("requests"), 2.0);  // open + flushed batch at least
  EXPECT_GT(server->Num("bytes_in"), 0.0);
  EXPECT_GE(server->Num("open_conns"), 1.0);

  const tools::JsonValue* shards = doc.Get("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->arr.size(), 2u);
  double total_shard_ops = 0;
  for (const tools::JsonValue& shard : shards->arr) {
    total_shard_ops += shard.Num("ops");
    EXPECT_GE(shard.Num("queue_depth"), 0.0);
  }
  EXPECT_GE(total_shard_ops, 64.0);

  const tools::JsonValue* slow = doc.Get("slow_requests");
  ASSERT_NE(slow, nullptr);
  ASSERT_FALSE(slow->arr.empty()) << "slow log missed threshold-crossing requests";
  // Slowest-first ordering, and the breakdown never exceeds the total.
  double prev = 1e18;
  for (const tools::JsonValue& s : slow->arr) {
    const double total_ms = s.Num("total_ms");
    EXPECT_LE(total_ms, prev);
    prev = total_ms;
    EXPECT_LE(s.Num("exec_ms"), total_ms + 1e-3);
    EXPECT_GE(s.Num("ops"), 1.0);
  }

  // A second snapshot reports a fresh (smaller) rate window.
  std::string json2;
  ASSERT_TRUE(client->Stats(&json2).ok());
  tools::JsonValue doc2;
  ASSERT_TRUE(tools::ParseJson(json2, &doc2));
  EXPECT_LE(doc2.Num("window_s"), doc.Num("window_s"));
}

}  // namespace
}  // namespace flowkv
