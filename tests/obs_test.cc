// End-to-end observability test (the acceptance test of the obs subsystem):
// runs a small two-worker NEXMark job with tracing and the periodic reporter
// enabled, then parses the emitted Chrome-trace JSON and metrics JSONL and
// checks they contain what the paper's plots are made of — prefetch spans,
// compaction spans, ETT prediction outcomes, and monotonic report samples.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/backends/flowkv_backend.h"
#include "src/common/env.h"
#include "src/common/stats.h"
#include "src/nexmark/generator.h"
#include "src/nexmark/queries.h"
#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/obs/reporter.h"
#include "src/obs/trace.h"
#include "src/spe/job_runner.h"
#include "tools/stat_format.h"

namespace flowkv {
namespace {

// Whether `text` is one well-formed JSON value with nothing after it — what
// the trace and JSONL consumers (Perfetto, jq) require.
bool IsJson(const std::string& text) {
  tools::JsonValue value;
  return tools::ParseJson(text, &value);
}

bool ReadWholeFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      nl = text.size();
    }
    if (nl > start) {
      lines.push_back(text.substr(start, nl - start));
    }
    start = nl + 1;
  }
  return lines;
}

// Extracts the integer value of `"key":<int>` from a JSON line (test-local;
// assumes the field exists — asserted by the caller).
bool ExtractInt(const std::string& json, const std::string& key, int64_t* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  *out = std::strtoll(json.c_str() + pos + needle.size(), nullptr, 10);
  return true;
}

class ObsEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeTempDir("obs_test"); }
  void TearDown() override {
    obs::Tracing::Reset();
    RemoveDirRecursively(dir_).IgnoreError();
  }
  std::string dir_;
};

TEST_F(ObsEndToEndTest, TwoWorkerJobEmitsTraceAndMetrics) {
  const std::string trace_path = JoinPath(dir_, "trace.json");
  const std::string metrics_path = JoinPath(dir_, "metrics.jsonl");

  // Q7-Session on FlowKV = the AUR pattern: session windows trigger at
  // data-dependent times, so Gets take the prefetch path, and fetch-and-
  // remove consumption accumulates dead segments until the MSA threshold
  // forces a compaction. A tiny write buffer pushes state to disk fast.
  FlowKvOptions options;
  options.write_buffer_bytes = 32 * 1024;

  NexmarkConfig nexmark;
  nexmark.events_per_worker = 30'000;
  nexmark.num_people = 2'000;
  nexmark.num_auctions = 300;
  nexmark.inter_event_ms = 10;

  QueryParams params;
  params.session_gap_ms = 24'000;
  params.window_size_ms = 480'000;

  JobConfig config;
  config.workers = 2;
  config.watermark_interval_events = 256;
  config.metrics_out_path = metrics_path;
  config.metrics_interval_ms = 20;
  config.trace_out_path = trace_path;

  FlowKvBackendFactory factory(JoinPath(dir_, "store"), options);
  JobReport report = RunJob(
      config, MakeNexmarkSourceFactory(nexmark),
      [&](int worker, Pipeline* pipeline) {
        return BuildNexmarkQuery("q7-session", params, pipeline);
      },
      &factory);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  ASSERT_EQ(report.workers.size(), 2u);

  const StoreStats stats = report.AggregateStoreStats();
  // The workload must actually exercise the machinery the trace records.
  ASSERT_GT(stats.prefetch_misses + stats.prefetch_hits, 0);
  ASSERT_GT(stats.compactions, 0);
  ASSERT_GT(stats.ett_predictions, 0);
  EXPECT_GT(stats.ett_abs_error_ms.count(), 0u);
  EXPECT_EQ(static_cast<uint64_t>(stats.ett_predictions.load()),
            stats.ett_abs_error_ms.count());

  // --- Chrome trace: well-formed JSON with the expected span/instant mix ---
  std::string trace;
  ASSERT_TRUE(ReadWholeFile(trace_path, &trace));
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(IsJson(trace)) << "trace output is not well-formed JSON";
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);

  // >= 1 prefetch span (predictive batch read) and >= 1 compaction span.
  EXPECT_NE(trace.find("\"name\":\"predictive_batch_read\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"prefetch\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"compaction\""), std::string::npos);

  // >= 1 ETT prediction record with both predicted and actual timestamps.
  const size_t ett_pos = trace.find("\"name\":\"ett_outcome\"");
  ASSERT_NE(ett_pos, std::string::npos);
  const size_t ett_end = trace.find('}', trace.find("\"args\"", ett_pos));
  const std::string ett_event = trace.substr(ett_pos, ett_end - ett_pos);
  EXPECT_NE(ett_event.find("\"predicted_ms\":"), std::string::npos);
  EXPECT_NE(ett_event.find("\"actual_ms\":"), std::string::npos);

  // --- Metrics JSONL: every line valid JSON, timestamps never decrease ---
  std::string jsonl;
  ASSERT_TRUE(ReadWholeFile(metrics_path, &jsonl));
  const std::vector<std::string> lines = SplitLines(jsonl);
  ASSERT_GE(lines.size(), 2u) << "expected at least one sample per worker";
  int64_t last_ts = 0;
  bool saw_events = false;
  bool saw_trace_health = false;
  std::vector<std::string> worker_lines;
  for (const std::string& line : lines) {
    EXPECT_TRUE(IsJson(line)) << "bad JSONL line: " << line;
    int64_t ts = 0, worker = -1, events_in = 0;
    ASSERT_TRUE(ExtractInt(line, "ts_ms", &ts)) << line;
    EXPECT_GE(ts, last_ts) << "report timestamps must be non-decreasing";
    last_ts = ts;
    // Trace-ring health lines interleave with the per-worker samples while
    // tracing is on; they carry the dropped-event counter instead of worker
    // progress.
    int64_t dropped = -1;
    if (ExtractInt(line, "trace_dropped", &dropped)) {
      EXPECT_GE(dropped, 0);
      saw_trace_health = true;
      continue;
    }
    ASSERT_TRUE(ExtractInt(line, "worker", &worker)) << line;
    ASSERT_TRUE(ExtractInt(line, "events_in", &events_in)) << line;
    EXPECT_TRUE(worker == 0 || worker == 1);
    saw_events |= events_in > 0;
    worker_lines.push_back(line);
  }
  EXPECT_TRUE(saw_events);
  EXPECT_TRUE(saw_trace_health) << "tracing was enabled, expected ring health lines";
  // The final (post-join) samples must account for every ingested event:
  // Stop() emits one last line per worker, so the last two worker lines are
  // the final sample of each of the two workers.
  ASSERT_GE(worker_lines.size(), 2u);
  int64_t w_last = -1, w_prev = -1, e_last = 0, e_prev = 0;
  ASSERT_TRUE(ExtractInt(worker_lines[worker_lines.size() - 1], "worker", &w_last));
  ASSERT_TRUE(ExtractInt(worker_lines[worker_lines.size() - 2], "worker", &w_prev));
  ASSERT_TRUE(ExtractInt(worker_lines[worker_lines.size() - 1], "events_in", &e_last));
  ASSERT_TRUE(ExtractInt(worker_lines[worker_lines.size() - 2], "events_in", &e_prev));
  EXPECT_NE(w_last, w_prev);
  EXPECT_EQ(report.TotalEventsIn(), static_cast<uint64_t>(e_last + e_prev));
}

TEST_F(ObsEndToEndTest, TracingDisabledRecordsNothing) {
  obs::Tracing::Reset();
  ASSERT_FALSE(obs::Tracing::enabled());
  obs::TraceInstant("should_not_appear", "test");
  {
    obs::TraceSpan span("also_not", "test");
    span.AddArg("x", 1);
  }
  EXPECT_EQ(obs::Tracing::EventCount(), 0u);
}

TEST_F(ObsEndToEndTest, TraceRingOverwritesOldest) {
  obs::Tracing::Enable(/*ring_capacity=*/8);
  for (int i = 0; i < 100; ++i) {
    obs::TraceInstant("tick", "test", "i", i);
  }
  obs::Tracing::Disable();
  EXPECT_EQ(obs::Tracing::EventCount(), 8u);
  const std::string path = JoinPath(dir_, "ring.json");
  ASSERT_TRUE(obs::Tracing::ExportChromeTrace(path));
  std::string trace;
  ASSERT_TRUE(ReadWholeFile(path, &trace));
  EXPECT_TRUE(IsJson(trace));
  // The most recent event survived; the first was overwritten.
  EXPECT_NE(trace.find("\"i\":99"), std::string::npos);
  EXPECT_EQ(trace.find("\"i\":0}"), std::string::npos);
}

TEST_F(ObsEndToEndTest, RegistrySnapshotJsonIsWellFormed) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::WorkerScope worker_scope(7);
  obs::PartitionScope part_scope(3, "aur");
  obs::Counter* counter = registry.GetCounter("obs_test_counter");
  counter->Add(41);
  counter->Add(1);
  obs::Gauge* gauge = registry.GetGauge("obs_test_gauge");
  gauge->Set(-5);
  EXPECT_EQ(counter->Value(), 42);
  EXPECT_EQ(gauge->Value(), -5);

  const std::string json = registry.SnapshotJson();
  EXPECT_TRUE(IsJson(json)) << json;
  EXPECT_NE(json.find("\"obs_test_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"worker\":7"), std::string::npos);
  EXPECT_NE(json.find("\"partition\":3"), std::string::npos);

  // Same name, different labels -> a distinct instrument.
  {
    obs::PartitionScope other(4, "aur");
    obs::Counter* other_counter = registry.GetCounter("obs_test_counter");
    EXPECT_NE(other_counter, counter);
    // Same labels -> the same instrument back.
    obs::PartitionScope same(3, "aur");
    EXPECT_EQ(registry.GetCounter("obs_test_counter"), counter);
  }
}

// The non-empty lines of `path`, each parsed with the tools' JSON reader.
std::vector<tools::JsonValue> ReadJsonLines(const std::string& path) {
  std::string text;
  EXPECT_TRUE(ReadWholeFile(path, &text));
  std::vector<tools::JsonValue> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    tools::JsonValue doc;
    EXPECT_TRUE(tools::ParseJson(line, &doc)) << line;
    lines.push_back(std::move(doc));
  }
  return lines;
}

// Operator names are free text: every writer over metric labels escapes
// them, whatever their length, and a reader gets the name back unchanged.
TEST_F(ObsEndToEndTest, OperatorNamesSurviveEveryJsonWriter) {
  const std::string op = "say \"hi\" to C:\\tmp " + std::string(400, 'x');
  obs::MetricsRegistry registry;  // an instance registry, attached to Global()
  {
    obs::OperatorScope op_scope(op);
    registry.GetCounter("obs_test.escaped")->Add(1);
    registry.GetHistogram("obs_test.escaped_ms")->Record(1.0);
  }

  tools::JsonValue snapshot;
  ASSERT_TRUE(tools::ParseJson(registry.SnapshotJson(), &snapshot));
  ASSERT_EQ(snapshot.arr.size(), 1u);
  EXPECT_EQ(snapshot.arr[0].Str("name"), "obs_test.escaped");
  EXPECT_EQ(snapshot.arr[0].Str("op"), op);

  const std::string saved_flight_path = obs::FlightRecordPath();
  const std::string flight_path = JoinPath(dir_, "escaped.flight");
  obs::SetFlightRecordPath(flight_path);
  ASSERT_TRUE(obs::TriggerFlightRecord("escape test"));
  obs::SetFlightRecordPath(saved_flight_path);
  bool in_flight_record = false;
  for (const tools::JsonValue& line : ReadJsonLines(flight_path)) {
    if (line.Str("metric") == "obs_test.escaped") {
      EXPECT_EQ(line.Str("op"), op);
      in_flight_record = true;
    }
  }
  EXPECT_TRUE(in_flight_record);

  const std::string metrics_path = JoinPath(dir_, "escaped.jsonl");
  obs::PeriodicReporter reporter;
  ASSERT_TRUE(reporter.Start(metrics_path, /*interval_ms=*/60'000));
  reporter.Stop();  // emits one tick
  bool in_report = false;
  for (const tools::JsonValue& line : ReadJsonLines(metrics_path)) {
    if (line.Str("hist") == "obs_test.escaped_ms") {
      EXPECT_EQ(line.Str("op"), op);
      in_report = true;
    }
  }
  EXPECT_TRUE(in_report);
}

TEST_F(ObsEndToEndTest, RegistryAggregatesRegisteredStats) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  StoreStats a, b;
  a.writes = 10;
  a.prefetch_hits = 3;
  b.writes = 5;
  b.io.bytes_read = 1024;
  obs::WorkerScope w0(0);
  uint64_t id_a = registry.RegisterStoreStats(&a, "aur");
  uint64_t id_b;
  {
    obs::WorkerScope w1(1);
    id_b = registry.RegisterStoreStats(&b, "rmw");
  }
  StoreStats all = registry.AggregateStoreStats();
  EXPECT_GE(all.writes.load(), 15);
  StoreStats only_w1 = registry.AggregateStoreStats(/*worker=*/1);
  EXPECT_EQ(only_w1.writes.load(), 5);
  EXPECT_EQ(only_w1.io.bytes_read.load(), 1024);
  EXPECT_EQ(only_w1.prefetch_hits.load(), 0);
  registry.UnregisterStoreStats(id_a);
  registry.UnregisterStoreStats(id_b);
  StoreStats after = registry.AggregateStoreStats(/*worker=*/1);
  EXPECT_EQ(after.writes.load(), 0);
}

}  // namespace
}  // namespace flowkv
