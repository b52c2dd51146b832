// End-to-end benchmark driver for FlowKV (invoked by perfbench/run.py).
//
// One workload is one NEXMark query over a seed-generated event stream. The
// run alternates trials on the two deployments the repository supports:
//
//   embedded  the query's window state lives in FlowKV stores inside the
//             worker (FlowKvBackendFactory), spilling to files under the
//             work directory;
//   remote    the same state lives in an in-process flowkv state server
//             reached over TCP loopback (RemoteBackendFactory with the
//             blocking client), so every state op crosses the wire protocol.
//             Prefetch push stays off: with it on, q7 intermittently emits
//             duplicate window results, and a benchmark must not time wrong
//             answers.
//
// Each trial opens a fresh pipeline and fresh stores, feeds the same events,
// and is checked against the in-memory reference backend: the sorted result
// multiset must match exactly. A trial's time covers feeding every event,
// the watermarks, and the end-of-stream flush, and is reported per event.
//
// --trace 0 reports the end-to-end metrics with no probes installed: each
// deployment's fastest trial, and the median of several set-ups. On a shared
// host, contention from other tenants only ever adds time and comes in
// episodes lasting seconds, so the fastest of many identical trials is the
// steadiest estimate of the program's own cost.
// --trace 1 wraps every state handle and pipeline call in steady_clock
// timers and reports each layer's time per event, as the median over trials
// (see LayerSample).
//
// Usage: flowkv_perf --workload <q5|q7|q11|q11-median> --seed <n>
//                    --seconds <s> --trace <0|1> --work-dir <dir>
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/backends/flowkv_backend.h"
#include "src/backends/memory_backend.h"
#include "src/backends/remote_backend.h"
#include "src/common/clock.h"
#include "src/common/env.h"
#include "src/nexmark/generator.h"
#include "src/nexmark/queries.h"
#include "src/net/server.h"
#include "tools/stat_format.h"

namespace flowkv {
namespace {

// ----- workloads -----

struct Workload {
  const char* name;  // also the NEXMark query name
  // Per-worker key cardinality; sets the state shape per pattern the same
  // way the figure benches do (bench/bench_common.h).
  uint64_t num_people;
  // Events per trial in each deployment. Remote trials are shorter because
  // every remote RMW read is a network round trip. Each trial takes about a
  // second or less, so a run holds many trials of both.
  size_t embedded_events;
  size_t remote_events;
};

// Chosen to cover the three store patterns and both window families:
//   q7          AAR  tumbling windows, deep per-key lists, window-aligned
//                    chunked reads
//   q11-median  AUR  session windows, per-key trigger reads driven by the
//                    ETT predictor's batch prefetch
//   q11         RMW  session windows, a read and a write per event
//   q5          RMW  two consecutive sliding-window operators, each event
//                    updating two overlapping windows
constexpr Workload kWorkloads[] = {
    {"q7", 100, 200'000, 200'000},
    {"q11-median", 2'000, 20'000, 10'000},
    {"q11", 2'000, 200'000, 20'000},
    {"q5", 300, 200'000, 7'000},
};

constexpr int64_t kInterEventMs = 10;
// Tumbling/sliding windows are 180 s, shrunk for short trials so that at
// least eight windows close within one trial. Sessions keep one gap: it
// sets how often a bidder's windows merge, which should not depend on the
// trial length.
constexpr int64_t kMaxWindowMs = 180'000;
constexpr int64_t kSessionGapMs = 18'000;
constexpr int kWatermarkEveryEvents = 256;
constexpr int kSetups = 9;

// Small buffers (the fig11 bench's 32 KiB) keep every workload's state
// spilling to disk, the regime the paper evaluates: state far larger than
// store memory.
FlowKvOptions StoreOptions() {
  FlowKvOptions options;
  options.write_buffer_bytes = 32 * 1024;
  return options;
}

// ----- layer probes (installed only with --trace 1) -----

// Accumulates the time spent inside state-handle calls of one trial, split
// by op class and by the pipeline phase that issued them.
struct LayerClock {
  enum Phase { kIngest = 0, kFire = 1 };
  int phase = kIngest;
  int64_t pipeline_ns[2] = {0, 0};  // inside Pipeline::Process / watermark+Finish
  int64_t state_ns[2] = {0, 0};     // inside state calls, by phase
  int64_t write_ns = 0;
  int64_t read_ns = 0;
  uint64_t ops = 0;

  template <typename Fn>
  Status Time(bool write, Fn&& fn) {
    const int64_t t0 = MonotonicNanos();
    Status s = fn();
    const int64_t dt = MonotonicNanos() - t0;
    state_ns[phase] += dt;
    (write ? write_ns : read_ns) += dt;
    ++ops;
    return s;
  }
};

class TimedAar : public AppendAlignedState {
 public:
  TimedAar(std::unique_ptr<AppendAlignedState> inner, LayerClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}
  Status Append(const Slice& key, const Slice& value, const Window& w) override {
    return clock_->Time(true, [&] { return inner_->Append(key, value, w); });
  }
  Status GetWindowChunk(const Window& w, std::vector<WindowChunkEntry>* chunk,
                        bool* done) override {
    return clock_->Time(false, [&] { return inner_->GetWindowChunk(w, chunk, done); });
  }

 private:
  std::unique_ptr<AppendAlignedState> inner_;
  LayerClock* clock_;
};

class TimedAur : public AppendUnalignedState {
 public:
  TimedAur(std::unique_ptr<AppendUnalignedState> inner, LayerClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}
  Status Append(const Slice& key, const Slice& value, const Window& w,
                int64_t timestamp) override {
    return clock_->Time(true, [&] { return inner_->Append(key, value, w, timestamp); });
  }
  Status Get(const Slice& key, const Window& w, std::vector<std::string>* values) override {
    return clock_->Time(false, [&] { return inner_->Get(key, w, values); });
  }
  Status MergeWindows(const Slice& key, const std::vector<Window>& sources,
                      const Window& dst) override {
    return clock_->Time(true, [&] { return inner_->MergeWindows(key, sources, dst); });
  }

 private:
  std::unique_ptr<AppendUnalignedState> inner_;
  LayerClock* clock_;
};

class TimedRmw : public RmwState {
 public:
  TimedRmw(std::unique_ptr<RmwState> inner, LayerClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}
  Status Get(const Slice& key, const Window& w, std::string* accumulator) override {
    return clock_->Time(false, [&] { return inner_->Get(key, w, accumulator); });
  }
  Status Put(const Slice& key, const Window& w, const Slice& accumulator) override {
    return clock_->Time(true, [&] { return inner_->Put(key, w, accumulator); });
  }
  Status Remove(const Slice& key, const Window& w) override {
    return clock_->Time(true, [&] { return inner_->Remove(key, w); });
  }

 private:
  std::unique_ptr<RmwState> inner_;
  LayerClock* clock_;
};

class TimedBackend : public StateBackend {
 public:
  TimedBackend(std::unique_ptr<StateBackend> inner, LayerClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  Status CreateAppendAligned(const OperatorStateSpec& spec,
                             std::unique_ptr<AppendAlignedState>* out) override {
    std::unique_ptr<AppendAlignedState> inner;
    FLOWKV_RETURN_IF_ERROR(inner_->CreateAppendAligned(spec, &inner));
    *out = std::make_unique<TimedAar>(std::move(inner), clock_);
    return Status::Ok();
  }
  Status CreateAppendUnaligned(const OperatorStateSpec& spec,
                               std::unique_ptr<AppendUnalignedState>* out) override {
    std::unique_ptr<AppendUnalignedState> inner;
    FLOWKV_RETURN_IF_ERROR(inner_->CreateAppendUnaligned(spec, &inner));
    *out = std::make_unique<TimedAur>(std::move(inner), clock_);
    return Status::Ok();
  }
  Status CreateRmw(const OperatorStateSpec& spec, std::unique_ptr<RmwState>* out) override {
    std::unique_ptr<RmwState> inner;
    FLOWKV_RETURN_IF_ERROR(inner_->CreateRmw(spec, &inner));
    *out = std::make_unique<TimedRmw>(std::move(inner), clock_);
    return Status::Ok();
  }
  StoreStats GatherStats() const override { return inner_->GatherStats(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<StateBackend> inner_;
  LayerClock* clock_;
};

class TimedFactory : public StateBackendFactory {
 public:
  TimedFactory(StateBackendFactory* inner, LayerClock* clock) : inner_(inner), clock_(clock) {}
  Status CreateBackend(int worker, const std::string& operator_name,
                       std::unique_ptr<StateBackend>* out) override {
    std::unique_ptr<StateBackend> inner;
    FLOWKV_RETURN_IF_ERROR(inner_->CreateBackend(worker, operator_name, &inner));
    *out = std::make_unique<TimedBackend>(std::move(inner), clock_);
    return Status::Ok();
  }
  std::string name() const override { return inner_->name(); }

 private:
  StateBackendFactory* inner_;
  LayerClock* clock_;
};

// ----- one trial -----

using Results = std::vector<std::tuple<int64_t, std::string, std::string>>;

class ResultSink : public Collector {
 public:
  Status Emit(const Event& event) override {
    results.emplace_back(event.timestamp, event.key, event.value);
    return Status::Ok();
  }
  Results results;
};

struct Trial {
  Status status;
  int64_t feed_ns = 0;  // all events + watermarks + Finish
  LayerClock clock;     // filled when traced
  StoreStats store;     // the stores' own counters (server-side when remote)
  Results results;      // sorted
};

// Feeds events[0, n) through a fresh pipeline whose stores come from
// `factory`. `worker` only namespaces the stores (remote trials share one
// server, so each needs distinct store names).
Trial RunTrial(const std::string& query, const std::vector<Event>& events, size_t n,
               StateBackendFactory* factory, int worker, bool traced) {
  Trial trial;
  QueryParams params;
  params.window_size_ms =
      std::clamp<int64_t>(static_cast<int64_t>(n) * kInterEventMs / 8, 1'000, kMaxWindowMs);
  params.session_gap_ms = kSessionGapMs;
  TimedFactory timed(factory, &trial.clock);
  ResultSink sink;
  {
    Pipeline pipeline;
    trial.status = BuildNexmarkQuery(query, params, &pipeline);
    if (trial.status.ok()) {
      trial.status = pipeline.Open(traced ? &timed : factory, worker, &sink);
    }
    if (!trial.status.ok()) {
      return trial;
    }
    LayerClock& clock = trial.clock;
    // The per-call clock reads are the probe cost; without --trace only the
    // two reads around the whole loop remain.
    auto phase = [&](int p, auto&& fn) -> Status {
      if (!traced) return fn();
      clock.phase = p;
      const int64_t t0 = MonotonicNanos();
      Status s = fn();
      clock.pipeline_ns[p] += MonotonicNanos() - t0;
      return s;
    };
    Status s;
    int since_watermark = 0;
    const int64_t start = MonotonicNanos();
    for (size_t i = 0; i < n && s.ok(); ++i) {
      s = phase(LayerClock::kIngest, [&] { return pipeline.Process(events[i]); });
      if (s.ok() && ++since_watermark == kWatermarkEveryEvents) {
        since_watermark = 0;
        s = phase(LayerClock::kFire,
                  [&] { return pipeline.AdvanceWatermark(events[i].timestamp); });
      }
    }
    if (s.ok()) {
      s = phase(LayerClock::kFire, [&] { return pipeline.Finish(); });
    }
    trial.feed_ns = MonotonicNanos() - start;
    trial.status = s;
    trial.store = pipeline.GatherStats();
  }
  trial.results = std::move(sink.results);
  std::sort(trial.results.begin(), trial.results.end());
  return trial;
}

// ----- the state server -----

// The remote deployment: an in-process state server and the client-side
// backend factory that reaches it over TCP loopback. Destruction stops the
// server and removes its data directory.
struct RemoteServer {
  RemoteServer() = default;
  RemoteServer(const RemoteServer&) = delete;
  RemoteServer& operator=(const RemoteServer&) = delete;
  ~RemoteServer() {
    factory.reset();
    if (server != nullptr) {
      const Status s = server->DrainAndStop();
      if (!s.ok()) std::fprintf(stderr, "flowkv_perf: server drain: %s\n", s.ToString().c_str());
    }
    if (!dir.empty()) RemoveDirRecursively(dir).IgnoreError();
  }

  Status Start(const std::string& data_dir, const FlowKvOptions& store_options) {
    dir = data_dir;
    net::ServerOptions sopts;
    sopts.data_dir = dir;
    sopts.num_shards = 2;
    sopts.store_options = store_options;
    FLOWKV_RETURN_IF_ERROR(net::Server::Start(sopts, &server));
    net::ClientOptions copts;
    copts.port = server->port();
    factory = std::make_unique<RemoteBackendFactory>(copts);
    return Status::Ok();
  }

  std::string dir;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<RemoteBackendFactory> factory;
};

struct ServerStats {
  double requests = 0;
  double bytes = 0;
};

bool FetchServerStats(int port, ServerStats* out) {
  std::string json;
  if (!tools::FetchStatsJson("127.0.0.1", port, &json).ok()) return false;
  tools::JsonValue doc;
  if (!tools::ParseJson(json, &doc)) return false;
  const tools::JsonValue* server = doc.Get("server");
  if (server == nullptr) return false;
  out->requests = server->Num("requests");
  out->bytes = server->Num("bytes_in") + server->Num("bytes_out");
  return true;
}

// ----- statistics and output -----

// Both return 0 for a run with no successful trial; it reports correct=false.
double Fastest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Per-trial layer figures, each divided by the trial's event count.
struct LayerSample {
  double total_ns = 0, spe_ingest_ns = 0, spe_fire_ns = 0;
  double state_write_ns = 0, state_read_ns = 0;
  double store_write_ns = 0, store_read_ns = 0, store_ns = 0;
  double io_ns = 0, io_bytes = 0, state_ops = 0;
  double compactions_per_mevent = 0, prefetch_hit_pct = 0;
  // Remote trials only, from the server's kStats counters.
  double round_trips_per_kevent = 0, wire_bytes = 0;
};

LayerSample SampleLayers(const Trial& t, size_t n) {
  const double e = static_cast<double>(n);
  const LayerClock& c = t.clock;
  const IoStats& io = t.store.io;
  LayerSample s;
  s.total_ns = static_cast<double>(t.feed_ns) / e;
  s.spe_ingest_ns = static_cast<double>(c.pipeline_ns[0] - c.state_ns[0]) / e;
  s.spe_fire_ns = static_cast<double>(c.pipeline_ns[1] - c.state_ns[1]) / e;
  s.state_write_ns = static_cast<double>(c.write_ns) / e;
  s.state_read_ns = static_cast<double>(c.read_ns) / e;
  // The stores' entry-point timers. Compaction is left out: AUR compacts
  // inside a read (already timed there), RMW after a write returns.
  s.store_write_ns = static_cast<double>(t.store.write_nanos) / e;
  s.store_read_ns = static_cast<double>(t.store.read_nanos) / e;
  s.store_ns = s.store_write_ns + s.store_read_ns;
  s.io_ns = static_cast<double>(io.write_nanos + io.read_nanos + io.sync_nanos) / e;
  s.io_bytes = static_cast<double>(io.bytes_written + io.bytes_read) / e;
  s.state_ops = static_cast<double>(c.ops) / e;
  s.compactions_per_mevent = static_cast<double>(t.store.compactions) * 1e6 / e;
  s.prefetch_hit_pct = 100.0 * t.store.PrefetchHitRatio();
  return s;
}

template <typename Field>
double MedianOf(const std::vector<LayerSample>& samples, Field field) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const LayerSample& s : samples) v.push_back(s.*field);
  return Median(std::move(v));
}

// ----- the run -----

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1) && !args->work_dir.empty();
}

// One set-up: generate the input from the seed, start the state server,
// and open (then close) the query's stores once in each deployment.
Status SetUp(const Workload& workload, const NexmarkConfig& nexmark, const Args& args,
             int attempt, std::vector<Event>* events, std::unique_ptr<RemoteServer>* remote,
             int64_t* generator_ns) {
  const int64_t t0 = MonotonicNanos();
  events->clear();
  events->reserve(nexmark.events_per_worker);
  NexmarkSource source(nexmark, 0);
  Event event;
  while (source.Next(&event)) events->push_back(std::move(event));
  *generator_ns = MonotonicNanos() - t0;

  *remote = std::make_unique<RemoteServer>();
  FLOWKV_RETURN_IF_ERROR(
      (*remote)->Start(JoinPath(args.work_dir, "server" + std::to_string(attempt)), StoreOptions()));
  const std::string emb_dir = JoinPath(args.work_dir, "setup");
  FlowKvBackendFactory embedded(emb_dir, StoreOptions());
  // Zero events: builds, opens and closes each deployment's stores.
  const Trial e = RunTrial(workload.name, *events, 0, &embedded, 0, false);
  const Trial r = RunTrial(workload.name, *events, 0, (*remote)->factory.get(), -1 - attempt, false);
  RemoveDirRecursively(emb_dir).IgnoreError();
  return !e.status.ok() ? e.status : r.status;
}

struct Measurement {
  std::vector<double> emb_ns, rem_ns;  // per event, one per good trial
  std::vector<LayerSample> emb_layers, rem_layers;
  uint64_t attempted = 0, failed = 0;
};

// Alternates deployments, always running the one that has used less time so
// far, until the budget is spent and each has at least three good trials.
// Each trial's sorted results must equal the reference for its length.
Measurement Measure(const Workload& workload, const Args& args, const std::vector<Event>& events,
                    RemoteServer* remote, const Results& expect_emb, const Results& expect_rem) {
  const bool traced = args.trace == 1;
  Measurement m;
  int64_t spent[2] = {0, 0};
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t run_start = MonotonicNanos();
  for (int trial_no = 0; m.failed < 3 && (MonotonicNanos() - run_start < budget_ns ||
                                          m.emb_ns.size() < 3 || m.rem_ns.size() < 3);
       ++trial_no) {
    const bool is_remote = spent[1] < spent[0];
    const size_t n = is_remote ? workload.remote_events : workload.embedded_events;
    const char* label = is_remote ? "remote" : "embedded";
    const int64_t t0 = MonotonicNanos();
    ServerStats before, after;
    bool have_stats = false;
    Trial t;
    if (is_remote) {
      const int port = remote->server->port();
      have_stats = traced && FetchServerStats(port, &before);
      t = RunTrial(workload.name, events, n, remote->factory.get(), trial_no, traced);
      have_stats = have_stats && FetchServerStats(port, &after);
    } else {
      const std::string dir = JoinPath(args.work_dir, "embedded");
      FlowKvBackendFactory embedded(dir, StoreOptions());
      t = RunTrial(workload.name, events, n, &embedded, 0, traced);
      RemoveDirRecursively(dir).IgnoreError();
    }
    spent[is_remote ? 1 : 0] += MonotonicNanos() - t0;
    ++m.attempted;
    if (!t.status.ok() || t.results != (is_remote ? expect_rem : expect_emb)) {
      ++m.failed;
      std::fprintf(stderr, "flowkv_perf: %s trial %d: %s\n", label, trial_no,
                   t.status.ok() ? "results differ from the reference"
                                 : t.status.ToString().c_str());
      continue;
    }
    const double ns_per_event = static_cast<double>(t.feed_ns) / static_cast<double>(n);
    (is_remote ? m.rem_ns : m.emb_ns).push_back(ns_per_event);
    std::fprintf(stderr, "flowkv_perf: %s trial %d: %.1f ns/event\n", label, trial_no,
                 ns_per_event);
    if (traced) {
      LayerSample s = SampleLayers(t, n);
      if (have_stats) {
        const double kevents = static_cast<double>(n) / 1000.0;
        s.round_trips_per_kevent = (after.requests - before.requests) / kevents;
        s.wire_bytes = (after.bytes - before.bytes) / static_cast<double>(n);
      }
      (is_remote ? m.rem_layers : m.emb_layers).push_back(s);
    }
  }
  return m;
}

std::vector<Metric> EndToEndMetrics(const Measurement& m, const std::vector<double>& setup_s) {
  return {{"embedded_ns_per_event", "ns", Fastest(m.emb_ns)},
          {"remote_ns_per_event", "ns", Fastest(m.rem_ns)},
          {"setup_s", "s", Median(setup_s)}};
}

std::vector<Metric> LayerMetrics(const Measurement& m, const std::vector<double>& generator_ns) {
  using L = LayerSample;
  const std::vector<L>& emb = m.emb_layers;
  const std::vector<L>& rem = m.rem_layers;
  return {
      {"generator_ns", "ns", Median(generator_ns)},
      {"emb_traced_ns", "ns", MedianOf(emb, &L::total_ns)},
      {"emb_spe_ingest_ns", "ns", MedianOf(emb, &L::spe_ingest_ns)},
      {"emb_spe_fire_ns", "ns", MedianOf(emb, &L::spe_fire_ns)},
      {"emb_state_write_ns", "ns", MedianOf(emb, &L::state_write_ns)},
      {"emb_state_read_ns", "ns", MedianOf(emb, &L::state_read_ns)},
      {"emb_store_write_ns", "ns", MedianOf(emb, &L::store_write_ns)},
      {"emb_store_read_ns", "ns", MedianOf(emb, &L::store_read_ns)},
      {"emb_io_ns", "ns", MedianOf(emb, &L::io_ns)},
      {"emb_io_bytes", "B", MedianOf(emb, &L::io_bytes)},
      {"emb_state_ops", "count", MedianOf(emb, &L::state_ops)},
      {"emb_compactions_per_mevent", "count", MedianOf(emb, &L::compactions_per_mevent)},
      {"emb_prefetch_hit_pct", "%", MedianOf(emb, &L::prefetch_hit_pct)},
      {"rem_traced_ns", "ns", MedianOf(rem, &L::total_ns)},
      {"rem_spe_ingest_ns", "ns", MedianOf(rem, &L::spe_ingest_ns)},
      {"rem_spe_fire_ns", "ns", MedianOf(rem, &L::spe_fire_ns)},
      {"rem_state_write_ns", "ns", MedianOf(rem, &L::state_write_ns)},
      {"rem_state_read_ns", "ns", MedianOf(rem, &L::state_read_ns)},
      {"rem_server_store_ns", "ns", MedianOf(rem, &L::store_ns)},
      {"rem_round_trips_per_kevent", "count", MedianOf(rem, &L::round_trips_per_kevent)},
      {"rem_wire_bytes", "B", MedianOf(rem, &L::wire_bytes)},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: flowkv_perf --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir>\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "flowkv_perf: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (!CreateDirs(args.work_dir).ok()) {
    std::fprintf(stderr, "flowkv_perf: cannot create %s\n", args.work_dir.c_str());
    return 1;
  }
  const size_t n_emb = workload->embedded_events;
  const size_t n_rem = workload->remote_events;

  NexmarkConfig nexmark;
  nexmark.events_per_worker = std::max(n_emb, n_rem);
  nexmark.inter_event_ms = kInterEventMs;
  nexmark.num_people = workload->num_people;
  nexmark.num_auctions = 300;
  nexmark.seed = args.seed;

  // Repeated so the reported set-up time is a median; the last one is kept.
  std::vector<double> setup_s, generator_ns;
  std::vector<Event> events;
  std::unique_ptr<RemoteServer> remote;
  for (int i = 0; i < kSetups; ++i) {
    remote.reset();
    const int64_t t0 = MonotonicNanos();
    int64_t gen_ns = 0;
    const Status s = SetUp(*workload, nexmark, args, i, &events, &remote, &gen_ns);
    if (!s.ok()) {
      std::fprintf(stderr, "flowkv_perf: set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(MonotonicNanos() - t0) / 1e9);
    generator_ns.push_back(static_cast<double>(gen_ns) / static_cast<double>(events.size()));
  }

  // The reference the trials are checked against: the in-memory backend.
  MemoryBackendFactory memory;
  const Trial ref_emb = RunTrial(workload->name, events, n_emb, &memory, 0, false);
  const Trial ref_rem = RunTrial(workload->name, events, n_rem, &memory, 0, false);
  const bool ref_ok = ref_emb.status.ok() && ref_rem.status.ok() &&
                      !ref_emb.results.empty() && !ref_rem.results.empty();
  if (!ref_ok) {
    std::fprintf(stderr, "flowkv_perf: reference run failed or produced no results\n");
  }

  const Measurement m =
      Measure(*workload, args, events, remote.get(), ref_emb.results, ref_rem.results);
  remote.reset();

  PrintResult(ref_ok && m.failed == 0, m.attempted, m.failed,
              args.trace == 1 ? LayerMetrics(m, generator_ns) : EndToEndMetrics(m, setup_s));
  return 0;
}

}  // namespace
}  // namespace flowkv

int main(int argc, char** argv) { return flowkv::Main(argc, argv); }
