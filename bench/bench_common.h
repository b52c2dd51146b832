// Shared harness for the figure-reproduction benches: scale selection,
// backend construction, query execution, and table printing.
//
// Scale is controlled by FLOWKV_BENCH_SCALE (smoke | small | large, default
// small). Absolute numbers are machine-local; the reproduction target is the
// *shape* of each figure (who wins, by what factor, where systems fail).
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/backends/flowkv_backend.h"
#include "src/backends/hashkv_backend.h"
#include "src/backends/lsm_backend.h"
#include "src/backends/memory_backend.h"
#include "src/backends/remote_backend.h"
#include "src/common/env.h"
#include "src/common/histogram.h"
#include "src/nexmark/generator.h"
#include "src/nexmark/queries.h"
#include "src/spe/job_runner.h"

namespace flowkv {

struct BenchScale {
  const char* name;
  uint64_t events_per_worker;
  double timeout_seconds;  // DNF budget per configuration
};

inline BenchScale GetBenchScale() {
  const char* env = std::getenv("FLOWKV_BENCH_SCALE");
  if (env != nullptr && std::strcmp(env, "smoke") == 0) {
    return BenchScale{"smoke", 30'000, 10};
  }
  if (env != nullptr && std::strcmp(env, "large") == 0) {
    return BenchScale{"large", 600'000, 120};
  }
  return BenchScale{"small", 120'000, 30};
}

// Observability flags shared by every bench binary:
//   --metrics-out=<path>        per-worker JSONL time series (appended)
//   --metrics-interval-ms=<ms>  sampling interval (default 100)
//   --trace-out=<path>          Chrome-trace JSON of the last executed run
// Set by ParseBenchFlags(argc, argv) in main; copied into every JobConfig by
// ExecuteBench. Both default off, so benches measure the undisturbed hot path.
struct BenchObsFlags {
  std::string metrics_out;
  int metrics_interval_ms = 100;
  std::string trace_out;
};

inline BenchObsFlags& GlobalBenchObs() {
  static BenchObsFlags flags;
  return flags;
}

// Consumes the observability flags above; unrecognized arguments are left
// alone (benches have no other flags; bench_micro_stores passes the rest to
// google-benchmark).
inline void ParseBenchFlags(int argc, char** argv) {
  BenchObsFlags& flags = GlobalBenchObs();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      flags.metrics_out = arg + 14;
    } else if (std::strncmp(arg, "--metrics-interval-ms=", 22) == 0) {
      flags.metrics_interval_ms = std::atoi(arg + 22);
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      flags.trace_out = arg + 12;
    }
  }
}

enum class BackendSel { kMemory, kFlowKv, kLsm, kHashKv, kRemote };

inline const char* BackendName(BackendSel sel) {
  switch (sel) {
    case BackendSel::kMemory:
      return "memory";
    case BackendSel::kFlowKv:
      return "flowkv";
    case BackendSel::kLsm:
      return "rocksdb-like";
    case BackendSel::kHashKv:
      return "faster-like";
    case BackendSel::kRemote:
      return "flowkv-remote";
  }
  return "?";
}

struct BenchRun {
  std::string query = "q7";
  BackendSel backend = BackendSel::kFlowKv;
  int workers = 1;

  uint64_t events_per_worker = 120'000;
  int64_t window_size_ms = 180'000;
  int64_t session_gap_ms = 18'000;

  // Fixed-rate mode (events/s per worker); 0 = throughput mode.
  double rate = 0;
  int64_t fail_lag_ms = 3'000;

  double timeout_seconds = 30;

  // Memory backend budget (0 = unlimited); reproduces the paper's OOM bars.
  uint64_t memory_capacity_bytes = 0;

  // Store knobs. Defaults mirror the paper's regime: state far exceeds the
  // in-memory buffers, so every store actually works against the disk.
  FlowKvOptions flowkv;
  LsmOptions lsm;
  HashKvOptions hashkv;

  // kRemote: a running flowkv_server (FLOWKV_BENCH_REMOTE=host:port points
  // existing figure benches at one without recompiling).
  std::string remote_host = "127.0.0.1";
  int remote_port = 7330;

  BenchRun() {
    // ~2 MB of store memory each (the paper likewise gives every store
    // comparable memory: FlowKV buffers, RocksDB memtable+block cache,
    // Faster's in-memory log region).
    flowkv.write_buffer_bytes = 1024 * 1024;  // x2 partitions
    lsm.write_buffer_bytes = 256 * 1024;
    lsm.block_cache_bytes = 1792 * 1024;
    hashkv.memory_bytes = 2 * 1024 * 1024;
    hashkv.compaction_min_bytes = 8 * 1024 * 1024;
  }

  NexmarkConfig MakeNexmark() const {
    NexmarkConfig config;
    config.events_per_worker = events_per_worker;
    config.inter_event_ms = 10;
    // Key cardinality sets the state shape per pattern: append-pattern
    // queries need long per-key lists (few keys), RMW queries need many
    // (key, window) aggregates so the state outgrows the write buffers.
    if (query == "q12") {
      config.num_people = 20'000;
    } else if (query == "q11" || query == "q11-median" || query == "q7-session") {
      config.num_people = 2'000;
    } else if (query == "q7") {
      // Deep per-key lists: the regime where the paper's Faster baseline
      // rewrites multi-hundred-element values on every append and DNFs.
      config.num_people = 100;
    } else {
      config.num_people = 300;
    }
    config.num_auctions = 300;
    return config;
  }
};

struct BenchResult {
  bool ok = false;
  std::string fail_reason;   // "OOM" / "DNF" / "LAG" / error text
  double wall_seconds = 0;
  double throughput = 0;     // events/s, all workers, wall-clock
  double cpu_throughput = 0;  // events per worker-CPU-second
  double p95_latency_ms = 0;
  // Extra aggregates consumed by the machine-readable baseline harness
  // (bench/bench_runner.h); the table benches print p95 only.
  double p50_latency_ms = 0;
  double p99_latency_ms = 0;
  double cpu_seconds = 0;
  uint64_t total_events = 0;
  StoreStats stats;
};

inline std::unique_ptr<StateBackendFactory> MakeBackendFactory(const BenchRun& run,
                                                               const std::string& dir) {
  // FLOWKV_BENCH_REMOTE=host:port redirects the FlowKV rows of any figure
  // bench through a running flowkv_server — an embedded-vs-disaggregated
  // ablation with no recompile. Baseline rows (memory/lsm/hashkv) keep
  // running locally for comparison.
  if (run.backend == BackendSel::kFlowKv || run.backend == BackendSel::kRemote) {
    if (const char* remote = std::getenv("FLOWKV_BENCH_REMOTE");
        remote != nullptr && remote[0] != '\0') {
      std::string spec(remote);
      std::string host = run.remote_host;
      int port = run.remote_port;
      if (auto colon = spec.rfind(':'); colon != std::string::npos) {
        host = spec.substr(0, colon);
        port = std::atoi(spec.c_str() + colon + 1);
      }
      return std::make_unique<RemoteBackendFactory>(host, port);
    }
  }
  switch (run.backend) {
    case BackendSel::kMemory:
      return std::make_unique<MemoryBackendFactory>(run.memory_capacity_bytes);
    case BackendSel::kFlowKv:
      return std::make_unique<FlowKvBackendFactory>(dir, run.flowkv);
    case BackendSel::kLsm:
      return std::make_unique<LsmBackendFactory>(dir, run.lsm);
    case BackendSel::kHashKv:
      return std::make_unique<HashKvBackendFactory>(dir, run.hashkv);
    case BackendSel::kRemote:
      return std::make_unique<RemoteBackendFactory>(run.remote_host,
                                                    run.remote_port);
  }
  return nullptr;
}

inline BenchResult ExecuteBench(const BenchRun& run) {
  BenchResult result;
  const std::string dir = MakeTempDir("flowkv_bench");
  std::unique_ptr<StateBackendFactory> factory = MakeBackendFactory(run, dir);

  QueryParams params;
  params.window_size_ms = run.window_size_ms;
  params.session_gap_ms = run.session_gap_ms;

  JobConfig config;
  config.workers = run.workers;
  config.watermark_interval_events = 256;
  config.max_wall_seconds = run.timeout_seconds;
  config.target_rate = run.rate;
  config.fail_lag_ms = run.fail_lag_ms;
  config.latency_warmup_events = run.events_per_worker / 5;
  config.metrics_out_path = GlobalBenchObs().metrics_out;
  config.metrics_interval_ms = GlobalBenchObs().metrics_interval_ms;
  config.trace_out_path = GlobalBenchObs().trace_out;

  NexmarkConfig nexmark = run.MakeNexmark();
  JobReport report = RunJob(
      config, MakeNexmarkSourceFactory(nexmark),
      [&](int worker, Pipeline* pipeline) {
        return BuildNexmarkQuery(run.query, params, pipeline);
      },
      factory.get());

  result.wall_seconds = report.wall_seconds;
  result.stats = report.AggregateStoreStats();
  if (!report.status.ok()) {
    const std::string& msg = report.status.message();
    if (msg.find("OOM") != std::string::npos) {
      result.fail_reason = "OOM";
    } else if (msg.find("DNF") != std::string::npos) {
      result.fail_reason = "DNF";
    } else if (msg.find("backpressure") != std::string::npos) {
      result.fail_reason = "LAG";
    } else {
      result.fail_reason = report.status.ToString();
    }
  } else {
    result.ok = true;
    result.throughput = report.Throughput();
    const double cpu = report.TotalCpuSeconds();
    result.cpu_throughput = cpu > 0 ? static_cast<double>(report.TotalEventsIn()) / cpu : 0;
    result.cpu_seconds = cpu;
    result.total_events = report.TotalEventsIn();
    const Histogram latency = report.AggregateLatency();
    result.p50_latency_ms = latency.Percentile(50);
    result.p95_latency_ms = latency.Percentile(95);
    result.p99_latency_ms = latency.Percentile(99);
  }
  RemoveDirRecursively(dir).IgnoreError();
  return result;
}

// Prints "   1.23M" style throughput, or the failure marker.
inline std::string ThroughputCell(const BenchResult& r) {
  char buf[32];
  if (!r.ok) {
    std::snprintf(buf, sizeof(buf), "%8s", r.fail_reason.c_str());
  } else {
    std::snprintf(buf, sizeof(buf), "%7.2fM", r.throughput / 1e6);
  }
  return buf;
}

inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

}  // namespace flowkv

#endif  // BENCH_BENCH_COMMON_H_
