// Machine-readable perf-baseline harness (tools/bench_runner is the entry
// point). Re-runs the fig08/fig09/fig13 configurations through the shared
// ExecuteBench harness plus a server-saturation loopback sweep against an
// in-process flowkv_server, and emits one JSON document with a stable
// schema — CI smoke-validates it and the committed BENCH_PR6.json gives
// future PRs a reference point.
//
// Schema (schema_version 1; additions are allowed, renames/removals are not):
//   {"schema_version":1, "bench_scale":"quick"|"full",
//    "benches":{
//      "fig08":[{"query","backend","window_s","ok","fail_reason",
//                "events","events_per_sec","p50_ms","p95_ms","p99_ms",
//                "bytes_per_op","cpu":{"write_s","read_s","compaction_s",
//                "total_s"}}],
//      "fig09":[fig08 row + "rate"],
//      "fig13":[{"workers","ok","fail_reason","events_per_sec",
//                "cpu_events_per_sec"}],
//      "loopback":[{"clients","ok","fail_reason","requests","ops",
//                   "req_per_sec","ops_per_sec","p50_ms","p99_ms",
//                   "bytes_in_per_op","bytes_out_per_op"}],
//      "remote_prefetch":[{"prefetch","ok","fail_reason","windows","reads",
//                          "reads_per_sec","read_p50_ms","read_p99_ms",
//                          "cache_hits","cache_misses","pushes"}]}}
// Every number is finite (NaN/inf are clamped to 0 at emission), so
// downstream consumers can parse with a strict JSON parser.
#ifndef BENCH_BENCH_RUNNER_H_
#define BENCH_BENCH_RUNNER_H_

#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/clock.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "tools/stat_format.h"

namespace flowkv {
namespace bench {

// ----- JSON emission (append-only, NaN-safe) -----

inline double Finite(double v) { return std::isfinite(v) ? v : 0.0; }

inline void AppendNum(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", Finite(v));
  out->append(buf);
}

inline void AppendInt(std::string* out, long long v) {
  out->append(std::to_string(v));
}

inline void AppendStr(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

// ----- rows -----

struct FigRow {
  std::string bench;    // "fig08" | "fig09"
  std::string query;
  std::string backend;
  int64_t window_s = 0;
  double rate = 0;      // fig09 only
  int workers = 0;      // fig13 only
  BenchResult r;
};

struct LoopbackRow {
  int clients = 0;
  bool ok = false;
  std::string fail_reason;
  uint64_t requests = 0;  // flushed round trips
  uint64_t ops = 0;       // store ops carried by those round trips
  double seconds = 0;
  double req_per_sec = 0;
  double ops_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double bytes_in_per_op = 0;
  double bytes_out_per_op = 0;
};

struct RunnerScale {
  const char* name;
  uint64_t events_per_worker;
  double timeout_seconds;
  double rate;                 // fig09 pacing
  std::vector<int> fig13_workers;
  std::vector<int> loopback_clients;
  uint64_t loopback_ops_per_client;
};

inline RunnerScale GetRunnerScale(bool quick) {
  if (quick) {
    return RunnerScale{"quick", 20'000, 15, 25'000, {1, 2}, {1, 2}, 2'000};
  }
  return RunnerScale{"full", 120'000, 60, 50'000, {1, 2, 4, 8}, {1, 2, 4}, 20'000};
}

// ----- SPE figure configurations -----

inline BenchResult RunOne(const std::string& query, BackendSel backend, int workers,
                          int64_t window_ms, double rate, const RunnerScale& scale) {
  BenchRun run;
  run.query = query;
  run.backend = backend;
  run.workers = workers;
  run.window_size_ms = window_ms;
  run.session_gap_ms = window_ms / 10;
  run.rate = rate;
  run.timeout_seconds = scale.timeout_seconds;
  run.events_per_worker =
      rate > 0 ? std::min<uint64_t>(scale.events_per_worker * 4,
                                    static_cast<uint64_t>(rate * 8))
               : scale.events_per_worker;
  return ExecuteBench(run);
}

inline std::vector<FigRow> RunFig08(const RunnerScale& scale, bool quick) {
  // One window length; quick mode trims to the flowkv rows the baseline
  // actually regresses on, full mode keeps the rocksdb-like comparison.
  const std::vector<std::string> queries =
      quick ? std::vector<std::string>{"q7", "q11"}
            : std::vector<std::string>{"q5", "q7", "q11-median", "q11"};
  const std::vector<BackendSel> stores =
      quick ? std::vector<BackendSel>{BackendSel::kFlowKv}
            : std::vector<BackendSel>{BackendSel::kFlowKv, BackendSel::kLsm};
  std::vector<FigRow> rows;
  for (const auto& query : queries) {
    for (BackendSel store : stores) {
      FigRow row;
      row.bench = "fig08";
      row.query = query;
      row.backend = BackendName(store);
      row.window_s = 180;
      row.r = RunOne(query, store, 1, 180'000, 0, scale);
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

inline std::vector<FigRow> RunFig09(const RunnerScale& scale, bool quick) {
  const std::vector<std::string> queries =
      quick ? std::vector<std::string>{"q11"}
            : std::vector<std::string>{"q7", "q11-median", "q11"};
  std::vector<FigRow> rows;
  for (const auto& query : queries) {
    FigRow row;
    row.bench = "fig09";
    row.query = query;
    row.backend = BackendName(BackendSel::kFlowKv);
    row.window_s = 180;
    row.rate = scale.rate;
    row.r = RunOne(query, BackendSel::kFlowKv, 1, 180'000, scale.rate, scale);
    rows.push_back(std::move(row));
  }
  return rows;
}

inline std::vector<FigRow> RunFig13(const RunnerScale& scale) {
  std::vector<FigRow> rows;
  for (int workers : scale.fig13_workers) {
    FigRow row;
    row.bench = "fig13";
    row.query = "q11-median";
    row.backend = BackendName(BackendSel::kFlowKv);
    row.window_s = 180;
    row.workers = workers;
    row.r = RunOne("q11-median", BackendSel::kFlowKv, workers, 180'000, 0, scale);
    rows.push_back(std::move(row));
  }
  return rows;
}

// ----- loopback server-saturation sweep -----
//
// N client threads hammer an in-process flowkv_server over loopback with
// batched RMW writes plus periodic reads; per-round-trip latency is measured
// client-side, bytes/op come from the server's own kStats byte counters
// (delta across the sweep, divided by ops executed).

inline LoopbackRow RunLoopbackPoint(int clients, uint64_t ops_per_client) {
  LoopbackRow row;
  row.clients = clients;

  net::ServerOptions sopts;
  sopts.data_dir = MakeTempDir("bench_loopback");
  sopts.num_shards = 2;
  // Clients are in-process, so use the unix-socket transport for the data
  // path (the stats fetch below stays on TCP). Same framing either way.
  sopts.unix_socket_path = sopts.data_dir + "/bench.sock";
  std::unique_ptr<net::Server> server;
  Status s = net::Server::Start(sopts, &server);
  if (!s.ok()) {
    row.fail_reason = s.ToString();
    RemoveDirRecursively(sopts.data_dir).IgnoreError();
    return row;
  }
  const int port = server->port();

  auto fetch_bytes = [&](double* in, double* out_bytes) {
    std::string json;
    if (!tools::FetchStatsJson("127.0.0.1", port, &json).ok()) return false;
    tools::JsonValue doc;
    if (!tools::ParseJson(json, &doc)) return false;
    const tools::JsonValue* srv = doc.Get("server");
    if (srv == nullptr) return false;
    *in = srv->Num("bytes_in");
    *out_bytes = srv->Num("bytes_out");
    return true;
  };

  double bytes_in_before = 0, bytes_out_before = 0;
  fetch_bytes(&bytes_in_before, &bytes_out_before);

  constexpr uint64_t kBatchOps = 16;
  std::mutex mu;
  Histogram latency;           // per flushed round trip, ms
  uint64_t total_requests = 0;
  uint64_t total_ops = 0;
  std::string first_error;

  const int64_t start_nanos = MonotonicNanos();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::ClientOptions copts;
      copts.port = port;
      copts.unix_socket_path = sopts.unix_socket_path;
      std::unique_ptr<net::Client> client;
      Status ts = net::Client::Connect(copts, &client);
      uint64_t handle = 0;
      if (ts.ok()) {
        OperatorStateSpec spec;
        spec.name = "bench.c" + std::to_string(c);
        spec.window_kind = WindowKind::kTumbling;
        spec.incremental = true;
        spec.window_size_ms = 1000;
        StorePattern pattern;
        ts = client->OpenStore(spec.name, spec, &handle, &pattern);
      }
      Histogram local;
      uint64_t requests = 0, ops = 0;
      const Window w(0, 1000);
      for (uint64_t i = 0; ts.ok() && i < ops_per_client; i += kBatchOps) {
        for (uint64_t j = 0; ts.ok() && j < kBatchOps; ++j) {
          const std::string key = "k" + std::to_string((i + j) % 512);
          ts = client->RmwPut(handle, key, w, "acc" + std::to_string(i + j));
        }
        if (!ts.ok()) break;
        const int64_t t0 = MonotonicNanos();
        ts = client->Flush();
        if (ts.ok()) {
          local.Add(static_cast<double>(MonotonicNanos() - t0) / 1e6);
          requests += 1;
          ops += kBatchOps;
        }
        if (ts.ok() && (i / kBatchOps) % 8 == 7) {
          std::string acc;
          const int64_t r0 = MonotonicNanos();
          ts = client->RmwGet(handle, "k" + std::to_string(i % 512), w, &acc);
          if (ts.ok() || ts.IsNotFound()) {
            ts = Status::Ok();
            local.Add(static_cast<double>(MonotonicNanos() - r0) / 1e6);
            requests += 1;
            ops += 1;
          }
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      latency.Merge(local);
      total_requests += requests;
      total_ops += ops;
      if (!ts.ok() && first_error.empty()) {
        first_error = ts.ToString();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  row.seconds = static_cast<double>(MonotonicNanos() - start_nanos) / 1e9;

  double bytes_in_after = 0, bytes_out_after = 0;
  const bool have_bytes = fetch_bytes(&bytes_in_after, &bytes_out_after);

  const Status stop_status = server->DrainAndStop();
  if (!stop_status.ok()) {
    std::fprintf(stderr, "bench: DrainAndStop: %s\n", stop_status.ToString().c_str());
  }
  RemoveDirRecursively(sopts.data_dir).IgnoreError();

  row.requests = total_requests;
  row.ops = total_ops;
  if (!first_error.empty()) {
    row.fail_reason = first_error;
    return row;
  }
  row.ok = total_requests > 0;
  if (row.seconds > 0) {
    row.req_per_sec = static_cast<double>(total_requests) / row.seconds;
    row.ops_per_sec = static_cast<double>(total_ops) / row.seconds;
  }
  row.p50_ms = latency.Percentile(50);
  row.p99_ms = latency.Percentile(99);
  if (have_bytes && total_ops > 0) {
    row.bytes_in_per_op = (bytes_in_after - bytes_in_before) / total_ops;
    row.bytes_out_per_op = (bytes_out_after - bytes_out_before) / total_ops;
  }
  return row;
}

inline std::vector<LoopbackRow> RunLoopbackSweep(const RunnerScale& scale) {
  std::vector<LoopbackRow> rows;
  for (int clients : scale.loopback_clients) {
    rows.push_back(RunLoopbackPoint(clients, scale.loopback_ops_per_client));
  }
  return rows;
}

// ----- remote read tail latency: ETT-driven prefetch on vs off -----
//
// The fig09 question asked of the remote path: a client appends tumbling AAR
// windows into an in-process flowkv_server and drains each window right
// after event time closes it — the trigger read of the paper's §4.2. With
// prefetch off every drain is a remote round trip; with prefetch on the
// server has already pushed the closed window's chunk, so the drain is
// served from the read-ahead cache. The rows differ only in that flag, so
// read_p99_ms off-vs-on is the measured prefetch win.

struct RemotePrefetchRow {
  bool prefetch = false;
  bool ok = false;
  std::string fail_reason;
  uint64_t windows = 0;
  uint64_t reads = 0;  // window drains measured
  double seconds = 0;
  double reads_per_sec = 0;
  double read_p50_ms = 0;
  double read_p99_ms = 0;
  // Client cache counters (zero when prefetch is off).
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long pushes = 0;
};

inline RemotePrefetchRow RunRemotePrefetchPoint(bool prefetch_on, uint64_t windows,
                                                int keys_per_window,
                                                int values_per_key) {
  RemotePrefetchRow row;
  row.prefetch = prefetch_on;
  row.windows = windows;

  net::ServerOptions sopts;
  sopts.data_dir = MakeTempDir("bench_prefetch");
  sopts.num_shards = 2;
  sopts.unix_socket_path = sopts.data_dir + "/bench.sock";
  std::unique_ptr<net::Server> server;
  Status s = net::Server::Start(sopts, &server);
  if (!s.ok()) {
    row.fail_reason = s.ToString();
    RemoveDirRecursively(sopts.data_dir).IgnoreError();
    return row;
  }

  net::ClientOptions copts;
  copts.port = server->port();
  copts.unix_socket_path = sopts.unix_socket_path;
  copts.enable_prefetch_push = prefetch_on;
  std::unique_ptr<net::Client> client;
  s = net::Client::Connect(copts, &client);

  uint64_t handle = 0;
  if (s.ok()) {
    OperatorStateSpec spec;
    spec.name = "bench.prefetch";
    spec.window_kind = WindowKind::kTumbling;
    spec.incremental = false;
    spec.window_size_ms = 1000;
    StorePattern pattern;
    s = client->OpenStore(spec.name, spec, &handle, &pattern);
  }

  Histogram read_latency;  // full window drain, ms
  uint64_t reads = 0;
  const int64_t start_nanos = MonotonicNanos();
  const std::string value(64, 'v');
  for (uint64_t i = 0; s.ok() && i < windows; ++i) {
    const Window w(static_cast<int64_t>(i) * 1000, static_cast<int64_t>(i + 1) * 1000);
    for (int k = 0; s.ok() && k < keys_per_window; ++k) {
      const std::string key = "k" + std::to_string(k);
      for (int v = 0; s.ok() && v < values_per_key; ++v) {
        s = client->AppendAligned(handle, key, value, w);
      }
    }
    if (s.ok()) {
      s = client->Flush();
    }
    if (!s.ok() || i == 0) {
      continue;
    }
    // This window's appends advanced event time past the previous window's
    // end: drain it now, exactly as a triggered operator would.
    const Window prev(static_cast<int64_t>(i - 1) * 1000, static_cast<int64_t>(i) * 1000);
    const int64_t t0 = MonotonicNanos();
    bool done = false;
    while (s.ok() && !done) {
      std::vector<WindowChunkEntry> chunk;
      s = client->GetWindowChunk(handle, prev, &chunk, &done);
    }
    if (s.ok()) {
      read_latency.Add(static_cast<double>(MonotonicNanos() - t0) / 1e6);
      ++reads;
    }
  }
  row.seconds = static_cast<double>(MonotonicNanos() - start_nanos) / 1e9;

  if (client != nullptr) {
    const net::ReadAheadCounters counters = client->cache_counters();
    row.cache_hits = counters.hits;
    row.cache_misses = counters.misses;
    row.pushes = counters.pushes;
  }
  client.reset();
  const Status stop_status = server->DrainAndStop();
  if (!stop_status.ok()) {
    std::fprintf(stderr, "bench: DrainAndStop: %s\n", stop_status.ToString().c_str());
  }
  RemoveDirRecursively(sopts.data_dir).IgnoreError();

  if (!s.ok()) {
    row.fail_reason = s.ToString();
    return row;
  }
  row.ok = reads > 0;
  row.reads = reads;
  if (row.seconds > 0) {
    row.reads_per_sec = static_cast<double>(reads) / row.seconds;
  }
  row.read_p50_ms = read_latency.Percentile(50);
  row.read_p99_ms = read_latency.Percentile(99);
  return row;
}

inline std::vector<RemotePrefetchRow> RunRemotePrefetchSweep(bool quick) {
  const uint64_t windows = quick ? 128 : 512;
  std::vector<RemotePrefetchRow> rows;
  rows.push_back(RunRemotePrefetchPoint(false, windows, 16, 4));
  rows.push_back(RunRemotePrefetchPoint(true, windows, 16, 4));
  return rows;
}

// ----- document assembly -----

inline void AppendFigRow(std::string* out, const FigRow& row) {
  out->append("{\"query\":");
  AppendStr(out, row.query);
  out->append(",\"backend\":");
  AppendStr(out, row.backend);
  out->append(",\"window_s\":");
  AppendInt(out, row.window_s);
  if (row.bench == "fig09") {
    out->append(",\"rate\":");
    AppendNum(out, row.rate);
  }
  if (row.bench == "fig13") {
    out->append(",\"workers\":");
    AppendInt(out, row.workers);
  }
  out->append(",\"ok\":");
  out->append(row.r.ok ? "true" : "false");
  out->append(",\"fail_reason\":");
  AppendStr(out, row.r.fail_reason);
  out->append(",\"events\":");
  AppendInt(out, static_cast<long long>(row.r.total_events));
  out->append(",\"events_per_sec\":");
  AppendNum(out, row.r.throughput);
  if (row.bench == "fig13") {
    out->append(",\"cpu_events_per_sec\":");
    AppendNum(out, row.r.cpu_throughput);
    out->append("}");
    return;
  }
  out->append(",\"p50_ms\":");
  AppendNum(out, row.r.p50_latency_ms);
  out->append(",\"p95_ms\":");
  AppendNum(out, row.r.p95_latency_ms);
  out->append(",\"p99_ms\":");
  AppendNum(out, row.r.p99_latency_ms);
  const double events = static_cast<double>(row.r.total_events);
  const double io_bytes = static_cast<double>(row.r.stats.io.bytes_read +
                                              row.r.stats.io.bytes_written);
  out->append(",\"bytes_per_op\":");
  AppendNum(out, events > 0 ? io_bytes / events : 0);
  out->append(",\"cpu\":{\"write_s\":");
  AppendNum(out, static_cast<double>(row.r.stats.write_nanos) / 1e9);
  out->append(",\"read_s\":");
  AppendNum(out, static_cast<double>(row.r.stats.read_nanos) / 1e9);
  out->append(",\"compaction_s\":");
  AppendNum(out, static_cast<double>(row.r.stats.compaction_nanos) / 1e9);
  out->append(",\"total_s\":");
  AppendNum(out, row.r.cpu_seconds);
  out->append("}}");
}

inline void AppendLoopbackRow(std::string* out, const LoopbackRow& row) {
  out->append("{\"clients\":");
  AppendInt(out, row.clients);
  out->append(",\"ok\":");
  out->append(row.ok ? "true" : "false");
  out->append(",\"fail_reason\":");
  AppendStr(out, row.fail_reason);
  out->append(",\"requests\":");
  AppendInt(out, static_cast<long long>(row.requests));
  out->append(",\"ops\":");
  AppendInt(out, static_cast<long long>(row.ops));
  out->append(",\"req_per_sec\":");
  AppendNum(out, row.req_per_sec);
  out->append(",\"ops_per_sec\":");
  AppendNum(out, row.ops_per_sec);
  out->append(",\"p50_ms\":");
  AppendNum(out, row.p50_ms);
  out->append(",\"p99_ms\":");
  AppendNum(out, row.p99_ms);
  out->append(",\"bytes_in_per_op\":");
  AppendNum(out, row.bytes_in_per_op);
  out->append(",\"bytes_out_per_op\":");
  AppendNum(out, row.bytes_out_per_op);
  out->append("}");
}

inline void AppendRemotePrefetchRow(std::string* out, const RemotePrefetchRow& row) {
  out->append("{\"prefetch\":");
  out->append(row.prefetch ? "true" : "false");
  out->append(",\"ok\":");
  out->append(row.ok ? "true" : "false");
  out->append(",\"fail_reason\":");
  AppendStr(out, row.fail_reason);
  out->append(",\"windows\":");
  AppendInt(out, static_cast<long long>(row.windows));
  out->append(",\"reads\":");
  AppendInt(out, static_cast<long long>(row.reads));
  out->append(",\"reads_per_sec\":");
  AppendNum(out, row.reads_per_sec);
  out->append(",\"read_p50_ms\":");
  AppendNum(out, row.read_p50_ms);
  out->append(",\"read_p99_ms\":");
  AppendNum(out, row.read_p99_ms);
  out->append(",\"cache_hits\":");
  AppendInt(out, row.cache_hits);
  out->append(",\"cache_misses\":");
  AppendInt(out, row.cache_misses);
  out->append(",\"pushes\":");
  AppendInt(out, row.pushes);
  out->append("}");
}

inline std::string BuildBaselineJson(const RunnerScale& scale,
                                     const std::vector<FigRow>& fig08,
                                     const std::vector<FigRow>& fig09,
                                     const std::vector<FigRow>& fig13,
                                     const std::vector<LoopbackRow>& loopback,
                                     const std::vector<RemotePrefetchRow>& remote_prefetch) {
  std::string out;
  out.append("{\"schema_version\":1,\"bench_scale\":");
  AppendStr(&out, scale.name);
  out.append(",\"benches\":{");
  auto emit_fig = [&out](const char* name, const std::vector<FigRow>& rows) {
    out.append("\"");
    out.append(name);
    out.append("\":[");
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) out.append(",");
      out.append("\n  ");
      AppendFigRow(&out, rows[i]);
    }
    out.append("]");
  };
  emit_fig("fig08", fig08);
  out.append(",");
  emit_fig("fig09", fig09);
  out.append(",");
  emit_fig("fig13", fig13);
  out.append(",\"loopback\":[");
  for (size_t i = 0; i < loopback.size(); ++i) {
    if (i > 0) out.append(",");
    out.append("\n  ");
    AppendLoopbackRow(&out, loopback[i]);
  }
  out.append("]");
  out.append(",\"remote_prefetch\":[");
  for (size_t i = 0; i < remote_prefetch.size(); ++i) {
    if (i > 0) out.append(",");
    out.append("\n  ");
    AppendRemotePrefetchRow(&out, remote_prefetch[i]);
  }
  out.append("]}}\n");
  return out;
}

inline int RunBenchBaseline(bool quick, const std::string& out_path) {
  const RunnerScale scale = GetRunnerScale(quick);
  std::fprintf(stderr, "bench_runner: scale=%s\n", scale.name);

  std::fprintf(stderr, "bench_runner: fig08 (throughput)...\n");
  const std::vector<FigRow> fig08 = RunFig08(scale, quick);
  std::fprintf(stderr, "bench_runner: fig09 (latency vs rate)...\n");
  const std::vector<FigRow> fig09 = RunFig09(scale, quick);
  std::fprintf(stderr, "bench_runner: fig13 (scale-out)...\n");
  const std::vector<FigRow> fig13 = RunFig13(scale);
  std::fprintf(stderr, "bench_runner: loopback saturation sweep...\n");
  const std::vector<LoopbackRow> loopback = RunLoopbackSweep(scale);
  std::fprintf(stderr, "bench_runner: remote prefetch on/off...\n");
  const std::vector<RemotePrefetchRow> remote_prefetch = RunRemotePrefetchSweep(quick);

  const std::string doc =
      BuildBaselineJson(scale, fig08, fig09, fig13, loopback, remote_prefetch);
  if (out_path.empty() || out_path == "-") {
    std::fwrite(doc.data(), 1, doc.size(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_runner: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "bench_runner: wrote %s (%zu bytes)\n", out_path.c_str(),
               doc.size());
  return 0;
}

}  // namespace bench
}  // namespace flowkv

#endif  // BENCH_BENCH_RUNNER_H_
