// flowkv_server: standalone FlowKV state service. Serves the src/net wire
// protocol over TCP; the SPE connects through RemoteBackendFactory.
//
//   flowkv_server --data-dir=/var/lib/flowkv [--port=7330] [--shards=4]
//                 [--unix-socket=PATH]
//                 [--checkpoint-dir=DIR] [--no-restore]
//                 [--metrics-out=FILE.jsonl] [--metrics-interval-ms=1000]
//                 [--standby-of=HOST:PORT]
//
// --shards=N sizes the reactor pool: one event-loop thread per shard, each
// running the stores its connections open (1..256, default 2).
//
// SIGTERM / SIGINT trigger a graceful drain: in-flight requests finish,
// responses flush, every store checkpoints, and the epoch
// commits — a server restarted on the same directories resumes from it.
//
// SIGUSR1 triggers an on-demand flight-recorder dump (full metrics snapshot
// plus the buffered trace ring) to the same `<metrics-out>.flight` JSONL
// sink the failure paths use, without stopping the server.
//
// --standby-of=HOST:PORT runs this server as a hot standby: a ReplicaPuller
// subscribes to the primary, restores its shipped snapshot, and applies its
// forwarded op stream; clients list this server in ClientOptions::standbys
// and fail over to it when the primary dies (docs/NETWORK.md). The standby
// starts in the standby role: client writes are fenced (kFencedOff) until a
// promotion.
//
// Automated failover (--lease-ms > 0 on a standby): when no frame arrives
// from the primary for the lease, the standby polls its --peer endpoints for
// a live primary and, finding none, self-promotes after a priority stagger
// (--promotion-priority, higher promotes sooner — give every standby a
// DISTINCT priority). A promotion durably bumps the cluster epoch before the
// role flips, so a crash mid-promotion can never regress the epoch, and the
// revived old primary is fenced off by the clients' epoch stamps.
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/env.h"
#include "src/common/logging.h"
#include "src/net/replica.h"
#include "src/net/server.h"
#include "src/obs/reporter.h"
#include "src/obs/trace.h"

namespace {

flowkv::net::Server* g_server = nullptr;

// SIGUSR1 → flight-record request. TriggerFlightRecord takes locks and uses
// stdio, so it is NOT async-signal-safe; the handler only sets this flag and
// a small watcher thread performs the dump.
std::atomic<bool> g_flight_requested{false};

// Set (instead of calling RequestDrain directly) when this server runs a
// ReplicaPuller: the puller must stop BEFORE the drain checkpoint stages, or
// an in-flight kSnapshotFile/forwarded-op apply races the checkpoint through
// the loopback client. Stopping the puller joins a thread — not async-signal-
// safe — so the watcher thread sequences puller->Stop() → RequestDrain().
std::atomic<bool> g_drain_requested{false};
std::atomic<bool> g_has_puller{false};

void HandleSignal(int /*signo*/) {
  if (g_has_puller.load(std::memory_order_relaxed)) {
    g_drain_requested.store(true, std::memory_order_relaxed);
    return;
  }
  // RequestDrain is async-signal-safe (atomic store + pipe write).
  if (g_server != nullptr) {
    g_server->RequestDrain();
  }
}

void HandleFlightSignal(int /*signo*/) {
  g_flight_requested.store(true, std::memory_order_relaxed);
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --data-dir=DIR [--port=N] [--shards=N] [--bind=ADDR]\n"
               "          [--unix-socket=PATH]\n"
               "          [--checkpoint-dir=DIR] [--no-restore] [--drain-grace-ms=N]\n"
               "          [--metrics-out=FILE.jsonl] [--metrics-interval-ms=N]\n"
               "          [--read-batch-ratio=F] [--write-buffer-bytes=N]\n"
               "          [--partitions-per-store=N] [--standby-of=HOST:PORT]\n"
               "          [--max-shard-queue-depth=N] [--repl-ack-timeout-ms=N]\n"
               "          [--trace-out=FILE.json] [--slow-request-threshold-ms=F]\n"
               "          [--slow-log-size=N] [--no-prefetch-push]\n"
               "          [--prefetch-shadow-bytes=N]\n"
               "          [--lease-ms=N] [--heartbeat-ms=N] [--promotion-priority=0..10]\n"
               "          [--promotion-stagger-ms=N] [--peer=HOST:PORT ...]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  flowkv::net::ServerOptions options;
  options.port = 7330;
  std::string metrics_out;
  std::string standby_of;
  std::string trace_out;
  int metrics_interval_ms = 1000;
  int heartbeat_ms = 0;
  int promotion_stagger_ms = 500;
  std::vector<flowkv::net::Endpoint> peers;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--port", &value)) {
      options.port = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--bind", &value)) {
      options.bind_address = value;
    } else if (ParseFlag(argv[i], "--shards", &value)) {
      options.num_shards = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--unix-socket", &value)) {
      options.unix_socket_path = value;
    } else if (ParseFlag(argv[i], "--data-dir", &value)) {
      options.data_dir = value;
    } else if (ParseFlag(argv[i], "--checkpoint-dir", &value)) {
      options.checkpoint_dir = value;
    } else if (std::strcmp(argv[i], "--no-restore") == 0) {
      options.restore = false;
    } else if (ParseFlag(argv[i], "--drain-grace-ms", &value)) {
      options.drain_grace_ms = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--metrics-out", &value)) {
      metrics_out = value;
    } else if (ParseFlag(argv[i], "--metrics-interval-ms", &value)) {
      metrics_interval_ms = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--read-batch-ratio", &value)) {
      // Store tuning lives server-side under disaggregation (paper §6
      // "FlowKV Configuration"); expose the paper's knobs so remote runs
      // can mirror an embedded configuration.
      options.store_options.read_batch_ratio = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--write-buffer-bytes", &value)) {
      options.store_options.write_buffer_bytes =
          std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--partitions-per-store", &value)) {
      options.store_options.num_partitions = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--standby-of", &value)) {
      standby_of = value;
    } else if (ParseFlag(argv[i], "--max-shard-queue-depth", &value)) {
      options.max_shard_queue_depth = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--repl-ack-timeout-ms", &value)) {
      options.repl_ack_timeout_ms = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--trace-out", &value)) {
      trace_out = value;
    } else if (ParseFlag(argv[i], "--slow-request-threshold-ms", &value)) {
      options.slow_request_threshold_ms = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--slow-log-size", &value)) {
      options.slow_log_size = std::strtoull(value.c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--no-prefetch-push") == 0) {
      options.enable_prefetch_push = false;
    } else if (ParseFlag(argv[i], "--prefetch-shadow-bytes", &value)) {
      options.prefetch_shadow_bytes = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--lease-ms", &value)) {
      options.lease_ms = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--heartbeat-ms", &value)) {
      heartbeat_ms = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--promotion-priority", &value)) {
      options.promotion_priority = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--promotion-stagger-ms", &value)) {
      promotion_stagger_ms = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--peer", &value)) {
      const size_t colon = value.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--peer expects HOST:PORT, got %s\n", value.c_str());
        return Usage(argv[0]);
      }
      peers.push_back({value.substr(0, colon), std::atoi(value.c_str() + colon + 1)});
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.data_dir.empty()) {
    return Usage(argv[0]);
  }

  flowkv::obs::PeriodicReporter reporter;
  if (!metrics_out.empty() && !reporter.Start(metrics_out, metrics_interval_ms)) {
    std::fprintf(stderr, "cannot open metrics file: %s\n", metrics_out.c_str());
    return 1;
  }
  if (flowkv::obs::FlightRecordPath().empty()) {
    // SIGUSR1 dumps need a sink even when --metrics-out wasn't given.
    flowkv::obs::SetFlightRecordPath(
        flowkv::JoinPath(options.data_dir, "server.flight"));
  }
  if (!trace_out.empty()) {
    flowkv::obs::Tracing::Enable();
    // Distinct pid so a merged client+server Chrome trace shows two process
    // rows sharing trace ids (docs/OBSERVABILITY.md "Distributed tracing").
    flowkv::obs::Tracing::SetExportProcess(2, "flowkv_server");
  }

  // A server joined to a primary starts in the standby role: client writes
  // are fenced until a promotion flips it.
  options.start_as_standby = !standby_of.empty();

  std::unique_ptr<flowkv::net::Server> server;
  const flowkv::Status start = flowkv::net::Server::Start(options, &server);
  if (!start.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", start.ToString().c_str());
    return 1;
  }
  g_server = server.get();

  std::unique_ptr<flowkv::net::ReplicaPuller> puller;
  if (!standby_of.empty()) {
    const size_t colon = standby_of.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--standby-of expects HOST:PORT, got %s\n", standby_of.c_str());
      return Usage(argv[0]);
    }
    flowkv::net::ReplicaOptions repl;
    repl.primary_host = standby_of.substr(0, colon);
    repl.primary_port = std::atoi(standby_of.c_str() + colon + 1);
    repl.self_port = server->port();
    repl.snapshot_dir = flowkv::JoinPath(options.data_dir, ".standby_snapshot");
    repl.lease_ms = options.lease_ms;
    repl.heartbeat_ms = heartbeat_ms;
    repl.promotion_priority = options.promotion_priority;
    repl.promotion_stagger_ms = promotion_stagger_ms;
    repl.peers = peers;
    flowkv::net::Server* raw_server = server.get();
    repl.promote = [raw_server](uint64_t epoch) { return raw_server->Promote(epoch); };
    repl.local_epoch = [raw_server] { return raw_server->cluster_epoch(); };
    const flowkv::Status repl_status = flowkv::net::ReplicaPuller::Start(repl, &puller);
    if (!repl_status.ok()) {
      std::fprintf(stderr, "standby start failed: %s\n", repl_status.ToString().c_str());
      return 1;
    }
    g_has_puller.store(true, std::memory_order_relaxed);
  }

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleFlightSignal;
  ::sigaction(SIGUSR1, &sa, nullptr);

  // Drains SIGUSR1 requests off the signal handler (TriggerFlightRecord is
  // not async-signal-safe), and sequences a standby's SIGTERM: the puller
  // stops FIRST — joining its thread, so no kSnapshotFile or forwarded-op
  // apply is in flight through the loopback client — and only then does the
  // drain checkpoint start. Polling keeps the handler one atomic store.
  std::atomic<bool> watcher_stop{false};
  std::thread flight_watcher([&watcher_stop, &puller, &server] {
    while (!watcher_stop.load(std::memory_order_relaxed)) {
      if (g_flight_requested.exchange(false, std::memory_order_relaxed)) {
        flowkv::obs::TriggerFlightRecord("SIGUSR1");
      }
      if (g_drain_requested.exchange(false, std::memory_order_relaxed)) {
        if (puller != nullptr) {
          puller->Stop();
        }
        server->RequestDrain();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  const flowkv::Status final = server->AwaitTermination();
  g_server = nullptr;
  watcher_stop.store(true, std::memory_order_relaxed);
  flight_watcher.join();
  if (g_flight_requested.exchange(false, std::memory_order_relaxed)) {
    flowkv::obs::TriggerFlightRecord("SIGUSR1");  // request raced shutdown
  }
  if (!trace_out.empty() && !flowkv::obs::Tracing::ExportChromeTrace(trace_out)) {
    std::fprintf(stderr, "cannot write trace file: %s\n", trace_out.c_str());
  }
  if (puller != nullptr) {
    puller->Stop();  // before the loopback target is gone
  }
  reporter.Stop();
  if (!final.ok()) {
    std::fprintf(stderr, "drain failed: %s\n", final.ToString().c_str());
    return 1;
  }
  return 0;
}
