// flowkv_ctl: cluster administration for running flowkv_server processes
// (docs/NETWORK.md "Cluster roles, epochs, and failover").
//
//   flowkv_ctl status HOST:PORT [HOST:PORT ...]
//       One row per endpoint: role, epoch, lease, promotion priority.
//       Warns loudly when two live servers claim the primary role — the
//       split-brain signal an operator drill is looking for. Exit 1 when
//       any endpoint is unreachable or a split brain is detected.
//
//   flowkv_ctl promote HOST:PORT [--epoch=N]
//       Manually promote a standby (kClusterAdmin "promote"). Without
//       --epoch the server picks current+1; with it the promotion is
//       fenced to exactly that epoch (rejected if the server has already
//       seen something newer — safe to script against a stale view).
//
//   flowkv_ctl fence HOST:PORT
//       Permanently fence a server (kClusterAdmin "fence"): every
//       subsequent write is refused with kFencedOff. Used in drills to
//       simulate a partitioned former primary, and for good in real
//       incidents before decommissioning one.
//
// Automated failover does not need this tool — standbys elect and promote
// on their own when --lease-ms is set. flowkv_ctl exists for drills,
// scripted maintenance (promote-then-restart), and incident forensics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "tools/stat_format.h"

namespace {

using flowkv::Status;
using flowkv::net::Client;
using flowkv::net::ClientOptions;
using flowkv::net::ClusterView;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s status HOST:PORT [HOST:PORT ...]\n"
               "       %s promote HOST:PORT [--epoch=N]\n"
               "       %s fence HOST:PORT\n",
               argv0, argv0, argv0);
  return 2;
}

// Short-lived single-shot connection: an admin tool must report an outage,
// not retry its way around one.
Status Dial(const std::string& host, int port, std::unique_ptr<Client>* client) {
  ClientOptions opts;
  opts.host = host;
  opts.port = port;
  opts.connect_timeout_ms = 2000;
  opts.request_timeout_ms = 5000;
  opts.max_retries = 0;
  opts.max_reconnect_attempts = 1;
  return Client::Connect(opts, client);
}

const char* RoleName(int64_t role) {
  switch (role) {
    case flowkv::net::kRolePrimary:
      return "primary";
    case flowkv::net::kRoleStandby:
      return "standby";
    case flowkv::net::kRoleFenced:
      return "fenced";
    default:
      return "unknown";
  }
}

void PrintView(const ClusterView& view) {
  std::fprintf(stdout, "role=%s epoch=%llu lease_ms=%lld priority=%lld\n",
               RoleName(view.role), static_cast<unsigned long long>(view.epoch),
               static_cast<long long>(view.lease_ms), static_cast<long long>(view.priority));
}

int RunStatus(const std::vector<std::string>& endpoints) {
  std::fprintf(stdout, "%-24s %-8s %8s %9s %9s\n", "endpoint", "role", "epoch",
               "lease_ms", "priority");
  int rc = 0;
  int primaries = 0;
  for (const std::string& ep : endpoints) {
    std::string host;
    int port = 0;
    if (!flowkv::tools::ParseHostPort(ep, &host, &port)) {
      std::fprintf(stderr, "bad endpoint (expected HOST:PORT): %s\n", ep.c_str());
      return 2;
    }
    // The connect handshake returns the endpoint's cluster view.
    std::unique_ptr<Client> client;
    const Status s = Dial(host, port, &client);
    if (!s.ok()) {
      std::fprintf(stdout, "%-24s %-8s (%s)\n", ep.c_str(), "down", s.ToString().c_str());
      rc = 1;
      continue;
    }
    const ClusterView& view = client->handshake_view();
    if (view.role == flowkv::net::kRolePrimary) ++primaries;
    std::fprintf(stdout, "%-24s %-8s %8llu %9lld %9lld\n", ep.c_str(), RoleName(view.role),
                 static_cast<unsigned long long>(view.epoch),
                 static_cast<long long>(view.lease_ms), static_cast<long long>(view.priority));
  }
  if (primaries > 1) {
    std::fprintf(stdout,
                 "WARNING: %d servers claim the primary role — check epochs above; "
                 "the lower-epoch one must be fenced\n",
                 primaries);
    rc = 1;
  }
  return rc;
}

int RunAdmin(const std::string& command, const std::string& ep, uint64_t target_epoch) {
  std::string host;
  int port = 0;
  if (!flowkv::tools::ParseHostPort(ep, &host, &port)) {
    std::fprintf(stderr, "bad endpoint (expected HOST:PORT): %s\n", ep.c_str());
    return 2;
  }
  std::unique_ptr<Client> client;
  Status s = Dial(host, port, &client);
  ClusterView view;
  if (s.ok()) {
    s = client->ClusterAdmin(command, target_epoch, &view);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "%s %s failed: %s\n", command.c_str(), ep.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  std::fprintf(stdout, "%s %s: ", command.c_str(), ep.c_str());
  PrintView(view);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return Usage(argv[0]);
  }
  const std::string command = argv[1];

  if (command == "status") {
    std::vector<std::string> endpoints;
    for (int i = 2; i < argc; ++i) {
      if (argv[i][0] == '-') {
        return Usage(argv[0]);
      }
      endpoints.emplace_back(argv[i]);
    }
    return RunStatus(endpoints);
  }

  if (command == "promote" || command == "fence") {
    std::string endpoint;
    uint64_t target_epoch = 0;
    for (int i = 2; i < argc; ++i) {
      if (std::strncmp(argv[i], "--epoch=", 8) == 0 && command == "promote") {
        target_epoch = std::strtoull(argv[i] + 8, nullptr, 10);
      } else if (argv[i][0] == '-') {
        return Usage(argv[0]);
      } else if (endpoint.empty()) {
        endpoint = argv[i];
      } else {
        return Usage(argv[0]);
      }
    }
    if (endpoint.empty()) {
      return Usage(argv[0]);
    }
    return RunAdmin(command, endpoint, target_epoch);
  }

  return Usage(argv[0]);
}
