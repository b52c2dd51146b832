// RemoteBackendFactory: a StateBackendFactory whose state lives in a
// flowkv_server process reached over the src/net wire protocol, so existing
// pipelines, queries, and benches run unmodified against a remote FlowKV
// state service.
//
// Each CreateBackend() call opens its own net::Client connection (one caller
// thread per client, matching the one-backend-per-physical-operator
// contract). When ClientOptions::enable_prefetch_push is set the client also
// subscribes its AAR stores to server pushes of closed windows and reads
// them inline into a read-ahead cache, so window reads can be served from
// client memory (src/net/prefetch.h).
// Stores are namespaced "w<worker>.<operator>.h<n>" so every physical
// operator's stores are distinct server-side.
//
// RMW accumulator cache: each backend keeps a write-through copy of the
// accumulators it has put, keyed by (store, key, window). A Put stores the
// value locally and still sends it (batched); a Remove erases the entry and
// sends; a Get that hits returns without a round trip. This is sound because
// a store namespace has exactly one writer, this backend: the value it last
// wrote is what the server holds, or will hold once the client's pending
// batch or the replay buffer reaches it, and a Put re-applied by an
// at-least-once retry writes the same value again. The cache is cleared
// whenever any call through the backend returns a non-OK status (other than
// NotFound from a read), since a failed write may not have landed as cached.
// It holds only live windows — the SPE removes each window's state when it
// fires — and is bounded by ClientOptions::read_ahead_cache_bytes: a Put
// that would exceed the budget drops that entry, so a later Get goes to the
// server. Hits and misses are counted in remote.rmw_cache_hits and
// remote.rmw_cache_misses, in the registry of the backend's own client
// (RemoteBackendClient below, docs/OBSERVABILITY.md).
#ifndef SRC_BACKENDS_REMOTE_BACKEND_H_
#define SRC_BACKENDS_REMOTE_BACKEND_H_

#include <memory>
#include <string>

#include "src/net/client.h"
#include "src/spe/state.h"

namespace flowkv {

class RemoteBackendFactory : public StateBackendFactory {
 public:
  // `options.host`/`options.port` locate the server; the rest tune timeouts,
  // reconnect backoff, retry budgets, and failover endpoints.
  explicit RemoteBackendFactory(net::ClientOptions options);
  RemoteBackendFactory(const std::string& host, int port);

  // Optional bounded local buffering: when > 0, a write that still fails
  // with kConnectionReset or kOverloaded after the client's own retries and
  // failover is held locally (up to this many bytes per backend) and
  // replayed, in order, before the next call that reaches the server. Reads
  // drain the buffer first so they never observe a gap the buffer would
  // later fill. Once the bound is hit writes fail with kResourceExhausted —
  // backpressure, not silent loss. 0 (default) disables buffering.
  void set_replay_buffer_bytes(size_t bytes) { replay_buffer_bytes_ = bytes; }

  Status CreateBackend(int worker, const std::string& operator_name,
                       std::unique_ptr<StateBackend>* out) override;

  std::string name() const override { return "remote"; }

 private:
  net::ClientOptions options_;
  size_t replay_buffer_bytes_ = 0;
};

// The client behind a backend RemoteBackendFactory created, whose metrics()
// hold the backend's client.* and remote.* instruments; null for any other
// backend.
net::Client* RemoteBackendClient(StateBackend* backend);

}  // namespace flowkv

#endif  // SRC_BACKENDS_REMOTE_BACKEND_H_
