// ETT-driven prefetch (paper §4.2 applied across the wire): the state server
// pushes a window's AAR chunk to registered clients *before* the window
// triggers, so the trigger read is served from client memory instead of a
// network round trip.
//
// The two halves:
//
//  - ShardPrefetchScheduler (server side, one per shard, confined to that
//    shard's reactor thread): when a connection registers interest in
//    a store (kEttRegister), the scheduler shadow-copies every append into a
//    per-(store, window) buffer and tracks the store's event-time high-water
//    mark (the max window.start observed — a tuple in window [s, e) proves
//    event time has reached s). A window whose end is at or below the
//    high-water mark can no longer grow for an in-order stream, and for an
//    aligned window the end IS the ETT — so the scheduler fires it:
//    earliest-deadline-first, the shadow chunk becomes a kPushChunk frame
//    queued to every subscriber. The store's own state is untouched (the
//    shadow is a copy); the client consumes it later with kDropWindow (cache
//    hit) or an ordinary kGetWindowChunk read (cache miss), so no data is
//    ever lost to an optimistic push. Shadow memory is bounded
//    (ServerOptions::prefetch_shadow_bytes): a window that would exceed the
//    budget is abandoned (counted, never pushed) and served by the normal
//    read path. A write into an already-fired window invalidates the push
//    (counted; the client's count check turns it into a safe miss).
//
//  - ReadAheadCache (client side, confined to the Client's caller thread,
//    which reads pushes inline ahead of its own responses): entries are keyed by
//    (store handle, window) and hold the pushed chunk — a store lives on one
//    server shard, whose scheduler pushes each window once, whole. The caller
//    records every local append; a read is served from the cache only when
//    the number of pushed values exactly equals the number of local appends
//    (> 0) — any hazard (late local write, duplicated at-least-once replay,
//    failover to a standby with no shadow state, partial or lost pushes)
//    breaks the equality and degrades to a safe remote read. The cache is
//    capacity-bounded (LRU eviction) and cleared on every reconnect, so a
//    promoted standby can never be shadowed by pre-outage pushes.
#ifndef SRC_NET_PREFETCH_H_
#define SRC_NET_PREFETCH_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/slice.h"
#include "src/common/thread_annotations.h"
#include "src/obs/metrics.h"
#include "src/spe/state.h"
#include "src/spe/window.h"

namespace flowkv {
namespace net {

// ----- server side -----

// One fired window, ready to be encoded as a kPushChunk frame and queued to
// every subscriber connection. `chunk` is key-grouped (one entry per key).
struct FiredPush {
  uint64_t store_id = 0;
  Window window;
  uint64_t push_seq = 0;
  std::vector<uint64_t> conn_ids;
  std::vector<WindowChunkEntry> chunk;
  size_t bytes = 0;  // shadow accounting cost of the chunk
};

// Per-shard prefetch state.
//
// INVARIANT(reactor-confined): an instance belongs to one shard and is only
// ever touched by that shard's reactor thread — the same single-writer
// contract the shard's FlowKvStore instances live under. No mutex; there is
// nothing for -Wthread-safety to check here, reviewers enforce the
// confinement (all call sites sit inside ExecuteShardOp / reactor task
// handlers).
class ShardPrefetchScheduler {
 public:
  // Creates the scheduler's `prefetch.*` instruments in `metrics`, labeled
  // with the calling thread's context (the server constructs each shard's
  // scheduler under WorkerScope(shard)). Single writer: the shard's reactor.
  ShardPrefetchScheduler(size_t shadow_budget_bytes, obs::MetricsRegistry* metrics);

  ShardPrefetchScheduler(const ShardPrefetchScheduler&) = delete;
  ShardPrefetchScheduler& operator=(const ShardPrefetchScheduler&) = delete;

  // kEttRegister: subscribe `conn_id` to pushes for `store_id`. The window /
  // ETT hint from the frame is informational (first expected read and the
  // client's next trigger estimate); firing is driven by observed event-time
  // progress, which needs no clock and cannot fire early.
  void Register(uint64_t conn_id, uint64_t store_id);

  // Connection closed: drop its subscriptions; stores left with no
  // subscribers drop their shadow state.
  void Unregister(uint64_t conn_id);

  bool HasSubscribers(uint64_t store_id) const;

  // Called after the shard applied an AAR append. Shadow-copies the tuple,
  // advances the store's event-time high-water mark, and moves any window
  // whose end <= high-water into the fired queue (EDF: smallest end first).
  void OnAppend(uint64_t store_id, const Slice& key, const Slice& value, const Window& w);

  // Called when the shard serves kGetWindowChunk or kDropWindow for the
  // window: any unpushed shadow is waste; drop it either way.
  void OnWindowConsumed(uint64_t store_id, const Window& w);

  bool has_fired() const { return !fired_.empty(); }

  // Moves the fired queue (EDF order) to `out`.
  void TakeFired(std::vector<FiredPush>* out);

  size_t shadow_bytes() const { return shadow_bytes_; }

 private:
  struct ShadowWindow {
    std::vector<WindowChunkEntry> chunk;  // key-grouped, like a read pass
    std::unordered_map<std::string, size_t> key_index;
    size_t bytes = 0;
  };

  // Orders windows by deadline (end) for EDF firing.
  struct WindowByEnd {
    bool operator()(const Window& a, const Window& b) const {
      return a.end != b.end ? a.end < b.end : a.start < b.start;
    }
  };

  struct StoreState {
    std::vector<uint64_t> subscribers;
    std::map<Window, ShadowWindow, WindowByEnd> shadows;
    std::set<Window, WindowByEnd> abandoned;  // over budget; cleared on consume
    int64_t hiwater = INT64_MIN;              // max window.start seen
    uint64_t next_seq = 1;
  };

  void FireReady(uint64_t store_id, StoreState* st);
  // Moves the shadow footprint by `delta` bytes and publishes it.
  void AddShadowBytes(int64_t delta);

  size_t budget_bytes_;
  obs::Counter* m_registrations_;   // kEttRegister subscriptions seen
  obs::Counter* m_fired_;           // windows materialized and handed off
  obs::Counter* m_fired_entries_;   // values across all fired windows
  obs::Counter* m_fired_bytes_;     // shadow bytes across fired windows
  obs::Counter* m_invalidated_;     // appends into already-fired windows
  obs::Counter* m_overflow_;        // windows abandoned at the byte budget
  obs::Counter* m_waste_;           // shadows dropped unpushed (read/drop first)
  obs::Gauge* m_shadow_bytes_;      // current shadow footprint
  std::unordered_map<uint64_t, StoreState> stores_;
  std::vector<FiredPush> fired_;
  size_t shadow_bytes_ = 0;
};

// ----- client side -----

// Point-in-time read of a ReadAheadCache's `client.prefetch_*` counters.
struct ReadAheadCounters {
  int64_t hits = 0;        // reads served from pushed chunks
  int64_t misses = 0;      // reads with local appends that went remote
  int64_t waste = 0;       // pushed entries discarded unserved
  int64_t stale = 0;       // pushes dropped: no local appends, or already cached
  int64_t evictions = 0;   // entries evicted at the capacity bound
  int64_t pushes = 0;      // push frames accepted
};

// Capacity-bounded store of pushed window chunks, keyed by (client store
// handle, window). Confined to the owning Client's caller thread, which
// records appends, serves reads and banks the pushes it reads inline. The
// state stays guarded by mu_ anyway: the lock is uncontended, keeps the
// class safe on its own, and lets -Wthread-safety check it.
//
// Coherence is by counting, not invalidation bits: a hit requires the pushed
// value count to EQUAL the locally recorded append count, so every failure
// mode (a local write after the server fired, an at-least-once duplicate, a
// push lost to backpressure, a failover to a peer with no shadow state)
// shows up as an inequality and falls back to the remote read. Reconnects
// clear all entries outright — a promoted standby must never be fronted by
// the dead primary's pushes.
class ReadAheadCache {
 public:
  // Counts into `metrics` (the owning client's registry).
  ReadAheadCache(size_t capacity_bytes, obs::MetricsRegistry* metrics);

  ReadAheadCache(const ReadAheadCache&) = delete;
  ReadAheadCache& operator=(const ReadAheadCache&) = delete;

  // One logical local append to (handle, w).
  void OnLocalAppend(uint64_t handle, const Window& w) EXCLUDES(mu_);

  // A pushed chunk for (handle, w) arrived. A second push for a window that
  // already has an entry (the server sends none) is dropped as stale.
  void OnPush(uint64_t handle, const Window& w, std::vector<WindowChunkEntry> chunk)
      EXCLUDES(mu_);

  // Serves a window read from the cache when the counts match.
  // On a hit the full chunk moves to `*chunk` and the entry and count are
  // consumed (the caller then issues kDropWindow to consume server state).
  bool TryServe(uint64_t handle, const Window& w,
                std::vector<WindowChunkEntry>* chunk) EXCLUDES(mu_);

  // A remote read of (handle, w) returned a chunk, so the
  // window drains remotely from here on — forget the local count and discard
  // (as waste) any entry that never got served. Called on every chunk, not
  // just the last: once one chunk of the window has been read remotely,
  // serving the window whole from a push that lands mid-drain would deliver
  // that chunk twice.
  void OnRemoteRead(uint64_t handle, const Window& w) EXCLUDES(mu_);

  // Drop every cached entry (reconnect/failover). Local append counts are
  // kept: they describe client-side history, and any partial re-push against
  // them simply fails the equality.
  void Clear() EXCLUDES(mu_);

  ReadAheadCounters counters() const;
  size_t bytes() const EXCLUDES(mu_);

 private:
  struct Key {
    uint64_t handle;
    Window w;
    bool operator==(const Key& o) const {
      return handle == o.handle && w.start == o.w.start && w.end == o.w.end;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.handle * 0x9e3779b97f4a7c15ull;
      h ^= static_cast<uint64_t>(k.w.start) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h ^= static_cast<uint64_t>(k.w.end) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  struct Entry {
    std::vector<WindowChunkEntry> chunk;
    int64_t values = 0;
    size_t bytes = 0;
    int64_t last_push_nanos = 0;
    uint64_t lru_tick = 0;
  };

  void EvictUntilWithinCapacityLocked() REQUIRES(mu_);

  const size_t capacity_bytes_;

  mutable Mutex mu_;
  std::unordered_map<Key, int64_t, KeyHash> local_counts_ GUARDED_BY(mu_);
  std::unordered_map<Key, Entry, KeyHash> entries_ GUARDED_BY(mu_);
  size_t bytes_ GUARDED_BY(mu_) = 0;
  uint64_t lru_tick_ GUARDED_BY(mu_) = 0;

  // All updates happen under mu_ on the one caller thread, so the
  // single-writer counter contract holds.
  obs::Counter* m_hits_;
  obs::Counter* m_misses_;
  obs::Counter* m_waste_;
  obs::Counter* m_stale_;
  obs::Counter* m_evictions_;
  obs::Counter* m_pushes_;
  obs::HistogramMetric* m_push_lag_ms_;
};

}  // namespace net
}  // namespace flowkv

#endif  // SRC_NET_PREFETCH_H_
