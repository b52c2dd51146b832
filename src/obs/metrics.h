// Live metrics registries. Instruments (counters, gauges, histograms) are
// owned by a registry and labeled with the (worker, partition, pattern, op)
// context of the creating thread. Counter and gauge updates are
// single-writer RelaxedCounter stores — no locks, no contended cache lines
// under the SPE's thread-per-partition contract — while readers snapshot
// them concurrently with relaxed loads.
//
// Global() holds the embedded engine's instruments and registered StoreStats
// blocks. Each net::Server, net::Client and net::ReplicaPuller owns an
// instance registry instead, attached to Global() for its lifetime so the
// process-wide dumps (flight records, the periodic reporter) still see it.
//
// Lookup (GetCounter etc.) takes a mutex; callers look up once and cache the
// returned pointer, which stays valid for the life of the registry.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/relaxed_counter.h"
#include "src/common/stats.h"
#include "src/common/thread_annotations.h"

namespace flowkv {
namespace obs {

// Label set attached to every instrument at creation time.
struct MetricLabels {
  int worker = -1;
  int partition = -1;
  std::string pattern;
  std::string op;  // logical operator name ("" when outside an OperatorScope)

  bool operator<(const MetricLabels& o) const {
    return std::tie(worker, partition, pattern, op) <
           std::tie(o.worker, o.partition, o.pattern, o.op);
  }
};

// Monotonically increasing count (events, bytes, ...). Single writer.
class Counter {
 public:
  void Add(int64_t delta = 1) { v_ += delta; }
  int64_t Value() const { return v_.load(); }

 private:
  RelaxedCounter v_;
};

// Last-write-wins level (queue depth, lag, ...). Single writer.
class Gauge {
 public:
  void Set(int64_t value) { v_ = value; }
  int64_t Value() const { return v_.load(); }

 private:
  RelaxedCounter v_;
};

// Mutex-guarded latency/size distribution. Unlike the single-writer
// instruments above it accepts concurrent writers (server shard threads all
// record into the same request-latency histogram); Record is a short
// critical section, and the reporter copies the histogram under the same
// lock to compute percentile snapshots.
class HistogramMetric {
 public:
  void Record(double value) {
    MutexLock lock(&mu_);
    hist_.Add(value);
  }
  Histogram SnapshotHistogram() const {
    MutexLock lock(&mu_);
    return hist_;
  }

 private:
  mutable Mutex mu_;
  Histogram hist_ GUARDED_BY(mu_);
};

// One row of a registry snapshot.
struct MetricSample {
  std::string name;
  MetricLabels labels;
  const char* kind;  // "counter" | "gauge" | "stats"
  int64_t value = 0;
};

// Point-in-time percentile summary of one HistogramMetric.
struct HistogramSample {
  std::string name;
  MetricLabels labels;
  uint64_t count = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

// Appends `s` to `*out` as the body of a JSON string: '"' and '\\' are
// backslash-escaped, control bytes become \u00XX. Every JSON writer over
// metric names and labels goes through it.
void AppendJsonEscaped(std::string* out, const std::string& s);

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // An instance registry, attached to Global() until destroyed.
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Instruments are keyed by (name, current thread-context labels); repeated
  // calls with the same key return the same instrument.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  HistogramMetric* GetHistogram(const std::string& name);

  // Registers a live StoreStats block for concurrent sampling, labeled with
  // the calling thread's context plus the given pattern. The caller must
  // Unregister before the stats block is destroyed (ScopedStatsRegistration
  // does this). Returns a registration id.
  uint64_t RegisterStoreStats(StoreStats* stats, const char* pattern);
  void UnregisterStoreStats(uint64_t id);

  // Sums the counter fields of every registered StoreStats (optionally only
  // those labeled with `worker`; worker < 0 means all). Counters only — the
  // embedded histogram is owner-written and is not sampled live.
  StoreStats AggregateStoreStats(int worker = -1) const;

  // Point-in-time view of every instrument and registered stats counter,
  // followed by those of every attached instance registry.
  std::vector<MetricSample> Snapshot() const;
  // Percentile snapshots (p50/p95/p99) of every histogram, attached
  // registries' included; the periodic reporter embeds these in its JSONL
  // stream.
  std::vector<HistogramSample> HistogramSnapshots() const;
  // Snapshot as a JSON array of
  // {"name","worker","partition","op","pattern","kind","value"}.
  std::string SnapshotJson() const;
  // The Snapshot() values named `name`, summed over every label set.
  int64_t Sum(const std::string& name) const;

 private:
  using Key = std::pair<std::string, MetricLabels>;
  struct StatsEntry {
    uint64_t id;
    StoreStats* stats;
    MetricLabels labels;
  };
  struct GlobalTag {};

  explicit MetricsRegistry(GlobalTag) {}

  // The mutex guards the registry's *shape* (the maps and the stats list);
  // the instruments the map values point at are updated lock-free by their
  // single-writer owners and sampled with relaxed loads.
  mutable Mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<HistogramMetric>> histograms_ GUARDED_BY(mu_);
  std::vector<StatsEntry> stats_ GUARDED_BY(mu_);
  uint64_t next_stats_id_ GUARDED_BY(mu_) = 1;

  // Instance registries attached to this one (non-empty only on Global()).
  // Taken after, never while holding, mu_; an attached registry's own locks
  // nest inside it.
  mutable Mutex attached_mu_;
  std::vector<const MetricsRegistry*> attached_ GUARDED_BY(attached_mu_);
};

// RAII registration of a store's StoreStats with the global registry.
// Constructed in store constructors (labels captured from the thread context
// at that point, i.e. inside the enclosing PartitionScope).
class ScopedStatsRegistration {
 public:
  ScopedStatsRegistration(StoreStats* stats, const char* pattern)
      : id_(MetricsRegistry::Global().RegisterStoreStats(stats, pattern)) {}
  ~ScopedStatsRegistration() { MetricsRegistry::Global().UnregisterStoreStats(id_); }

  ScopedStatsRegistration(const ScopedStatsRegistration&) = delete;
  ScopedStatsRegistration& operator=(const ScopedStatsRegistration&) = delete;

 private:
  uint64_t id_;
};

}  // namespace obs
}  // namespace flowkv

#endif  // SRC_OBS_METRICS_H_
