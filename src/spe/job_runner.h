// JobRunner: executes a query across N share-nothing workers, one thread per
// worker, each with its own source partition, pipeline and store instances
// (the paper's physical plan: states are partitioned by key and accessed by
// a single-threaded worker, §2.1/Fig. 1).
//
// Two execution modes:
//  - throughput: feed the partition as fast as possible, measure wall time
//    (paper §6.1 "time taken to process fixed-sized streaming datasets");
//  - fixed-rate: pace tuples against the wall clock and record per-result
//    latency relative to each tuple's ideal arrival time — the backpressure-
//    sensitive tail-latency methodology of §6.2. A worker whose processing
//    lag exceeds `fail_lag_ms` is declared failed ("fails to handle higher
//    tuple rates").
#ifndef SRC_SPE_JOB_RUNNER_H_
#define SRC_SPE_JOB_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/spe/pipeline.h"

namespace flowkv {

// Per-worker event source. Events must be in non-decreasing timestamp order
// (bounded disorder is tolerated up to the configured lateness).
class SourceIterator {
 public:
  virtual ~SourceIterator() = default;
  // Returns false at end of stream.
  virtual bool Next(Event* event) = 0;
};

struct JobConfig {
  int workers = 1;
  // Emit a watermark after this many events.
  int watermark_interval_events = 256;
  // Watermark = max_seen_timestamp - allowed_lateness.
  int64_t allowed_lateness_ms = 0;

  // Abort the worker with ResourceExhausted("did not finish") once it has
  // run this long (seconds); 0 = no limit. Reproduces the paper's DNF bars
  // (Faster on append workloads, Fig. 4) at library scale.
  double max_wall_seconds = 0;

  // Fixed-rate mode (events/second per worker); 0 = throughput mode.
  double target_rate = 0;
  // Event-time milliseconds that one wall-clock second represents in
  // fixed-rate mode; defaults to event-time spacing * target_rate.
  // (Computed internally; sources define event-time spacing.)
  // Fail the worker if it falls this far behind its ideal schedule.
  int64_t fail_lag_ms = 10'000;

  // Results emitted before this many input events are excluded from the
  // latency histogram (the paper likewise measures only after a warm-up of
  // one window length).
  uint64_t latency_warmup_events = 0;

  // --- Observability (src/obs/) ---
  // When non-empty, a PeriodicReporter thread samples every worker on this
  // interval and appends one JSONL object per worker per tick to the file.
  std::string metrics_out_path;
  int metrics_interval_ms = 100;
  // When non-empty, tracing is enabled for the duration of the job and a
  // Chrome-trace JSON file (loadable in Perfetto) is written here after the
  // workers join. Empty (default) keeps the trace probes to a single
  // relaxed-load branch.
  std::string trace_out_path;
  // Per-thread ring capacity in events; oldest events are overwritten.
  size_t trace_ring_capacity = 64 * 1024;
};

struct WorkerReport {
  Status status;
  uint64_t events_in = 0;
  uint64_t results_out = 0;
  double wall_seconds = 0;
  double cpu_seconds = 0;  // thread CPU time of this worker
  StoreStats store_stats;
  Histogram latency_ms;  // fixed-rate mode only
};

struct JobReport {
  Status status;  // first failure, or OK
  std::vector<WorkerReport> workers;
  // The job clock: from the moment every worker has opened its pipeline
  // to the last worker's join.
  double wall_seconds = 0;

  uint64_t TotalEventsIn() const;
  double TotalCpuSeconds() const;
  uint64_t TotalResults() const;
  // Aggregate throughput: total events / the job clock.
  double Throughput() const;
  StoreStats AggregateStoreStats() const;
  Histogram AggregateLatency() const;
};

using SourceFactory = std::function<std::unique_ptr<SourceIterator>(int worker)>;
// Builds the worker's pipeline (operators only; Open is done by the runner).
using PipelineFactory = std::function<Status(int worker, Pipeline* pipeline)>;

// Runs the job to completion. `backend_factory` provides per-operator state.
JobReport RunJob(const JobConfig& config, const SourceFactory& source_factory,
                 const PipelineFactory& pipeline_factory, StateBackendFactory* backend_factory);

}  // namespace flowkv

#endif  // SRC_SPE_JOB_RUNNER_H_
