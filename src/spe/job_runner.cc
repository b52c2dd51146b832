#include "src/spe/job_runner.h"

#include <algorithm>
#include <barrier>
#include <thread>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/obs/context.h"
#include "src/obs/reporter.h"
#include "src/obs/trace.h"

namespace flowkv {

namespace {

// Sink that counts results and, in fixed-rate mode, records the lag between
// each result and the ideal wall-clock schedule of the tuple that caused it.
class SinkCollector : public Collector {
 public:
  SinkCollector(Histogram* latency_ms, const int64_t* current_ideal_ns, bool record_latency)
      : latency_ms_(latency_ms),
        current_ideal_ns_(current_ideal_ns),
        record_latency_(record_latency) {}

  void set_warm(bool warm) { warm_ = warm; }

  Status Emit(const Event& event) override {
    ++count_;
    if (record_latency_ && warm_) {
      double lag_ms =
          static_cast<double>(MonotonicNanos() - *current_ideal_ns_) / 1e6;
      latency_ms_->Add(std::max(lag_ms, 0.001));
    }
    return Status::Ok();
  }

  uint64_t count() const { return count_; }

 private:
  Histogram* latency_ms_;
  const int64_t* current_ideal_ns_;
  bool record_latency_;
  bool warm_ = false;
  uint64_t count_ = 0;
};

// Starts the job clock once the last worker has opened its pipeline.
struct StartJobClock {
  int64_t* start_ns;
  void operator()() noexcept { *start_ns = MonotonicNanos(); }
};
using OpenBarrier = std::barrier<StartJobClock>;

WorkerReport RunWorker(const JobConfig& config, int worker, const SourceFactory& source_factory,
                       const PipelineFactory& pipeline_factory,
                       StateBackendFactory* backend_factory,
                       obs::WorkerProgress* progress, OpenBarrier* opened) {
  // Labels everything this thread creates/records (stores opened by
  // pipeline.Open below, trace events, metrics) with the worker id.
  obs::WorkerScope obs_scope(worker);
  WorkerReport report;
  Pipeline pipeline;
  const bool fixed_rate = config.target_rate > 0;
  int64_t current_ideal_ns = MonotonicNanos();
  SinkCollector sink(&report.latency_ms, &current_ideal_ns, fixed_rate);
  report.status = pipeline_factory(worker, &pipeline);
  if (report.status.ok()) {
    report.status = pipeline.Open(backend_factory, worker, &sink);
  }
  // A worker that failed to open still arrives, or the others would wait
  // for it forever.
  opened->arrive_and_wait();
  if (!report.status.ok()) {
    return report;
  }

  std::unique_ptr<SourceIterator> source = source_factory(worker);
  const int64_t start_ns = MonotonicNanos();
  const int64_t start_cpu_ns = ThreadCpuNanos();
  const double ns_per_event = fixed_rate ? 1e9 / config.target_rate : 0;

  Event event;
  int64_t max_timestamp = INT64_MIN;
  int events_since_watermark = 0;
  while (source->Next(&event)) {
    if (report.events_in == config.latency_warmup_events) {
      sink.set_warm(true);
    }
    if (fixed_rate) {
      current_ideal_ns =
          start_ns + static_cast<int64_t>(static_cast<double>(report.events_in) * ns_per_event);
      const int64_t now = MonotonicNanos();
      if (progress != nullptr) {
        progress->lag_ms = now > current_ideal_ns ? (now - current_ideal_ns) / 1'000'000 : 0;
      }
      if (now < current_ideal_ns) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(current_ideal_ns - now));
      } else if ((now - current_ideal_ns) / 1'000'000 > config.fail_lag_ms) {
        if (progress != nullptr) {
          progress->lag_ms = (now - current_ideal_ns) / 1'000'000;
        }
        report.status = Status::ResourceExhausted(
            "worker " + std::to_string(worker) + " fell " +
            std::to_string((now - current_ideal_ns) / 1'000'000) +
            "ms behind the input rate (backpressure failure)");
        break;
      }
    }

    report.status = pipeline.Process(event);
    if (!report.status.ok()) {
      break;
    }
    ++report.events_in;
    if (progress != nullptr) {
      progress->events_in = static_cast<int64_t>(report.events_in);
      progress->results_out = static_cast<int64_t>(sink.count());
    }
    if (config.max_wall_seconds > 0 && (report.events_in & 0x3ff) == 0 &&
        static_cast<double>(MonotonicNanos() - start_ns) / 1e9 > config.max_wall_seconds) {
      report.status = Status::ResourceExhausted(
          "did not finish within " + std::to_string(config.max_wall_seconds) + "s (DNF)");
      break;
    }
    max_timestamp = std::max(max_timestamp, event.timestamp);
    if (++events_since_watermark >= config.watermark_interval_events) {
      events_since_watermark = 0;
      obs::TraceInstant("watermark_advance", "spe", "watermark_ms",
                        max_timestamp - config.allowed_lateness_ms);
      report.status = pipeline.AdvanceWatermark(max_timestamp - config.allowed_lateness_ms);
      if (!report.status.ok()) {
        break;
      }
    }
  }
  if (report.status.ok()) {
    report.status = pipeline.Finish();
  }
  report.wall_seconds = static_cast<double>(MonotonicNanos() - start_ns) / 1e9;
  report.cpu_seconds = static_cast<double>(ThreadCpuNanos() - start_cpu_ns) / 1e9;
  report.results_out = sink.count();
  if (progress != nullptr) {
    progress->results_out = static_cast<int64_t>(report.results_out);
  }
  report.store_stats = pipeline.GatherStats();
  return report;
}

}  // namespace

uint64_t JobReport::TotalEventsIn() const {
  uint64_t total = 0;
  for (const auto& w : workers) {
    total += w.events_in;
  }
  return total;
}

uint64_t JobReport::TotalResults() const {
  uint64_t total = 0;
  for (const auto& w : workers) {
    total += w.results_out;
  }
  return total;
}

double JobReport::TotalCpuSeconds() const {
  double total = 0;
  for (const auto& w : workers) {
    total += w.cpu_seconds;
  }
  return total;
}

double JobReport::Throughput() const {
  return wall_seconds <= 0 ? 0 : static_cast<double>(TotalEventsIn()) / wall_seconds;
}

StoreStats JobReport::AggregateStoreStats() const {
  StoreStats total;
  for (const auto& w : workers) {
    total.MergeFrom(w.store_stats);
  }
  return total;
}

Histogram JobReport::AggregateLatency() const {
  Histogram total;
  for (const auto& w : workers) {
    total.Merge(w.latency_ms);
  }
  return total;
}

JobReport RunJob(const JobConfig& config, const SourceFactory& source_factory,
                 const PipelineFactory& pipeline_factory, StateBackendFactory* backend_factory) {
  JobReport report;
  report.workers.resize(config.workers);

  const bool tracing = !config.trace_out_path.empty();
  if (tracing) {
    obs::Tracing::Enable(config.trace_ring_capacity);
  }
  obs::PeriodicReporter reporter;
  std::vector<obs::WorkerProgress*> progress(config.workers, nullptr);
  if (!config.metrics_out_path.empty()) {
    for (int w = 0; w < config.workers; ++w) {
      progress[w] = reporter.RegisterWorker(w);
    }
    if (!reporter.Start(config.metrics_out_path, config.metrics_interval_ms)) {
      FLOWKV_LOG(kWarn) << "cannot open metrics output " << config.metrics_out_path;
    }
  }

  int64_t start_ns = MonotonicNanos();
  OpenBarrier opened(config.workers, StartJobClock{&start_ns});
  if (config.workers == 1) {
    report.workers[0] = RunWorker(config, 0, source_factory, pipeline_factory, backend_factory,
                                  progress[0], &opened);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(config.workers);
    for (int w = 0; w < config.workers; ++w) {
      threads.emplace_back([&, w] {
        report.workers[w] = RunWorker(config, w, source_factory, pipeline_factory,
                                      backend_factory, progress[w], &opened);
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }
  report.wall_seconds = static_cast<double>(MonotonicNanos() - start_ns) / 1e9;
  reporter.Stop();
  if (tracing) {
    obs::Tracing::Disable();
    if (!obs::Tracing::ExportChromeTrace(config.trace_out_path)) {
      FLOWKV_LOG(kWarn) << "cannot write trace output " << config.trace_out_path;
    }
  }
  report.status = Status::Ok();
  for (const auto& w : report.workers) {
    if (!w.status.ok()) {
      report.status = w.status;
      break;
    }
  }
  return report;
}

}  // namespace flowkv
