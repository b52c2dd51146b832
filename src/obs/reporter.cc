#include "src/obs/reporter.h"

#include <chrono>

#include "src/common/clock.h"
#include "src/common/stats.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flowkv {
namespace obs {

namespace {

struct FlightRecorder {
  Mutex mu;
  std::string path GUARDED_BY(mu);
};

FlightRecorder& Flight() {
  static FlightRecorder* recorder = new FlightRecorder();  // never destroyed
  return *recorder;
}

}  // namespace

void SetFlightRecordPath(const std::string& path) {
  FlightRecorder& fr = Flight();
  MutexLock lock(&fr.mu);
  fr.path = path;
}

std::string FlightRecordPath() {
  FlightRecorder& fr = Flight();
  MutexLock lock(&fr.mu);
  return fr.path;
}

bool TriggerFlightRecord(const std::string& reason) {
  FlightRecorder& fr = Flight();
  // Held across the write so concurrent triggers interleave whole records,
  // not lines. Failure paths are cold; contention here is irrelevant.
  MutexLock lock(&fr.mu);
  if (fr.path.empty()) return false;
  std::FILE* out = std::fopen(fr.path.c_str(), "a");
  if (out == nullptr) return false;

  const long long ts_ms = static_cast<long long>(MonotonicNanos() / 1000000);
  std::string header = "{\"flight_record\":\"";
  AppendJsonEscaped(&header, reason);
  std::fprintf(out, "%s\",\"ts_ms\":%lld}\n", header.c_str(), ts_ms);

  for (const MetricSample& m : MetricsRegistry::Global().Snapshot()) {
    std::string name, op;
    AppendJsonEscaped(&name, m.name);
    AppendJsonEscaped(&op, m.labels.op);
    std::fprintf(out,
                 "{\"metric\":\"%s\",\"kind\":\"%s\",\"worker\":%d,\"op\":\"%s\","
                 "\"value\":%lld}\n",
                 name.c_str(), m.kind, m.labels.worker, op.c_str(),
                 static_cast<long long>(m.value));
  }

  for (const TraceEvent& ev : Tracing::SnapshotEvents()) {
    std::fprintf(out,
                 "{\"trace\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"tid\":%d,"
                 "\"ts_us\":%lld,\"dur_us\":%lld}\n",
                 ev.name, ev.cat, ev.phase, ev.tid, static_cast<long long>(ev.ts_us),
                 static_cast<long long>(ev.dur_us));
  }
  std::fprintf(out, "{\"trace_dropped\":%llu}\n",
               static_cast<unsigned long long>(Tracing::DroppedCount()));
  std::fputs("{\"flight_record_end\":true}\n", out);
  return std::fclose(out) == 0;
}

PeriodicReporter::~PeriodicReporter() { Stop(); }

WorkerProgress* PeriodicReporter::RegisterWorker(int worker) {
  MutexLock lock(&workers_mu_);
  auto it = workers_.find(worker);
  if (it == workers_.end()) {
    it = workers_.emplace(worker, std::make_unique<WorkerProgress>()).first;
  }
  return it->second.get();
}

bool PeriodicReporter::Start(const std::string& path, int interval_ms) {
  if (thread_.joinable()) return false;
  out_ = std::fopen(path.c_str(), "a");
  if (out_ == nullptr) return false;
  interval_ms_ = interval_ms < 1 ? 1 : interval_ms;
  start_nanos_ = MonotonicNanos();
  {
    MutexLock lock(&mu_);
    stop_requested_ = false;
  }
  if (FlightRecordPath().empty()) {
    SetFlightRecordPath(path + ".flight");
  }
  thread_ = std::thread(&PeriodicReporter::Run, this);
  return true;
}

void PeriodicReporter::Stop() {
  if (thread_.joinable()) {
    {
      MutexLock lock(&mu_);
      stop_requested_ = true;
    }
    cv_.notify_all();
    thread_.join();
    EmitSample();  // final sample so even sub-interval jobs emit data
  }
  if (out_ != nullptr) {
    std::fclose(out_);
    out_ = nullptr;
  }
}

void PeriodicReporter::Run() {
  // Explicit wait loop (no predicate lambda): the thread-safety analysis
  // cannot see that a lambda body runs with mu_ held, a plain loop it can.
  ReleasableMutexLock lock(&mu_);
  while (!stop_requested_) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(interval_ms_);
    while (!stop_requested_ && cv_.wait_until(mu_, deadline) != std::cv_status::timeout) {
    }
    if (stop_requested_) break;
    lock.Unlock();
    EmitSample();
    lock.Lock();
  }
}

void PeriodicReporter::EmitSample() {
  if (out_ == nullptr) return;
  const int64_t now_ns = MonotonicNanos();
  const int64_t ts_ms = now_ns / 1000000;

  MutexLock lock(&workers_mu_);
  for (const auto& kv : workers_) {
    const int worker = kv.first;
    const WorkerProgress& progress = *kv.second;
    const int64_t events_in = progress.events_in.load();

    double throughput_eps = 0.0;
    auto last = last_sample_.find(worker);
    if (last != last_sample_.end()) {
      const int64_t d_events = events_in - last->second.first;
      const int64_t d_nanos = now_ns - last->second.second;
      if (d_nanos > 0) throughput_eps = d_events * 1e9 / static_cast<double>(d_nanos);
    } else if (now_ns > start_nanos_) {
      throughput_eps = events_in * 1e9 / static_cast<double>(now_ns - start_nanos_);
    }
    last_sample_[worker] = {events_in, now_ns};

    const StoreStats stats = MetricsRegistry::Global().AggregateStoreStats(worker);
    std::fprintf(
        out_,
        "{\"ts_ms\":%lld,\"worker\":%d,\"events_in\":%lld,\"results_out\":%lld,"
        "\"throughput_eps\":%.1f,\"lag_ms\":%lld,\"writes\":%lld,\"reads\":%lld,"
        "\"prefetch_hit_ratio\":%.4f,\"read_amplification\":%.4f,"
        "\"compaction_nanos\":%lld,\"flushes\":%lld,"
        "\"io_bytes_read\":%lld,\"io_bytes_written\":%lld}\n",
        static_cast<long long>(ts_ms), worker, static_cast<long long>(events_in),
        static_cast<long long>(progress.results_out.load()),
        throughput_eps, static_cast<long long>(progress.lag_ms.load()),
        static_cast<long long>(stats.writes), static_cast<long long>(stats.reads),
        stats.PrefetchHitRatio(), stats.ReadAmplification(),
        static_cast<long long>(stats.compaction_nanos), static_cast<long long>(stats.flushes),
        static_cast<long long>(stats.io.bytes_read),
        static_cast<long long>(stats.io.bytes_written));
  }

  // Histogram percentile snapshots (e.g. server request latency): one line
  // per registered histogram per tick, so tails are visible live without a
  // trace file.
  for (const HistogramSample& h : MetricsRegistry::Global().HistogramSnapshots()) {
    std::string name, op;
    AppendJsonEscaped(&name, h.name);
    AppendJsonEscaped(&op, h.labels.op);
    std::fprintf(out_,
                 "{\"ts_ms\":%lld,\"hist\":\"%s\",\"worker\":%d,\"op\":\"%s\","
                 "\"count\":%llu,\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f,\"max\":%.3f}\n",
                 static_cast<long long>(ts_ms), name.c_str(), h.labels.worker, op.c_str(),
                 static_cast<unsigned long long>(h.count), h.p50, h.p95, h.p99, h.max);
  }

  // Trace-ring overwrite counter: nonzero means the per-thread rings wrapped
  // and the Chrome export will have holes (raise the ring capacity).
  if (Tracing::enabled() || Tracing::DroppedCount() > 0) {
    std::fprintf(out_, "{\"ts_ms\":%lld,\"trace_dropped\":%llu}\n",
                 static_cast<long long>(ts_ms),
                 static_cast<unsigned long long>(Tracing::DroppedCount()));
  }
  std::fflush(out_);
}

}  // namespace obs
}  // namespace flowkv
