#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/context.h"

namespace flowkv {
namespace obs {

namespace {

MetricLabels LabelsFromContext(const char* pattern_override = nullptr) {
  const ThreadContext& ctx = CurrentContext();
  MetricLabels labels;
  labels.worker = ctx.worker;
  labels.partition = ctx.partition;
  labels.pattern = pattern_override != nullptr ? pattern_override : ctx.pattern;
  labels.op = ctx.op;
  return labels;
}

template <typename T, typename Key>
T* FindOrCreate(std::map<Key, std::unique_ptr<T>>* m, Key key) {
  auto it = m->find(key);
  if (it == m->end()) {
    it = m->emplace(std::move(key), std::make_unique<T>()).first;
  }
  return it->second.get();
}

}  // namespace

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (const char c : s) {
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
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry(GlobalTag{});  // never destroyed
  return *registry;
}

MetricsRegistry::MetricsRegistry() {
  MetricsRegistry& global = Global();
  MutexLock lock(&global.attached_mu_);
  global.attached_.push_back(this);
}

MetricsRegistry::~MetricsRegistry() {
  MetricsRegistry& global = Global();
  MutexLock lock(&global.attached_mu_);
  global.attached_.erase(std::find(global.attached_.begin(), global.attached_.end(), this));
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  return FindOrCreate(&counters_, Key(name, LabelsFromContext()));
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  return FindOrCreate(&gauges_, Key(name, LabelsFromContext()));
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  return FindOrCreate(&histograms_, Key(name, LabelsFromContext()));
}

std::vector<HistogramSample> MetricsRegistry::HistogramSnapshots() const {
  std::vector<HistogramSample> out;
  {
    MutexLock lock(&mu_);
    for (const auto& [key, metric] : histograms_) {
      const Histogram hist = metric->SnapshotHistogram();
      out.push_back({key.first, key.second, hist.count(), hist.Percentile(50),
                     hist.Percentile(95), hist.Percentile(99), hist.max()});
    }
  }
  MutexLock lock(&attached_mu_);
  for (const MetricsRegistry* r : attached_) {
    std::vector<HistogramSample> more = r->HistogramSnapshots();
    out.insert(out.end(), more.begin(), more.end());
  }
  return out;
}

uint64_t MetricsRegistry::RegisterStoreStats(StoreStats* stats, const char* pattern) {
  MutexLock lock(&mu_);
  StatsEntry entry;
  entry.id = next_stats_id_++;
  entry.stats = stats;
  entry.labels = LabelsFromContext(pattern);
  stats_.push_back(entry);
  return entry.id;
}

void MetricsRegistry::UnregisterStoreStats(uint64_t id) {
  MutexLock lock(&mu_);
  for (size_t i = 0; i < stats_.size(); ++i) {
    if (stats_[i].id == id) {
      stats_.erase(stats_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

StoreStats MetricsRegistry::AggregateStoreStats(int worker) const {
  StoreStats agg;
  size_t n = 0;
  const StoreStats::CounterField* fields = StoreStats::CounterFields(&n);
  MutexLock lock(&mu_);
  for (const StatsEntry& entry : stats_) {
    if (worker >= 0 && entry.labels.worker != worker) continue;
    // Counters only: relaxed loads are race-free against the owning worker;
    // the embedded histogram is not, so it is skipped here (MergeFrom is for
    // post-run aggregation of quiesced stats).
    for (size_t i = 0; i < n; ++i) {
      fields[i].get(agg) += fields[i].get(*entry.stats).load();
    }
  }
  return agg;
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::vector<MetricSample> out;
  {
    size_t n = 0;
    const StoreStats::CounterField* fields = StoreStats::CounterFields(&n);
    MutexLock lock(&mu_);
    for (const auto& [key, counter] : counters_) {
      out.push_back({key.first, key.second, "counter", counter->Value()});
    }
    for (const auto& [key, gauge] : gauges_) {
      out.push_back({key.first, key.second, "gauge", gauge->Value()});
    }
    for (const StatsEntry& entry : stats_) {
      for (size_t i = 0; i < n; ++i) {
        out.push_back({fields[i].name, entry.labels, "stats", fields[i].get(*entry.stats).load()});
      }
    }
  }
  MutexLock lock(&attached_mu_);
  for (const MetricsRegistry* r : attached_) {
    std::vector<MetricSample> more = r->Snapshot();
    out.insert(out.end(), more.begin(), more.end());
  }
  return out;
}

std::string MetricsRegistry::SnapshotJson() const {
  std::string json = "[";
  for (const MetricSample& s : Snapshot()) {
    if (json.size() > 1) json += ',';
    json += "{\"name\":\"";
    AppendJsonEscaped(&json, s.name);
    json += "\",\"worker\":" + std::to_string(s.labels.worker) +
            ",\"partition\":" + std::to_string(s.labels.partition) + ",\"op\":\"";
    AppendJsonEscaped(&json, s.labels.op);
    json += "\",\"pattern\":\"";
    AppendJsonEscaped(&json, s.labels.pattern);
    json += "\",\"kind\":\"" + std::string(s.kind) +
            "\",\"value\":" + std::to_string(s.value) + "}";
  }
  json += "]";
  return json;
}

int64_t MetricsRegistry::Sum(const std::string& name) const {
  int64_t sum = 0;
  for (const MetricSample& s : Snapshot()) {
    if (s.name == name) sum += s.value;
  }
  return sum;
}

}  // namespace obs
}  // namespace flowkv
