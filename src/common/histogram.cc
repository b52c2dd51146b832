#include "src/common/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace flowkv {

const std::vector<double>& Histogram::BucketLimits() {
  // Geometric bucket boundaries covering [1e-3, ~1e13] with ~4% resolution.
  // Latencies are recorded in ms, so the floor is 1 us: sub-ms samples get
  // their own buckets instead of all landing in [0, 1).
  static const std::vector<double>* limits = [] {
    auto* v = new std::vector<double>();
    double x = 1e-3;
    while (x < 1e13) {
      v->push_back(x);
      x *= 1.04;
    }
    v->push_back(std::numeric_limits<double>::infinity());
    return v;
  }();
  return *limits;
}

Histogram::Histogram() { Clear(); }

void Histogram::Clear() {
  count_ = 0;
  min_ = std::numeric_limits<double>::max();
  max_ = 0;
  sum_ = 0;
  buckets_.assign(BucketLimits().size(), 0);
}

void Histogram::Add(double value) {
  const auto& limits = BucketLimits();
  // First bucket whose limit is > value.
  size_t idx = std::upper_bound(limits.begin(), limits.end(), value) - limits.begin();
  if (idx >= buckets_.size()) {
    idx = buckets_.size() - 1;
  }
  buckets_[idx] += 1;
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

double Histogram::Mean() const { return count_ == 0 ? 0 : sum_ / static_cast<double>(count_); }

double Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  const auto& limits = BucketLimits();
  double threshold = static_cast<double>(count_) * (p / 100.0);
  double cumulative = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += static_cast<double>(buckets_[i]);
    if (cumulative >= threshold) {
      double left = i == 0 ? 0.0 : limits[i - 1];
      double right = std::isinf(limits[i]) ? max_ : limits[i];
      double left_count = cumulative - static_cast<double>(buckets_[i]);
      double frac = buckets_[i] == 0
                        ? 0.0
                        : (threshold - left_count) / static_cast<double>(buckets_[i]);
      double value = left + (right - left) * frac;
      return std::clamp(value, min(), max_);
    }
  }
  return max_;
}

std::string Histogram::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f",
                static_cast<unsigned long long>(count_), Mean(), Percentile(50),
                Percentile(95), Percentile(99), max_);
  return buf;
}

}  // namespace flowkv
