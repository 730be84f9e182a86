#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace pane {
namespace obs {
namespace {

bool IsValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!alpha && !(digit && i > 0)) return false;
  }
  return true;
}

/// Accepts "" or `key="value"(,key="value")*` with Prometheus label-name
/// keys and quote/backslash/newline-free values. Deliberately strict: the
/// registry is the last gate before the exposition format, and a bad label
/// here would corrupt every scrape.
bool IsValidLabelList(const std::string& labels) {
  size_t i = 0;
  while (i < labels.size()) {
    size_t k = i;
    while (k < labels.size() &&
           ((labels[k] >= 'a' && labels[k] <= 'z') ||
            (labels[k] >= 'A' && labels[k] <= 'Z') || labels[k] == '_' ||
            (labels[k] >= '0' && labels[k] <= '9' && k > i))) {
      ++k;
    }
    if (k == i || k + 1 >= labels.size() || labels[k] != '=' ||
        labels[k + 1] != '"') {
      return false;
    }
    size_t v = k + 2;
    while (v < labels.size() && labels[v] != '"' && labels[v] != '\\' &&
           labels[v] != '\n') {
      ++v;
    }
    if (v >= labels.size() || labels[v] != '"') return false;
    i = v + 1;
    if (i == labels.size()) return true;
    if (labels[i] != ',') return false;
    ++i;
  }
  return labels.empty();
}

std::string Braced(const std::string& labels) {
  return labels.empty() ? std::string() : "{" + labels + "}";
}

/// Merges a quantile label into an existing (possibly empty) label list.
std::string WithQuantile(const std::string& labels, const char* quantile) {
  std::string merged = labels;
  if (!merged.empty()) merged += ',';
  merged += "quantile=\"";
  merged += quantile;
  merged += '"';
  return "{" + merged + "}";
}

}  // namespace

Histogram::Histogram() : buckets_(kNumBuckets, 0) {}

int Histogram::BucketIndex(int64_t value) {
  if (value < 0) value = 0;
  if (value > kMaxValue) value = kMaxValue;
  if (value < kLinearBuckets) return static_cast<int>(value);
  // For v >= 32 the top set bit is at position msb >= 5; dropping to the
  // 5 bits below it picks one of 32 sub-buckets inside the octave.
  const int msb = 63 - __builtin_clzll(static_cast<uint64_t>(value));
  const int shift = msb - 5;
  const int sub = static_cast<int>((value >> shift) - kLinearBuckets);
  return kLinearBuckets + shift * kSubBuckets + sub;
}

int64_t Histogram::BucketLowerBound(int index) {
  PANE_CHECK(index >= 0 && index < kNumBuckets);
  if (index < kLinearBuckets) return index;
  const int shift = (index - kLinearBuckets) / kSubBuckets;
  const int sub = (index - kLinearBuckets) % kSubBuckets;
  return static_cast<int64_t>(kSubBuckets + sub) << shift;
}

void Histogram::Record(int64_t value) {
  if (value < 0) value = 0;
  const int index = BucketIndex(value);
  MutexLock lock(&mu_);
  ++buckets_[static_cast<size_t>(index)];
  sum_ += value;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
}

int64_t Histogram::PercentileLocked(double p) const {
  if (count_ == 0) return 0;
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_)));
  rank = std::max<uint64_t>(1, std::min(rank, count_));
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[static_cast<size_t>(i)];
    if (cumulative >= rank) {
      // The true value lies inside this bucket; clamping its lower bound
      // to the observed range makes narrow distributions exact.
      return std::min(max_, std::max(min_, BucketLowerBound(i)));
    }
  }
  return max_;
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  MutexLock lock(&mu_);
  Snapshot snap;
  snap.count = count_;
  snap.sum = sum_;
  snap.min = min_;
  snap.max = max_;
  snap.p50 = PercentileLocked(50.0);
  snap.p90 = PercentileLocked(90.0);
  snap.p99 = PercentileLocked(99.0);
  return snap;
}

int64_t Histogram::Percentile(double p) const {
  MutexLock lock(&mu_);
  return PercentileLocked(p);
}

uint64_t Histogram::Count() const {
  MutexLock lock(&mu_);
  return count_;
}

MetricsRegistry::Metric* MetricsRegistry::GetOrCreate(
    const std::string& name, const std::string& labels, Kind kind) {
  PANE_CHECK(IsValidMetricName(name)) << "bad metric name: " << name;
  PANE_CHECK(IsValidLabelList(labels))
      << "bad label list for " << name << ": " << labels;
  MutexLock lock(&mu_);
  auto [it, inserted] = metrics_.try_emplace({name, labels});
  Metric& metric = it->second;
  if (inserted) {
    metric.kind = kind;
    switch (kind) {
      case Kind::kCounter:
        metric.counter = std::make_shared<Counter>();
        break;
      case Kind::kGauge:
        metric.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        metric.histogram = std::make_unique<Histogram>();
        break;
    }
  } else {
    PANE_CHECK(metric.kind == kind)
        << "metric " << name << " re-registered with a different kind";
  }
  return &metric;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& labels) {
  return GetOrCreate(name, labels, Kind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& labels) {
  return GetOrCreate(name, labels, Kind::kGauge)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& labels) {
  return GetOrCreate(name, labels, Kind::kHistogram)->histogram.get();
}

void MetricsRegistry::AliasCounter(const std::string& alias,
                                   const std::string& name) {
  PANE_CHECK(IsValidMetricName(alias)) << "bad metric name: " << alias;
  Metric* source = GetOrCreate(name, "", Kind::kCounter);
  MutexLock lock(&mu_);
  auto [it, inserted] = metrics_.try_emplace({alias, ""});
  PANE_CHECK(inserted || it->second.counter == source->counter)
      << "metric " << alias << " already registered";
  it->second.kind = Kind::kCounter;
  it->second.counter = source->counter;
}

std::string MetricsRegistry::RenderPrometheus() const {
  MutexLock lock(&mu_);
  std::string out;
  const std::string* last_name = nullptr;
  for (const auto& [key, metric] : metrics_) {
    const std::string& name = key.first;
    const std::string& labels = key.second;
    const bool new_family = last_name == nullptr || *last_name != name;
    last_name = &name;
    switch (metric.kind) {
      case Kind::kCounter:
        if (new_family) out += "# TYPE " + name + " counter\n";
        out += name + Braced(labels) + ' ' +
               std::to_string(metric.counter->value()) + '\n';
        break;
      case Kind::kGauge:
        if (new_family) out += "# TYPE " + name + " gauge\n";
        out += name + Braced(labels) + ' ' +
               std::to_string(metric.gauge->value()) + '\n';
        break;
      case Kind::kHistogram: {
        if (new_family) out += "# TYPE " + name + " summary\n";
        const Histogram::Snapshot snap = metric.histogram->TakeSnapshot();
        out += name + WithQuantile(labels, "0.5") + ' ' +
               std::to_string(snap.p50) + '\n';
        out += name + WithQuantile(labels, "0.9") + ' ' +
               std::to_string(snap.p90) + '\n';
        out += name + WithQuantile(labels, "0.99") + ' ' +
               std::to_string(snap.p99) + '\n';
        out += name + WithQuantile(labels, "1") + ' ' +
               std::to_string(snap.max) + '\n';
        out += name + "_sum" + Braced(labels) + ' ' +
               std::to_string(snap.sum) + '\n';
        out += name + "_count" + Braced(labels) + ' ' +
               std::to_string(snap.count) + '\n';
        break;
      }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace pane
