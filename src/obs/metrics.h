// Observability primitives for the serving stack: named counters, gauges,
// and log-linear latency histograms collected in a process-wide
// MetricsRegistry and exported as Prometheus text exposition.
//
// Design goals, in order:
//   1. Safe to hammer from many threads. Counter/Gauge are single relaxed
//      atomics; Histogram serializes on its own pane::Mutex with capability
//      annotations, so both -Werror=thread-safety and the TSan tier cover
//      every record path.
//   2. Cheap enough for the request hot path. A Record() is one branch-free
//      bucket computation plus one short critical section touching two
//      cache lines; there is no allocation after registration.
//   3. Deterministic, testable percentiles. The bucket layout is fixed
//      (HDR-style: 32 exact linear buckets, then 32 sub-buckets per power
//      of two), Percentile() always returns the lower bound of the rank's
//      bucket clamped to the observed [min, max], and the known-answer
//      tests in tests/histogram_test.cc pin the exact boundaries.
//
// Everything in this file is engine-agnostic: src/serve/ records into it,
// benches dump it, and the `metrics` protocol verb renders it, but nothing
// here knows about requests or shards.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/sync.h"

namespace pane {
namespace obs {

/// Monotonically increasing event count. Prometheus convention: name it
/// `*_total` and never decrement.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous level (active connections, last-batch tile count). Unlike
/// Counter it may move both ways.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-linear histogram over non-negative int64 values (latencies in
/// microseconds, sizes in bytes).
///
/// Bucket layout: values 0..31 get one exact bucket each; every later power
/// of two [2^m, 2^(m+1)) is split into 32 equal sub-buckets, so the
/// relative bucket width — and therefore the worst-case percentile error —
/// is bounded by 1/32 (~3.2%) while values below 64 stay exact. Negative
/// values clamp to 0 and values above kMaxValue land in one overflow
/// bucket; exact min/max/sum/count are tracked separately so Max() never
/// loses resolution.
class Histogram {
 public:
  static constexpr int kLinearBuckets = 32;   ///< exact buckets for 0..31
  static constexpr int kSubBuckets = 32;      ///< sub-buckets per octave
  /// Values above this clamp into the final (overflow) bucket.
  static constexpr int64_t kMaxValue = int64_t{1} << 62;
  /// BucketIndex(kMaxValue) + 1.
  static constexpr int kNumBuckets =
      kLinearBuckets + (62 - 5) * kSubBuckets + 1;

  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(int64_t value) PANE_EXCLUDES(mu_);

  /// One consistent view of the distribution, taken under a single lock
  /// hold. Percentiles are bucket lower bounds clamped to [min, max], so a
  /// single-valued distribution reports that value exactly and p100 == max.
  struct Snapshot {
    uint64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;
    int64_t max = 0;
    int64_t p50 = 0;
    int64_t p90 = 0;
    int64_t p99 = 0;
  };
  Snapshot TakeSnapshot() const PANE_EXCLUDES(mu_);

  /// Value at percentile `p` in (0, 100]; 0 when empty.
  int64_t Percentile(double p) const PANE_EXCLUDES(mu_);

  uint64_t Count() const PANE_EXCLUDES(mu_);

  /// Exposed for the known-answer tests: which bucket `value` lands in and
  /// the smallest value that bucket holds.
  static int BucketIndex(int64_t value);
  static int64_t BucketLowerBound(int index);

 private:
  int64_t PercentileLocked(double p) const PANE_REQUIRES(mu_);

  mutable Mutex mu_;
  std::vector<uint64_t> buckets_ PANE_GUARDED_BY(mu_);
  uint64_t count_ PANE_GUARDED_BY(mu_) = 0;
  int64_t sum_ PANE_GUARDED_BY(mu_) = 0;
  int64_t min_ PANE_GUARDED_BY(mu_) = 0;
  int64_t max_ PANE_GUARDED_BY(mu_) = 0;
};

/// Named metric store. Metrics are created on first use and live for the
/// registry's lifetime at stable addresses, so callers fetch their handles
/// once (registration takes the registry lock) and then record lock-free /
/// under the histogram's own mutex — never through the registry again.
///
/// Keys are (name, labels): `GetHistogram("pane_router_hop_us",
/// "shard=\"0\"")` and the same name with `shard="1"` are two series of one
/// family. Names must match Prometheus `[a-zA-Z_:][a-zA-Z0-9_:]*`; labels
/// are either empty or a comma-separated `key="value"` list (checked at
/// registration, fatal on violation — a bad metric name is a programming
/// error, not an input error). Re-requesting a name with a different
/// metric kind is fatal for the same reason.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name,
                      const std::string& labels = "") PANE_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name,
                  const std::string& labels = "") PANE_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name,
                          const std::string& labels = "")
      PANE_EXCLUDES(mu_);

  /// Prometheus text exposition, families in lexicographic name order with
  /// one `# TYPE` header each. Counters and gauges render one sample per
  /// labelset; histograms render as summaries: `quantile` labels 0.5 /
  /// 0.9 / 0.99 / 1 (the 1-quantile is the exact max) plus `_sum` and
  /// `_count`. Does NOT append the `# EOF` terminator — the caller owns
  /// framing.
  std::string RenderPrometheus() const PANE_EXCLUDES(mu_);

  /// Renders the unlabelled counter `name` (created if new) a second time
  /// as the family `alias`: one count under two names. Fatal if `alias`
  /// already names another metric.
  void AliasCounter(const std::string& alias, const std::string& name)
      PANE_EXCLUDES(mu_);

 private:
  enum class Kind : int8_t { kCounter, kGauge, kHistogram };

  struct Metric {
    Kind kind;
    std::shared_ptr<Counter> counter;  ///< shared with its aliases
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Metric* GetOrCreate(const std::string& name, const std::string& labels,
                      Kind kind) PANE_EXCLUDES(mu_);

  mutable Mutex mu_;
  /// Ordered by (name, labels) so RenderPrometheus walks families
  /// contiguously; std::map nodes give the stable addresses the handle
  /// contract requires.
  std::map<std::pair<std::string, std::string>, Metric> metrics_
      PANE_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace pane
