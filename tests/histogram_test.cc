// Tests for the observability layer: log-linear histogram bucket geometry
// and percentiles against hand-computed answers, concurrent recording, the
// metrics registry (get-or-create identity, Prometheus rendering), and the
// per-request stage trace.
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace pane {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Bucket geometry. Layout: 32 exact linear buckets for 0..31, then 32
// sub-buckets per power of two with the bucket width doubling each octave.

TEST(HistogramBucketsTest, LinearRangeIsExact) {
  // Every value below 32 gets its own bucket whose lower bound is itself.
  for (int64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v) << v;
    EXPECT_EQ(Histogram::BucketLowerBound(static_cast<int>(v)), v) << v;
  }
}

TEST(HistogramBucketsTest, FirstOctaveIsStillExact) {
  // 32..63 is the first log-linear octave; its sub-bucket width is 1, so
  // the mapping stays exact there too.
  for (int64_t v = 32; v < 64; ++v) {
    EXPECT_EQ(Histogram::BucketLowerBound(Histogram::BucketIndex(v)), v) << v;
  }
}

TEST(HistogramBucketsTest, HandComputedBoundaries) {
  // 127 = 0b1111111: octave [64, 128), width 2, sub-bucket 31 -> index
  // 32 + 1*32 + 31 = 95, lower bound 126.
  EXPECT_EQ(Histogram::BucketIndex(127), 95);
  EXPECT_EQ(Histogram::BucketLowerBound(95), 126);
  // 128 starts the next octave: index 32 + 2*32 + 0 = 96, exact bound.
  EXPECT_EQ(Histogram::BucketIndex(128), 96);
  EXPECT_EQ(Histogram::BucketLowerBound(96), 128);
  // 1000: octave [512, 1024), width 16, sub-bucket (1000>>4)-32 = 30 ->
  // index 32 + 4*32 + 30 = 190, lower bound 992.
  EXPECT_EQ(Histogram::BucketIndex(1000), 190);
  EXPECT_EQ(Histogram::BucketLowerBound(190), 992);
}

TEST(HistogramBucketsTest, BoundsRoundTripAcrossTheFullRange) {
  // Lower bounds must be non-decreasing and each must map back to its own
  // bucket — the self-consistency that makes Percentile() monotone.
  for (int idx = 0; idx + 1 < Histogram::kNumBuckets; ++idx) {
    const int64_t lo = Histogram::BucketLowerBound(idx);
    EXPECT_EQ(Histogram::BucketIndex(lo), idx) << idx;
    EXPECT_LE(lo, Histogram::BucketLowerBound(idx + 1)) << idx;
  }
}

// ---------------------------------------------------------------------------
// Percentiles.

TEST(HistogramTest, UniformDistributionPercentiles) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Record(v);
  const Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, 500500);
  EXPECT_EQ(snap.min, 1);
  EXPECT_EQ(snap.max, 1000);
  // Percentiles report the lower bound of the covering bucket: the 500th
  // value (500) lands in bucket [496, 504), the 990th (990) in [976, 992).
  EXPECT_EQ(snap.p50, 496);
  EXPECT_EQ(h.Percentile(99.0), 976);
  // p100 still reports a bucket bound (the exact max lives in
  // Snapshot::max and the summary's quantile="1" sample).
  EXPECT_EQ(h.Percentile(100.0), 992);
}

TEST(HistogramTest, SingleValuedDistributionIsExact) {
  // All mass in one bucket: the [min, max] clamp makes every percentile
  // report the exact recorded value even though 42's bucket spans [42, 43).
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(42);
  const Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.p50, 42);
  EXPECT_EQ(snap.p90, 42);
  EXPECT_EQ(snap.p99, 42);
  EXPECT_EQ(snap.min, 42);
  EXPECT_EQ(snap.max, 42);
  EXPECT_EQ(snap.sum, 4200);
}

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram h;
  const Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 0);
  EXPECT_EQ(snap.p50, 0);
  EXPECT_EQ(snap.p99, 0);
}

TEST(HistogramTest, PathologicalBimodalDistribution) {
  // 99 fast requests and 1 catastrophically slow one: percentiles up to and
  // including p99 (rank ceil(0.99*100) = 99) stay at the fast mode; only
  // the final rank and the exact max see the outlier's magnitude.
  Histogram h;
  for (int i = 0; i < 99; ++i) h.Record(10);
  h.Record(1'000'000);
  const Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.p50, 10);
  EXPECT_EQ(snap.p90, 10);
  EXPECT_EQ(snap.p99, 10);
  EXPECT_EQ(Histogram::BucketIndex(h.Percentile(100.0)),
            Histogram::BucketIndex(1'000'000));
  EXPECT_EQ(snap.max, 1'000'000);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.Record(-5);
  const Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 0);
}

TEST(HistogramTest, OverflowClampsBucketButKeepsExactMax) {
  Histogram h;
  const int64_t huge = (int64_t{1} << 62) + 123;
  h.Record(huge);
  const Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 1u);
  // The bucket saturates at kMaxValue, but min/max track the exact value
  // and the [min, max] clamp restores it.
  EXPECT_EQ(snap.max, huge);
  EXPECT_EQ(snap.p50, huge);
}

TEST(HistogramTest, ConcurrentRecordStress) {
  // 8 writers x 10k records; totals must be exact — this is the test the
  // TSan tier leans on to certify the locking.
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(t * kPerThread + i);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  const Histogram::Snapshot snap = h.TakeSnapshot();
  const int64_t n = int64_t{kThreads} * kPerThread;
  EXPECT_EQ(snap.count, static_cast<uint64_t>(n));
  EXPECT_EQ(snap.sum, n * (n - 1) / 2);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, n - 1);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(MetricsRegistryTest, GetOrCreateReturnsStableIdentity) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("pane_test_total");
  Counter* c2 = registry.GetCounter("pane_test_total");
  EXPECT_EQ(c1, c2);
  // Different labels are a different series.
  Counter* labeled = registry.GetCounter("pane_test_total", "shard=\"0\"");
  EXPECT_NE(c1, labeled);
  Histogram* h1 = registry.GetHistogram("pane_test_us");
  Histogram* h2 = registry.GetHistogram("pane_test_us");
  EXPECT_EQ(h1, h2);
}

TEST(MetricsRegistryTest, RenderPrometheusExposition) {
  MetricsRegistry registry;
  registry.GetCounter("pane_requests_total")->Add(7);
  registry.GetGauge("pane_tiles_last")->Set(42);
  Histogram* h = registry.GetHistogram("pane_lat_us", "shard=\"1\"");
  for (int64_t v = 1; v <= 100; ++v) h->Record(v);
  const std::string text = registry.RenderPrometheus();

  EXPECT_NE(text.find("# TYPE pane_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("pane_requests_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pane_tiles_last gauge\n"), std::string::npos);
  EXPECT_NE(text.find("pane_tiles_last 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pane_lat_us summary\n"), std::string::npos);
  EXPECT_NE(text.find("pane_lat_us{shard=\"1\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("pane_lat_us{shard=\"1\",quantile=\"0.99\"}"),
            std::string::npos);
  // quantile="1" is the exact max, not a bucket bound.
  EXPECT_NE(text.find("pane_lat_us{shard=\"1\",quantile=\"1\"} 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("pane_lat_us_count{shard=\"1\"} 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("pane_lat_us_sum{shard=\"1\"} 5050\n"),
            std::string::npos);
  // The registry itself appends no stream terminator; the serving layer
  // owns "# EOF".
  EXPECT_EQ(text.find("# EOF"), std::string::npos);
}

TEST(MetricsRegistryTest, AliasRendersOneCountUnderTwoNames) {
  MetricsRegistry registry;
  registry.AliasCounter("pane_alias_total", "pane_source_total");
  registry.AliasCounter("pane_alias_total", "pane_source_total");  // no-op
  registry.GetCounter("pane_source_total")->Add(3);
  EXPECT_EQ(registry.GetCounter("pane_alias_total"),
            registry.GetCounter("pane_source_total"));
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE pane_alias_total counter\npane_alias_total 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("# TYPE pane_source_total counter\npane_source_total 3\n"),
      std::string::npos)
      << text;
  registry.GetCounter("pane_taken_total");
  EXPECT_DEATH(registry.AliasCounter("pane_taken_total", "pane_source_total"),
               "already registered");
}

// ---------------------------------------------------------------------------
// Request trace.

TEST(RequestTraceTest, AccumulatesAndFormats) {
  RequestTrace trace;
  trace.Add(Stage::kDecode, 5);
  trace.Add(Stage::kScan, 40);
  trace.Add(Stage::kScan, 2);  // Accumulates within a stage.
  trace.Add(Stage::kEncode, 3);
  EXPECT_EQ(trace.us(Stage::kScan), 42);
  EXPECT_EQ(trace.total_us(), 50);
  // Pipeline order, untouched stages included as zeros.
  EXPECT_EQ(trace.FormatBreakdown(),
            "decode_us=5 batch_wait_us=0 engine_scan_us=42 "
            "topk_select_us=0 fanout_us=0 merge_us=0 encode_us=3");
  trace.Reset();
  EXPECT_EQ(trace.total_us(), 0);
  EXPECT_EQ(trace.us(Stage::kScan), 0);
}

TEST(RequestTraceTest, StageNamesAreStable) {
  // These names are wire format: they appear in slow_query log lines and as
  // pane_stage_<name>_us metric names.
  EXPECT_STREQ(StageName(Stage::kDecode), "decode");
  EXPECT_STREQ(StageName(Stage::kBatchWait), "batch_wait");
  EXPECT_STREQ(StageName(Stage::kScan), "engine_scan");
  EXPECT_STREQ(StageName(Stage::kSelect), "topk_select");
  EXPECT_STREQ(StageName(Stage::kFanout), "fanout");
  EXPECT_STREQ(StageName(Stage::kMerge), "merge");
  EXPECT_STREQ(StageName(Stage::kEncode), "encode");
}

}  // namespace
}  // namespace obs
}  // namespace pane
