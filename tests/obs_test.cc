// Observability layer tests: sharded counter/histogram correctness under
// concurrency (run under TSan by scripts/check.sh), registry merge
// semantics, percentile sanity, and byte-exact goldens for the Prometheus
// text exposition, the JSON snapshot, and the Chrome trace-event output.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/database.h"
#include "datagen/workload.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace ir2 {
namespace obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(CounterTest, ConcurrentAddsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) {
        counter.Add();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kAddsPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(HistogramTest, ConcurrentRecordsKeepCountAndSumConsistent) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr int kRecordsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kRecordsPerThread; ++i) {
        histogram.Record(1.0 + static_cast<double>(i % 7));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram.Count(),
            static_cast<uint64_t>(kThreads) * kRecordsPerThread);
  double per_thread_sum = 0;
  for (int i = 0; i < kRecordsPerThread; ++i) {
    per_thread_sum += 1.0 + static_cast<double>(i % 7);
  }
  // Small integers: every partial sum is exactly representable.
  EXPECT_DOUBLE_EQ(histogram.Sum(), kThreads * per_thread_sum);
  uint64_t bucketed = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    bucketed += histogram.BucketCount(i);
  }
  EXPECT_EQ(bucketed, histogram.Count());
}

TEST(HistogramTest, RegistryHammerFromManyThreads) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr uint64_t kOpsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Get* under contention, then the hot path on the shared pointers.
      Counter* counter = registry.GetCounter("hammer_count");
      Histogram* histogram = registry.GetHistogram("hammer_hist");
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        counter->Add();
        histogram->Record(static_cast<double>(i % 100));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("hammer_count")->Value(),
            kThreads * kOpsPerThread);
  EXPECT_EQ(registry.GetHistogram("hammer_hist")->Count(),
            kThreads * kOpsPerThread);
}

TEST(HistogramTest, PercentilesAreSaneAndMonotone) {
  Histogram histogram;
  for (int i = 1; i <= 1000; ++i) {
    histogram.Record(static_cast<double>(i));
  }
  const double p50 = histogram.Percentile(0.50);
  const double p95 = histogram.Percentile(0.95);
  const double p99 = histogram.Percentile(0.99);
  // Log-bucketed: relative error bounded by the sub-bucket width.
  EXPECT_NEAR(p50, 500.0, 500.0 * 0.15);
  EXPECT_NEAR(p95, 950.0, 950.0 * 0.15);
  EXPECT_NEAR(p99, 990.0, 990.0 * 0.15);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(histogram.Percentile(0.0), p50);
  EXPECT_LE(p99, histogram.Percentile(1.0));
  EXPECT_EQ(Histogram().Percentile(0.5), 0.0);
}

TEST(HistogramTest, BucketBoundsBracketEveryValue) {
  for (double value : {1e-9, 0.004, 0.7, 1.0, 1.5, 3.9, 1024.0, 3e9}) {
    const int bucket = Histogram::BucketFor(value);
    ASSERT_GE(bucket, 0);
    ASSERT_LT(bucket, Histogram::kNumBuckets);
    EXPECT_LE(Histogram::BucketLowerBound(bucket), value) << value;
    if (bucket + 1 < Histogram::kNumBuckets) {
      EXPECT_GT(Histogram::BucketLowerBound(bucket + 1), value) << value;
    }
  }
  EXPECT_EQ(Histogram::BucketFor(0.0), 0);
  EXPECT_EQ(Histogram::BucketFor(-3.0), 0);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(7);
  registry.GetHistogram("h")->Record(3.0);
  registry.Reset();
  EXPECT_EQ(registry.GetCounter("c")->Value(), 0u);
  EXPECT_EQ(registry.GetHistogram("h")->Count(), 0u);
  EXPECT_NE(registry.RenderPrometheus().find("# TYPE c counter"),
            std::string::npos);
}

// Golden: the exact Prometheus text exposition for a small registry. The
// bucket upper bounds are the histogram's sub-bucket boundaries (1.0 and
// 2.0/4.0 land on octave starts; uppers are 1/8 octave above).
TEST(MetricsRegistryTest, PrometheusGolden) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("t_count", "Things counted.");
  counter->Add(3);
  registry.GetGauge("t_gauge")->Set(-5);
  Histogram* histogram = registry.GetHistogram("t_hist", "Latencies.");
  histogram->Record(1.0);
  histogram->Record(2.0);
  histogram->Record(4.0);
  const std::string expected =
      "# HELP t_count Things counted.\n"
      "# TYPE t_count counter\n"
      "t_count 3\n"
      "# TYPE t_gauge gauge\n"
      "t_gauge -5\n"
      "# HELP t_hist Latencies.\n"
      "# TYPE t_hist histogram\n"
      "t_hist_bucket{le=\"1.125\"} 1\n"
      "t_hist_bucket{le=\"2.25\"} 2\n"
      "t_hist_bucket{le=\"4.5\"} 3\n"
      "t_hist_bucket{le=\"+Inf\"} 3\n"
      "t_hist_sum 7\n"
      "t_hist_count 3\n";
  EXPECT_EQ(registry.RenderPrometheus(), expected);
}

TEST(MetricsRegistryTest, JsonGolden) {
  MetricsRegistry registry;
  registry.GetCounter("t_count", "Things counted.")->Add(3);
  registry.GetGauge("t_gauge")->Set(-5);
  Histogram* histogram = registry.GetHistogram("t_hist", "Latencies.");
  histogram->Record(1.0);
  histogram->Record(2.0);
  histogram->Record(4.0);
  const std::string expected =
      "{\"counters\":{\"t_count\":3},"
      "\"gauges\":{\"t_gauge\":-5},"
      "\"histograms\":{\"t_hist\":{\"count\":3,\"sum\":7,"
      "\"p50\":2.25,\"p95\":4.5,\"p99\":4.5,"
      "\"buckets\":[[1.125,1],[2.25,1],[4.5,1]]}}}";
  EXPECT_EQ(registry.RenderJson(), expected);
}

// Quantile estimation pinned at bucket boundaries. The estimator finds the
// ranked value's bucket and interpolates the rank's position within it, so
// the estimate lies in (lower, upper] of the landing bucket — a value
// sitting exactly on a bucket boundary is overestimated by at most one
// sub-bucket width (the documented 1/kSubBuckets error bound).
TEST(HistogramTest, QuantileBoundaryPinning) {
  // Empty histogram and empty merged bucket array: exactly 0.
  EXPECT_EQ(Histogram().Percentile(0.5), 0.0);
  std::vector<uint64_t> empty(Histogram::kNumBuckets, 0);
  EXPECT_EQ(Histogram::PercentileFromBuckets(empty, 0.5), 0.0);

  // One record on an exact bucket boundary (1.0 opens its octave): every
  // quantile is the bucket's upper bound 1.125 — off by one full
  // sub-bucket width, never more.
  Histogram one;
  one.Record(1.0);
  EXPECT_DOUBLE_EQ(one.Percentile(0.0), 1.125);
  EXPECT_DOUBLE_EQ(one.Percentile(0.5), 1.125);
  EXPECT_DOUBLE_EQ(one.Percentile(1.0), 1.125);

  // Single-bucket mass: quantiles interpolate within the one bucket,
  // monotone in the fraction, confined to (1.0, 1.125].
  Histogram mass;
  for (int i = 0; i < 1000; ++i) mass.Record(1.0);
  EXPECT_DOUBLE_EQ(mass.Percentile(0.0), 1.0 + 0.125 * 0.001);
  EXPECT_DOUBLE_EQ(mass.Percentile(0.5), 1.0 + 0.125 * 0.501);
  EXPECT_DOUBLE_EQ(mass.Percentile(1.0), 1.125);
  double previous = 0.0;
  for (double f = 0.0; f <= 1.0; f += 0.05) {
    const double estimate = mass.Percentile(f);
    EXPECT_GT(estimate, 1.0);
    EXPECT_LE(estimate, 1.125);
    EXPECT_GE(estimate, previous);
    previous = estimate;
  }
}

TEST(HistogramTest, PercentileFromBucketsMatchesInstanceEstimator) {
  Histogram histogram;
  for (int i = 1; i <= 500; ++i) {
    histogram.Record(0.37 * static_cast<double>(i));
  }
  std::vector<uint64_t> buckets(Histogram::kNumBuckets);
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    buckets[static_cast<size_t>(i)] = histogram.BucketCount(i);
  }
  for (double f : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(Histogram::PercentileFromBuckets(buckets, f),
                     histogram.Percentile(f));
  }
}

// Labelled series (MetricsRegistry::LabelledName) group under a single
// HELP/TYPE header per family — the bare family sorts first, labelled
// series follow without re-emitting headers.
TEST(MetricsRegistryTest, LabelledPrometheusGolden) {
  MetricsRegistry registry;
  registry.GetCounter("t_req_total", "Requests.")->Add(5);
  registry
      .GetCounter(
          MetricsRegistry::LabelledName("t_req_total", "tenant", "alice"))
      ->Add(3);
  registry
      .GetCounter(
          MetricsRegistry::LabelledName("t_req_total", "tenant", "bob"))
      ->Add(2);
  registry.GetGauge("t_depth")->Set(4);
  const std::string expected =
      "# TYPE t_depth gauge\n"
      "t_depth 4\n"
      "# HELP t_req_total Requests.\n"
      "# TYPE t_req_total counter\n"
      "t_req_total 5\n"
      "t_req_total{tenant=\"alice\"} 3\n"
      "t_req_total{tenant=\"bob\"} 2\n";
  EXPECT_EQ(registry.RenderPrometheus(), expected);
}

TEST(MetricsRegistryTest, LabelledNameEscapesValue) {
  EXPECT_EQ(MetricsRegistry::LabelledName("m", "k", "a\"b\\c"),
            "m{k=\"a\\\"b\\\\c\"}");
}

// ------------------------------------------------------------------ trace

TEST(TracerTest, ChromeTraceGolden) {
  Tracer tracer;
  tracer.Record(SpanKind::kQuery, /*ts_us=*/10, /*dur_us=*/5, /*arg=*/42);
  tracer.Record(SpanKind::kHeapPop, /*ts_us=*/12, /*dur_us=*/0, /*arg=*/7);
  const std::string tid = std::to_string(TraceThreadId());
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"query\",\"cat\":\"ir2\",\"ph\":\"X\",\"ts\":10,"
      "\"dur\":5,\"pid\":1,\"tid\":" +
      tid +
      ",\"args\":{\"id\":42}},\n"
      "{\"name\":\"heap_pop\",\"cat\":\"ir2\",\"ph\":\"X\",\"ts\":12,"
      "\"dur\":0,\"pid\":1,\"tid\":" +
      tid + ",\"args\":{\"id\":7}}\n]}\n";
  EXPECT_EQ(tracer.ToChromeTraceJson(), expected);
}

TEST(TracerTest, RingOverwritesOldestAndCountsDropped) {
  Tracer tracer(/*capacity=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    tracer.Record(SpanKind::kNodeExpand, /*ts_us=*/i, /*dur_us=*/1, i);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_us, 6 + i);  // Oldest-first, events 6..9 survive.
  }
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

// Ring overwrites surface in the global registry (the satellite metric the
// admin /metrics page scrapes), not just the per-tracer dropped() count.
TEST(TracerTest, RingOverwriteBumpsGlobalDroppedSpansCounter) {
  Counter* dropped_total = MetricsRegistry::Global().GetCounter(
      "ir2_trace_dropped_spans_total");
  Tracer tracer(/*capacity=*/2);
  const uint64_t before = dropped_total->Value();
  tracer.Record(SpanKind::kQuery, /*ts_us=*/1, /*dur_us=*/1, /*arg=*/1);
  tracer.Record(SpanKind::kQuery, /*ts_us=*/2, /*dur_us=*/1, /*arg=*/2);
  EXPECT_EQ(dropped_total->Value(), before);  // Ring not yet full.
  tracer.Record(SpanKind::kQuery, /*ts_us=*/3, /*dur_us=*/1, /*arg=*/3);
  EXPECT_EQ(tracer.dropped(), 1u);
  EXPECT_EQ(dropped_total->Value(), before + 1);
}

TEST(TracerTest, SpansRecordOnlyWhileInstalled) {
  EXPECT_FALSE(Tracer::Enabled());
  { TraceSpan span(SpanKind::kQuery); }  // No tracer: must be a no-op.
  Tracer tracer;
  {
    ScopedTracer scoped(&tracer);
    EXPECT_TRUE(Tracer::Enabled());
    { TraceSpan span(SpanKind::kQuery, 1); }
    TraceInstant(SpanKind::kHeapPop, 2);
    { TraceSpan suppressed(SpanKind::kObjectVerify, 3, /*enabled=*/false); }
  }
  EXPECT_FALSE(Tracer::Enabled());
  TraceInstant(SpanKind::kHeapPop, 4);  // After uninstall: dropped.
  ASSERT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.Events()[0].kind, SpanKind::kQuery);
  EXPECT_EQ(tracer.Events()[1].kind, SpanKind::kHeapPop);
}

TEST(TracerTest, ConcurrentRecordingIsSafe) {
  Tracer tracer(/*capacity=*/1024);
  ScopedTracer scoped(&tracer);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 2000; ++i) {
        TraceSpan span(SpanKind::kSignatureTest, static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(tracer.size(), 1024u);
  EXPECT_EQ(tracer.dropped(), kThreads * 2000u - 1024u);
}

// ---------------------------------------------------------------- explain

TEST(ExplainReportTest, RendersLabelRowsAndColumnTables) {
  ExplainReport report;
  report.title = "EXPLAIN test";
  ExplainSection* pairs = report.AddSection("Pairs");
  pairs->AddRow("alpha", "1");
  pairs->AddRow("beta", "two");
  ExplainSection* table = report.AddSection("Table");
  table->columns = {"name", "count"};
  table->AddRow({"x", "10"});
  table->AddRow({"longer", "3"});
  const std::string text = report.ToString();
  EXPECT_NE(text.find("EXPLAIN test"), std::string::npos);
  EXPECT_NE(text.find("Pairs"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_EQ(FormatRatio(0, 0), "-");
  EXPECT_EQ(FormatRatio(1, 4), "1/4 (25.0%)");
  EXPECT_EQ(FormatCount(1234), "1234");
}

TEST(ExplainTest, DatabaseExplainProducesReportAndTrace) {
  std::vector<StoredObject> objects = testing_util::RandomObjects(
      /*seed=*/77, /*n=*/300, /*vocab=*/30, /*words_per_object=*/5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 16;
  options.ir2_signature = SignatureConfig{/*bits=*/128, /*hashes_per_word=*/3};
  auto db = SpatialKeywordDatabase::Build(objects, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  WorkloadConfig config;
  config.seed = 5;
  config.num_queries = 1;
  config.num_keywords = 2;
  config.k = 4;
  std::vector<DistanceFirstQuery> queries =
      GenerateWorkload(objects, (*db)->tokenizer(), config);

  auto result = (*db)->Explain(queries.front(), Algorithm::kIr2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The report mirrors the query's QueryStats and the trace is well formed.
  const std::string text = result->report.ToString();
  EXPECT_NE(text.find("Traversal"), std::string::npos);
  EXPECT_NE(text.find("Block I/O"), std::string::npos);
  EXPECT_NE(text.find("DiskModel time breakdown"), std::string::npos);
  EXPECT_NE(text.find("Trace spans"), std::string::npos);
  EXPECT_GT(result->stats.objects_loaded, 0u);
  EXPECT_EQ(result->trace_json.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(result->trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(result->trace_json.find("\"object_verify\""), std::string::npos);

  // The same query through every algorithm yields the same result set.
  auto rtree = (*db)->Explain(queries.front(), Algorithm::kRTree);
  ASSERT_TRUE(rtree.ok()) << rtree.status().ToString();
  ASSERT_EQ(rtree->results.size(), result->results.size());
  for (size_t i = 0; i < rtree->results.size(); ++i) {
    EXPECT_EQ(rtree->results[i].ref, result->results[i].ref);
  }
}

// ------------------------------------------------------------------- log

TEST(LoggingTest, LogMacroCompilesAndRespectsThreshold) {
  // Default threshold is WARN; these must not abort whatever the
  // IR2_LOG_LEVEL in the environment says.
  IR2_LOG(INFO) << "info message " << 1;
  IR2_LOG(WARN) << "warn message " << 2;
  IR2_LOG(ERROR) << "error message " << 3;
  // ERROR is never below any supported threshold except OFF.
  using internal_logging::LogEnabled;
  EXPECT_LE(LogEnabled(internal_logging::kLogINFO),
            LogEnabled(internal_logging::kLogERROR));
}

}  // namespace
}  // namespace obs
}  // namespace ir2
