// Live-telemetry tests: windowed-histogram rotation and sliding-window
// quantiles, SLO burn-rate windows, query-log sampling/ring/drain plus the
// byte-exact JSON-lines schema golden, the /statusz JSON-shape golden, and
// the thread-local plan-audit sink.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/query_log.h"
#include "obs/windowed.h"
#include "serving/admin_server.h"

namespace ir2 {
namespace {

using obs::QueryLog;
using obs::QueryLogOptions;
using obs::QueryLogRecord;
using obs::SloOptions;
using obs::SloTracker;
using obs::WindowedHistogram;
using serving::RenderStatusJson;
using serving::StatusSnapshot;
using serving::TenantRow;

// ------------------------------------------------------ windowed histogram

TEST(WindowedHistogramTest, MergesLiveSlotsAndAgesOutOldOnes) {
  WindowedHistogram window;  // 6 slots x 10s = last 60 seconds.
  window.RecordAt(5.0, 1.0);
  window.RecordAt(15.0, 2.0);

  WindowedHistogram::Snapshot snap = window.SnapAt(20.0);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.sum, 3.0);
  EXPECT_DOUBLE_EQ(snap.window_seconds, 60.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 1.5);

  // At t=65 the t=5 slot (epoch 0) left the 60s window; t=15 survives.
  snap = window.SnapAt(65.0);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 2.0);

  // Far future: everything aged out; quantiles of nothing are 0.
  snap = window.SnapAt(1000.0);
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.p99, 0.0);
}

TEST(WindowedHistogramTest, RingRecyclesSlotsInPlace) {
  WindowedHistogram window;  // 6 slots of 10s.
  window.RecordAt(5.0, 1.0);  // Epoch 0, slot 0.
  // Epoch 6 maps onto slot 0 again and must replace the old interval, not
  // add to it.
  window.RecordAt(65.0, 8.0);
  WindowedHistogram::Snapshot snap = window.SnapAt(65.0);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 8.0);
}

TEST(WindowedHistogramTest, QuantilesComeFromTheMergedWindow) {
  WindowedHistogram window;
  // 100 fast records in one slot, 100 slow in another: the sliding-window
  // p50 must see both slots' buckets merged.
  for (int i = 0; i < 100; ++i) window.RecordAt(1.0, 1.0);
  for (int i = 0; i < 100; ++i) window.RecordAt(11.0, 100.0);
  WindowedHistogram::Snapshot snap = window.SnapAt(15.0);
  EXPECT_EQ(snap.count, 200u);
  EXPECT_GT(snap.p95, 50.0);   // Dominated by the slow slot.
  EXPECT_LT(snap.p50, 100.0);  // But the fast slot pulls the median down.
}

// ------------------------------------------------------------ SLO tracker

TEST(SloTrackerTest, BurnRatesUseFiveMinuteAndOneHourWindows) {
  SloOptions options;
  options.latency_threshold_ms = 50.0;
  options.objective = 0.99;  // Error budget: 1%.
  SloTracker slo(options);

  // Minute 0: 9 good, 1 slow (slow counts as bad even though ok=true).
  for (int i = 0; i < 9; ++i) slo.RecordAt(10.0, /*ok=*/true, 1.0);
  slo.RecordAt(10.0, /*ok=*/true, 100.0);

  SloTracker::Report report = slo.ReportAt(70.0);
  EXPECT_EQ(report.total_5m, 10u);
  EXPECT_EQ(report.bad_5m, 1u);
  EXPECT_DOUBLE_EQ(report.bad_fraction_5m, 0.1);
  // 10% bad against a 1% budget: burning ~10x faster than sustainable.
  const double expected_burn = 0.1 / (1.0 - options.objective);
  EXPECT_DOUBLE_EQ(report.burn_5m, expected_burn);
  EXPECT_EQ(report.total_1h, 10u);
  EXPECT_DOUBLE_EQ(report.burn_1h, expected_burn);
  EXPECT_DOUBLE_EQ(report.budget_remaining_1h, 0.0);  // Clamped at 0.

  // Six minutes later the bad minute left the 5m window but not the hour.
  report = slo.ReportAt(6.5 * 60.0);
  EXPECT_EQ(report.total_5m, 0u);
  EXPECT_DOUBLE_EQ(report.burn_5m, 0.0);
  EXPECT_EQ(report.total_1h, 10u);
  EXPECT_EQ(report.bad_1h, 1u);

  // An errored request is bad regardless of latency.
  slo.RecordAt(6.5 * 60.0, /*ok=*/false, 1.0);
  report = slo.ReportAt(6.5 * 60.0);
  EXPECT_EQ(report.bad_5m, 1u);

  // Past the hour everything ages out.
  report = slo.ReportAt(2.0 * 3600.0);
  EXPECT_EQ(report.total_1h, 0u);
  EXPECT_DOUBLE_EQ(report.budget_remaining_1h, 1.0);
}

// -------------------------------------------------------------- query log

QueryLogRecord FullRecord() {
  QueryLogRecord record;
  record.ts_ms = 1700000000123;
  record.ticket = 42;
  record.tenant = "acme";
  record.k = 10;
  record.num_keywords = 2;
  record.area = false;
  record.algo = "mir2";
  record.predicted_ms = 1.5;
  record.observed_ms = 2.25;
  record.plans = 4;
  record.ok = true;
  record.slow = true;
  record.latency_ms = 55.5;
  record.queue_ms = 1.25;
  record.results = 10;
  record.stats.objects_loaded = 12;
  record.stats.false_positives = 3;
  record.stats.nodes_visited = 40;
  record.stats.node_decodes = 6;
  record.stats.entries_pruned = 17;
  record.stats.demand_random_reads = 9;
  record.stats.demand_sequential_reads = 4;
  record.stats.speculative_random_reads = 2;
  record.stats.speculative_sequential_reads = 1;
  record.stats.simulated_disk_ms = 7.125;
  record.stats.shards_queried = 3;
  record.stats.shards_pruned = 1;
  return record;
}

// The query-log schema, byte for byte. Changing any key name or the key
// order breaks downstream parsers — update docs/observability.md with it.
TEST(QueryLogTest, JsonSchemaGolden) {
  const std::string expected =
      "{\"ts_ms\":1700000000123,\"ticket\":42,\"tenant\":\"acme\","
      "\"k\":10,\"keywords\":2,\"area\":false,\"algo\":\"mir2\","
      "\"predicted_ms\":1.5,\"observed_ms\":2.25,\"plans\":4,"
      "\"ok\":true,\"error\":\"\",\"slow\":true,"
      "\"latency_ms\":55.5,\"queue_ms\":1.25,\"results\":10,"
      "\"objects_loaded\":12,\"false_positives\":3,\"nodes_visited\":40,"
      "\"node_decodes\":6,\"entries_pruned\":17,\"demand_random_reads\":9,"
      "\"demand_sequential_reads\":4,\"speculative_random_reads\":2,"
      "\"speculative_sequential_reads\":1,\"simulated_disk_ms\":7.125,"
      "\"shards_queried\":3,\"shards_pruned\":1}";
  EXPECT_EQ(FullRecord().ToJson(), expected);
}

TEST(QueryLogTest, ErrorRecordEscapesMessage) {
  QueryLogRecord record;
  record.ok = false;
  record.error = "bad \"query\"\nline";
  const std::string json = record.ToJson();
  EXPECT_NE(json.find("\"error\":\"bad \\\"query\\\"\\u000aline\""),
            std::string::npos);
}

TEST(QueryLogTest, SamplingIsDeterministicAndRoughlyCalibrated) {
  QueryLogOptions options;
  options.sample_rate = 0.25;
  QueryLog log(options);
  int sampled = 0;
  for (uint64_t ticket = 0; ticket < 4000; ++ticket) {
    const bool first = log.ShouldSample(ticket);
    ASSERT_EQ(first, log.ShouldSample(ticket));  // Same coin every time.
    if (first) ++sampled;
  }
  EXPECT_NEAR(sampled, 1000, 100);

  QueryLogOptions never;
  never.sample_rate = 0.0;
  QueryLogOptions always;
  always.sample_rate = 1.0;
  EXPECT_FALSE(QueryLog(never).ShouldSample(7));
  EXPECT_TRUE(QueryLog(always).ShouldSample(7));
}

TEST(QueryLogTest, RingKeepsNewestAndCountsDrops) {
  QueryLogOptions options;
  options.capacity = 3;
  QueryLog log(options);
  for (uint64_t i = 0; i < 5; ++i) {
    QueryLogRecord record;
    record.ticket = i;
    log.Record(std::move(record));
  }
  EXPECT_EQ(log.recorded(), 5u);
  EXPECT_EQ(log.dropped(), 2u);
  const std::vector<QueryLogRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].ticket, 2u);  // Oldest survivor first.
  EXPECT_EQ(records[2].ticket, 4u);
}

TEST(QueryLogTest, DrainToFileAppendsJsonLinesAndClears) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ir2_query_log_test.jsonl")
          .string();
  std::filesystem::remove(path);
  QueryLog log;
  log.Record(FullRecord());
  log.Record(FullRecord());
  ASSERT_TRUE(log.DrainToFile(path).ok());
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(log.recorded(), 2u);  // Lifetime count survives the drain.

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents(1 << 16, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  const std::string line = FullRecord().ToJson() + "\n";
  EXPECT_EQ(contents, line + line);
  std::filesystem::remove(path);
}

// -------------------------------------------------------------- /statusz

TEST(StatusJsonTest, ShapeGolden) {
  StatusSnapshot snapshot;
  snapshot.uptime_seconds = 12.5;
  snapshot.build_info = "test-build";
  snapshot.queue_depth = 3;
  snapshot.totals.admitted = 7;
  snapshot.totals.rejected_queue_full = 2;
  snapshot.totals.rejected_quota = 1;
  snapshot.totals.completed = 4;
  TenantRow row;
  row.tenant = "acme";
  row.admitted = 5;
  row.rejected_queue_full = 1;
  row.rejected_quota = 0;
  row.completed = 4;
  row.cache_hits = 2;
  row.cache_near_hits = 1;
  row.cache_misses = 1;
  row.cache_invalidations = 0;
  snapshot.tenants.push_back(row);
  snapshot.latency.count = 4;
  snapshot.latency.sum = 10.0;
  snapshot.latency.p50 = 2.0;
  snapshot.latency.p95 = 3.0;
  snapshot.latency.p99 = 4.0;
  snapshot.latency.window_seconds = 60.0;
  snapshot.slo_latency_threshold_ms = 50.0;
  snapshot.slo_objective = 0.999;
  snapshot.slo.total_5m = 100;
  snapshot.slo.bad_5m = 1;
  snapshot.slo.burn_5m = 10.0;
  snapshot.slo.total_1h = 1000;
  snapshot.slo.bad_1h = 5;
  snapshot.slo.burn_1h = 5.0;
  snapshot.slo.budget_remaining_1h = 0.0;
  StatusSnapshot::ShardRow shard;
  shard.shard = 0;
  shard.num_objects = 250;
  shard.lo_x = 0.0;
  shard.lo_y = 0.0;
  shard.hi_x = 1.0;
  shard.hi_y = 1.0;
  shard.structures = {Structure::kKcTree, Structure::kIio};
  shard.bytes[static_cast<size_t>(Structure::kObjects)] = 4096;
  shard.bytes[static_cast<size_t>(Structure::kKcTree)] = 8192;
  shard.bytes[static_cast<size_t>(Structure::kIio)] = 12288;
  snapshot.shards.push_back(shard);

  const std::string tenants_and_window =
      "\"tenants\":[{\"tenant\":\"acme\",\"admitted\":5,"
      "\"rejected_queue_full\":1,\"rejected_quota\":0,\"completed\":4,"
      "\"cache_hits\":2,\"cache_near_hits\":1,\"cache_misses\":1,"
      "\"cache_invalidations\":0}],"
      "\"latency_window\":{\"window_seconds\":60,\"count\":4,"
      "\"mean_ms\":2.5,\"p50_ms\":2,\"p95_ms\":3,\"p99_ms\":4},"
      "\"slo\":{\"latency_threshold_ms\":50,\"objective\":0.999,"
      "\"total_5m\":100,\"bad_5m\":1,\"burn_5m\":10,"
      "\"total_1h\":1000,\"bad_1h\":5,\"burn_1h\":5,"
      "\"budget_remaining_1h\":0},";
  const std::string head =
      "{\"uptime_seconds\":12.5,\"build\":\"test-build\",\"queue_depth\":3,"
      "\"totals\":{\"admitted\":7,\"rejected_queue_full\":2,"
      "\"rejected_quota\":1,\"completed\":4},";
  const std::string shards =
      "\"shards\":[{\"shard\":0,\"objects\":250,\"bounds\":[0,0,1,1],"
      "\"structures\":[\"kctree\",\"iio\"],"
      "\"bytes\":{\"objects\":4096,\"kctree\":8192,\"iio\":12288}}]}";

  // Without a cache the section renders null.
  EXPECT_EQ(RenderStatusJson(snapshot),
            head + tenants_and_window + "\"result_cache\":null," + shards);

  snapshot.has_result_cache = true;
  snapshot.result_cache.hits = 2;
  snapshot.result_cache.near_hits = 1;
  snapshot.result_cache.misses = 1;
  snapshot.result_cache.invalidations = 0;
  snapshot.result_cache.admitted = 1;
  snapshot.result_cache.evictions = 0;
  snapshot.result_cache.entries = 1;
  snapshot.result_cache.skipped = 3;
  snapshot.result_cache.has_miss_ms = true;
  snapshot.result_cache.miss_ms = 2;
  snapshot.result_cache.has_fill_ms = true;
  snapshot.result_cache.fill_ms = 2.5;
  snapshot.result_cache.buckets.push_back({0.0, 4.0, 0.0, false});
  EXPECT_EQ(RenderStatusJson(snapshot),
            head + tenants_and_window +
                "\"result_cache\":{\"entries\":1,\"hits\":2,\"near_hits\":1,"
                "\"misses\":1,\"invalidations\":0,\"admitted\":1,"
                "\"evictions\":0,\"hit_rate\":0.75,"
                "\"skipped\":3,\"admission\":{\"miss_ms\":2,\"fill_ms\":2.5,"
                "\"buckets\":[{\"ewma_from\":0,\"admits\":4,\"serves\":0,"
                "\"decision\":\"skip\"}]}}," +
                shards);
}

}  // namespace
}  // namespace ir2
