#include "serving/server_loop.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "datagen/workload.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "serving/sharded_database.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using serving::ServerLoop;
using serving::ServerLoopOptions;
using serving::ServerStats;
using serving::ShardedDatabase;
using serving::ShardingOptions;
using testing_util::RandomObjects;

// Warm serving regime: concurrent workers share the shards' pools, which is
// only safe when queries never drop caches (ServerLoop checks this).
DatabaseOptions WarmOptions() {
  DatabaseOptions options;
  options.ir2_signature = SignatureConfig{256, 3};
  options.cold_queries = false;
  return options;
}

class ServerLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    objects_ = RandomObjects(21, 400, 40, 5);
    ShardingOptions sharding;
    sharding.num_shards = 4;
    sharding.structures = kAllIndexes;  // Fixed IR2 requests run below.
    db_ = ShardedDatabase::Build(objects_, WarmOptions(), sharding).value();
    ASSERT_TRUE(db_->SafeForConcurrentQueries());

    WorkloadConfig config;
    config.seed = 5;
    config.num_queries = 16;
    config.num_keywords = 2;
    queries_ =
        GenerateWorkload(objects_, db_->shard(0)->tokenizer(), config);
  }

  std::vector<StoredObject> objects_;
  std::unique_ptr<ShardedDatabase> db_;
  std::vector<DistanceFirstQuery> queries_;
};

TEST_F(ServerLoopTest, ServesQueriesMatchingDirectExecution) {
  ServerLoopOptions options;
  options.num_workers = 2;
  options.algorithm = Algorithm::kIr2;
  ServerLoop loop(db_.get(), options);

  std::vector<std::future<std::vector<QueryResult>>> futures;
  for (const DistanceFirstQuery& q : queries_) {
    auto promise =
        std::make_shared<std::promise<std::vector<QueryResult>>>();
    futures.push_back(promise->get_future());
    ServerLoop::Admission admission = loop.Submit(
        "tenant", q,
        [promise](StatusOr<std::vector<QueryResult>> results,
                  const QueryStats& stats) {
          ASSERT_TRUE(results.ok());
          EXPECT_GE(stats.shards_queried, 1u);
          // The per-shard work must surface through the plain Query path
          // (not only via Explain), or serving metrics go dark.
          EXPECT_GT(stats.nodes_visited, 0u);
          promise->set_value(std::move(results).value());
        });
    ASSERT_EQ(admission.outcome, ServerLoop::Admission::Outcome::kAdmitted);
    EXPECT_GT(admission.ticket, 0u);
  }
  for (size_t i = 0; i < queries_.size(); ++i) {
    std::vector<QueryResult> served = futures[i].get();
    std::vector<QueryResult> direct =
        db_->Query(queries_[i], Algorithm::kIr2).value();
    ASSERT_EQ(served.size(), direct.size());
    for (size_t j = 0; j < direct.size(); ++j) {
      EXPECT_EQ(served[j].object_id, direct[j].object_id);
      EXPECT_EQ(served[j].distance, direct[j].distance);
    }
  }
  loop.Drain();
  ServerStats stats = loop.stats();
  EXPECT_EQ(stats.admitted, queries_.size());
  EXPECT_EQ(stats.completed, queries_.size());
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  EXPECT_EQ(stats.rejected_quota, 0u);
}

TEST_F(ServerLoopTest, FullQueueShedsWithRetryAfter) {
  ServerLoopOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  ServerLoop loop(db_.get(), options);

  // Block the single worker inside the first request's callback, so the
  // second request occupies the queue's only slot and the third must shed.
  std::mutex mu;
  std::condition_variable cv;
  bool in_callback = false;
  bool release = false;
  auto first = loop.Submit(
      "tenant", queries_[0],
      [&](StatusOr<std::vector<QueryResult>>, const QueryStats&) {
        std::unique_lock<std::mutex> lock(mu);
        in_callback = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
      });
  ASSERT_EQ(first.outcome, ServerLoop::Admission::Outcome::kAdmitted);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return in_callback; });
  }

  auto second = loop.Submit(
      "tenant", queries_[1],
      [](StatusOr<std::vector<QueryResult>>, const QueryStats&) {});
  EXPECT_EQ(second.outcome, ServerLoop::Admission::Outcome::kAdmitted);

  auto third = loop.Submit(
      "tenant", queries_[2],
      [](StatusOr<std::vector<QueryResult>>, const QueryStats&) {});
  EXPECT_EQ(third.outcome, ServerLoop::Admission::Outcome::kQueueFull);
  EXPECT_GT(third.retry_after_ms, 0.0);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  loop.Drain();
  ServerStats stats = loop.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
}

TEST_F(ServerLoopTest, TokenBucketQuotaIsPerTenant) {
  ServerLoopOptions options;
  options.num_workers = 1;
  options.quota.tokens_per_second = 1e-6;  // Effectively no refill.
  options.quota.burst = 2.0;
  ServerLoop loop(db_.get(), options);
  auto noop = [](StatusOr<std::vector<QueryResult>>, const QueryStats&) {};

  EXPECT_EQ(loop.Submit("alice", queries_[0], noop).outcome,
            ServerLoop::Admission::Outcome::kAdmitted);
  EXPECT_EQ(loop.Submit("alice", queries_[1], noop).outcome,
            ServerLoop::Admission::Outcome::kAdmitted);
  auto rejected = loop.Submit("alice", queries_[2], noop);
  EXPECT_EQ(rejected.outcome, ServerLoop::Admission::Outcome::kOverQuota);
  EXPECT_GT(rejected.retry_after_ms, 0.0);
  // Another tenant has its own bucket.
  EXPECT_EQ(loop.Submit("bob", queries_[3], noop).outcome,
            ServerLoop::Admission::Outcome::kAdmitted);

  loop.Drain();
  ServerStats stats = loop.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.rejected_quota, 1u);
}

TEST_F(ServerLoopTest, StopCompletesAdmittedWork) {
  ServerLoopOptions options;
  options.num_workers = 1;
  options.queue_capacity = 64;
  ServerLoop loop(db_.get(), options);
  std::atomic<uint64_t> callbacks{0};
  uint64_t admitted = 0;
  for (const DistanceFirstQuery& q : queries_) {
    auto admission = loop.Submit(
        "tenant", q,
        [&](StatusOr<std::vector<QueryResult>>, const QueryStats&) {
          callbacks.fetch_add(1);
        });
    if (admission.outcome == ServerLoop::Admission::Outcome::kAdmitted) {
      ++admitted;
    }
  }
  loop.Stop();  // Graceful: queued requests finish, then workers exit.
  EXPECT_EQ(callbacks.load(), admitted);
  EXPECT_EQ(loop.stats().completed, admitted);
  // After Stop, everything is shed.
  auto late = loop.Submit(
      "tenant", queries_[0],
      [](StatusOr<std::vector<QueryResult>>, const QueryStats&) {});
  EXPECT_EQ(late.outcome, ServerLoop::Admission::Outcome::kQueueFull);
}

// The per-loop tenant rows and the global labelled registry counters must
// tell the same overload story: registry values only ever accumulate, so
// the check is delta-based (other tests in this binary share the registry).
TEST_F(ServerLoopTest, TenantTableAndGlobalCountersAgreeUnderOverload) {
  using obs::MetricsRegistry;
  MetricsRegistry& registry = MetricsRegistry::Global();
  obs::Counter* alice_admitted = registry.GetCounter(
      MetricsRegistry::LabelledName("ir2_server_admitted_total", "tenant",
                                    "alice"));
  obs::Counter* alice_quota = registry.GetCounter(
      MetricsRegistry::LabelledName("ir2_server_rejected_quota_total",
                                    "tenant", "alice"));
  obs::Counter* alice_completed = registry.GetCounter(
      MetricsRegistry::LabelledName("ir2_server_completed_total", "tenant",
                                    "alice"));
  obs::Counter* bob_admitted = registry.GetCounter(
      MetricsRegistry::LabelledName("ir2_server_admitted_total", "tenant",
                                    "bob"));
  const uint64_t base_alice_admitted = alice_admitted->Value();
  const uint64_t base_alice_quota = alice_quota->Value();
  const uint64_t base_alice_completed = alice_completed->Value();
  const uint64_t base_bob_admitted = bob_admitted->Value();

  ServerLoopOptions options;
  options.num_workers = 1;
  options.quota.tokens_per_second = 1e-6;  // Effectively no refill.
  options.quota.burst = 2.0;
  ServerLoop loop(db_.get(), options);
  auto noop = [](StatusOr<std::vector<QueryResult>>, const QueryStats&) {};
  ASSERT_EQ(loop.Submit("alice", queries_[0], noop).outcome,
            ServerLoop::Admission::Outcome::kAdmitted);
  ASSERT_EQ(loop.Submit("alice", queries_[1], noop).outcome,
            ServerLoop::Admission::Outcome::kAdmitted);
  ASSERT_EQ(loop.Submit("alice", queries_[2], noop).outcome,
            ServerLoop::Admission::Outcome::kOverQuota);
  ASSERT_EQ(loop.Submit("bob", queries_[3], noop).outcome,
            ServerLoop::Admission::Outcome::kAdmitted);
  loop.Drain();

  const std::vector<serving::TenantRow> table = loop.TenantTable();
  ASSERT_EQ(table.size(), 2u);  // Sorted by tenant name.
  EXPECT_EQ(table[0].tenant, "alice");
  EXPECT_EQ(table[0].admitted, 2u);
  EXPECT_EQ(table[0].rejected_quota, 1u);
  EXPECT_EQ(table[0].completed, 2u);
  EXPECT_EQ(table[1].tenant, "bob");
  EXPECT_EQ(table[1].admitted, 1u);
  EXPECT_EQ(table[1].completed, 1u);

  EXPECT_EQ(alice_admitted->Value() - base_alice_admitted, 2u);
  EXPECT_EQ(alice_quota->Value() - base_alice_quota, 1u);
  EXPECT_EQ(alice_completed->Value() - base_alice_completed, 2u);
  EXPECT_EQ(bob_admitted->Value() - base_bob_admitted, 1u);
  EXPECT_EQ(loop.queue_depth(), 0u);
}

TEST_F(ServerLoopTest, TenantCardinalityCapFoldsIntoOther) {
  // The first 64 distinct tenants get their own label; tenant-64 and
  // tenant-65 fold into "other".
  ServerLoopOptions options;
  options.num_workers = 1;
  ServerLoop loop(db_.get(), options);
  auto noop = [](StatusOr<std::vector<QueryResult>>, const QueryStats&) {};
  for (int t = 0; t < 66; ++t) {
    // Drain before the admission queue (64 deep) can fill and shed.
    if (t % 32 == 0) loop.Drain();
    ASSERT_EQ(loop.Submit("tenant-" + std::to_string(t),
                          queries_[t % queries_.size()], noop)
                  .outcome,
              ServerLoop::Admission::Outcome::kAdmitted);
  }
  loop.Drain();
  const std::vector<serving::TenantRow> table = loop.TenantTable();
  ASSERT_EQ(table.size(), 65u);
  EXPECT_EQ(table[0].tenant, "other");  // tenant-64 and tenant-65 folded.
  EXPECT_EQ(table[0].admitted, 2u);
  std::set<std::string> labelled;
  for (size_t i = 1; i < table.size(); ++i) {
    EXPECT_EQ(table[i].admitted, 1u) << table[i].tenant;
    labelled.insert(table[i].tenant);
  }
  std::set<std::string> expected;
  for (int t = 0; t < 64; ++t) expected.insert("tenant-" + std::to_string(t));
  EXPECT_EQ(labelled, expected);
}

TEST_F(ServerLoopTest, QueryLogCapturesEveryRequestAtFullSampling) {
  ServerLoopOptions options;
  options.num_workers = 2;
  options.query_log.sample_rate = 1.0;
  ServerLoop loop(db_.get(), options);
  for (const DistanceFirstQuery& q : queries_) {
    ASSERT_EQ(loop.Submit("acme", q,
                          [](StatusOr<std::vector<QueryResult>>,
                             const QueryStats&) {})
                  .outcome,
              ServerLoop::Admission::Outcome::kAdmitted);
  }
  loop.Drain();

  EXPECT_EQ(loop.query_log()->recorded(), queries_.size());
  const std::vector<obs::QueryLogRecord> records =
      loop.query_log()->Snapshot();
  ASSERT_EQ(records.size(), queries_.size());
  for (const obs::QueryLogRecord& record : records) {
    EXPECT_EQ(record.tenant, "acme");
    EXPECT_GT(record.ticket, 0u);
    EXPECT_GT(record.ts_ms, 0u);
    EXPECT_TRUE(record.ok);
    // The kAuto planner ran under the audit sink on every shard leg.
    EXPECT_FALSE(record.algo.empty());
    EXPECT_EQ(record.plans, 4u);  // One audited plan per shard.
    EXPECT_GT(record.observed_ms, 0.0);
    // The audit sums exactly the legs the stats sum.
    EXPECT_EQ(record.observed_ms, record.stats.simulated_disk_ms);
    EXPECT_GE(record.latency_ms, record.queue_ms);
    EXPECT_GT(record.stats.nodes_visited, 0u);
    EXPECT_EQ(record.stats.shards_queried, 4u);
  }

  // The sliding latency window and the SLO tracker saw the same requests.
  EXPECT_EQ(loop.LatencyWindow().count, queries_.size());
  const obs::SloTracker::Report slo = loop.SloReport();
  EXPECT_EQ(slo.total_5m, queries_.size());
}

TEST_F(ServerLoopTest, ResultCacheHitLogsNoPlan) {
  db_->EnableResultCache();
  ServerLoopOptions options;
  options.num_workers = 1;
  options.query_log.sample_rate = 1.0;
  ServerLoop loop(db_.get(), options);
  for (int repeat = 0; repeat < 2; ++repeat) {
    ASSERT_EQ(loop.Submit("acme", queries_[0],
                          [](StatusOr<std::vector<QueryResult>>,
                             const QueryStats&) {})
                  .outcome,
              ServerLoop::Admission::Outcome::kAdmitted);
    loop.Drain();
  }

  const std::vector<obs::QueryLogRecord> records =
      loop.query_log()->Snapshot();
  ASSERT_EQ(records.size(), 2u);
  // The miss fans out and audits its legs; the hit runs no plan.
  EXPECT_FALSE(records[0].algo.empty());
  EXPECT_EQ(records[0].plans, records[0].stats.shards_queried);
  EXPECT_GT(records[0].plans, 0u);
  EXPECT_TRUE(records[1].ok);
  EXPECT_EQ(records[1].algo, "");
  EXPECT_EQ(records[1].plans, 0u);
  EXPECT_EQ(records[1].observed_ms, 0.0);
  EXPECT_EQ(records[1].stats.shards_queried, 0u);
}

TEST_F(ServerLoopTest, SlowRequestsAreCapturedDespiteZeroSampleRate) {
  ServerLoopOptions options;
  options.num_workers = 1;
  options.query_log.sample_rate = 0.0;
  options.slo.latency_threshold_ms = 0.0;  // Everything is "slow".
  ServerLoop loop(db_.get(), options);
  ASSERT_EQ(loop.Submit("acme", queries_[0],
                        [](StatusOr<std::vector<QueryResult>>,
                           const QueryStats&) {})
                .outcome,
            ServerLoop::Admission::Outcome::kAdmitted);
  loop.Drain();
  const std::vector<obs::QueryLogRecord> records =
      loop.query_log()->Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].slow);
}

// The SLO's latency threshold is the query log's one "slow" line: a request
// the SLO counts as bad for latency is the request /querylogz captures as
// slow, with no second threshold to drift out of step.
TEST_F(ServerLoopTest, SloThresholdAloneFlagsEveryRequestSlow) {
  ServerLoopOptions options;
  options.num_workers = 2;
  options.slo.latency_threshold_ms = 0.0;
  options.query_log.sample_rate = 0.0;
  ServerLoop loop(db_.get(), options);
  for (const DistanceFirstQuery& q : queries_) {
    ASSERT_EQ(loop.Submit("acme", q,
                          [](StatusOr<std::vector<QueryResult>>,
                             const QueryStats&) {})
                  .outcome,
              ServerLoop::Admission::Outcome::kAdmitted);
  }
  loop.Drain();
  EXPECT_EQ(loop.stats().completed, queries_.size());
  const std::vector<obs::QueryLogRecord> records =
      loop.query_log()->Snapshot();
  ASSERT_EQ(records.size(), queries_.size());
  for (const obs::QueryLogRecord& record : records) {
    EXPECT_TRUE(record.ok);
    EXPECT_TRUE(record.slow);
  }
  EXPECT_EQ(loop.SloReport().bad_5m, queries_.size());
}

// TSan target: concurrent submitters against a small queue with quotas on,
// so admission, shedding, scatter-gather execution, per-shard planning and
// the metrics all race — the serving tier's full concurrent surface.
TEST_F(ServerLoopTest, ConcurrentScatterGatherHammerWithShedding) {
  ServerLoopOptions options;
  options.num_workers = 3;
  options.queue_capacity = 8;
  options.algorithm = Algorithm::kAuto;
  options.quota.tokens_per_second = 500.0;
  options.quota.burst = 16.0;
  options.query_log.sample_rate = 0.5;  // Race the query-log ring too.
  ServerLoop loop(db_.get(), options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::atomic<uint64_t> callbacks{0};
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> shed{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const DistanceFirstQuery& q = queries_[(t + i) % queries_.size()];
        auto admission = loop.Submit(
            "tenant-" + std::to_string(t % 2), q,
            [&](StatusOr<std::vector<QueryResult>> results,
                const QueryStats&) {
              EXPECT_TRUE(results.ok());
              callbacks.fetch_add(1);
            });
        if (admission.outcome == ServerLoop::Admission::Outcome::kAdmitted) {
          admitted.fetch_add(1);
        } else {
          shed.fetch_add(1);
          EXPECT_GE(admission.retry_after_ms, 0.0);
        }
      }
      // Racing reads of every telemetry surface must be clean too.
      (void)loop.stats();
      (void)loop.TenantTable();
      (void)loop.LatencyWindow();
      (void)loop.SloReport();
      (void)loop.query_log()->ToJsonLines();
      (void)loop.queue_depth();
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  loop.Drain();

  EXPECT_EQ(admitted.load() + shed.load(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(callbacks.load(), admitted.load());
  ServerStats stats = loop.stats();
  EXPECT_EQ(stats.completed, admitted.load());
  EXPECT_EQ(stats.rejected_queue_full + stats.rejected_quota, shed.load());

  // The per-tenant rows partition the totals exactly, even under races.
  uint64_t table_admitted = 0;
  uint64_t table_shed = 0;
  uint64_t table_completed = 0;
  for (const serving::TenantRow& row : loop.TenantTable()) {
    table_admitted += row.admitted;
    table_shed += row.rejected_queue_full + row.rejected_quota;
    table_completed += row.completed;
  }
  EXPECT_EQ(table_admitted, admitted.load());
  EXPECT_EQ(table_shed, shed.load());
  EXPECT_EQ(table_completed, admitted.load());
  EXPECT_EQ(loop.LatencyWindow().count, admitted.load());
}

}  // namespace
}  // namespace ir2
