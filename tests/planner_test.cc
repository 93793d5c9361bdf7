// Cost-based planner tests (core/planner.h):
//
//   1. Static cost model shape — costs move the right way as k, document
//      frequency and keyword count move, and the signature false-positive
//      model behaves like superimposed coding says it should.
//   2. Golden planning quality — on a fixed seeded workload spanning the
//      selectivity range, auto's per-query observed cost matches the
//      offline per-query oracle (cheapest fixed algorithm) >= 90% of the
//      time.
//   3. Feedback — EWMA seeding/merging, and convergence: a planner whose
//      feedback was poisoned to favour a terrible algorithm must abandon
//      it after observing real costs.
//   4. Concurrency — a BatchExecutor hammering Plan and
//      RecordOutcome from many workers (run under TSan by check.sh), and
//      raw concurrent PlannerFeedback::Record.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <thread>
#include <vector>

#include "core/batch_executor.h"
#include "core/database.h"
#include "core/planner.h"
#include "core/stats.h"
#include "datagen/workload.h"
#include "tests/test_util.h"
#include "text/signature.h"

namespace ir2 {
namespace {

// Synthetic tree shape: `num_objects` leaf entries under fanout-`fanout`
// nodes up to a single root, every level carrying the same signature
// configuration (signature_bits == 0 models the plain R-Tree).
PlannerTreeShape MakeShape(uint64_t num_objects, uint64_t fanout,
                          uint32_t signature_bits, uint32_t hashes_per_word,
                          double payload_density) {
  PlannerTreeShape shape;
  uint64_t entries = num_objects;
  while (true) {
    PlannerLevel level;
    level.entries = entries;
    level.nodes = (entries + fanout - 1) / fanout;
    level.blocks_per_node = 1.0;
    level.signature_bits = signature_bits;
    level.hashes_per_word = hashes_per_word;
    level.payload_density = payload_density;
    shape.levels.push_back(level);
    if (level.nodes <= 1) break;
    entries = level.nodes;
  }
  return shape;
}

// A planner over a synthetic 100k-object world, fed document frequencies
// directly through ConjunctionEstimate (no inverted index attached).
class CostModelTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kObjects = 100000;

  CostModelTest() {
    PlannerInputs inputs;
    inputs.num_objects = kObjects;
    inputs.avg_blocks_per_object = 1.0;
    inputs.object_file_blocks = kObjects / 16;
    inputs.iio_present = true;
    inputs.rtree = MakeShape(kObjects, 100, 0, 0, 0.0);
    inputs.ir2 = MakeShape(kObjects, 100, 1024, 3, 0.45);
    inputs.mir2 = MakeShape(kObjects, 100, 2048, 3, 0.30);
    inputs.kc = MakeShape(kObjects, 100, 1024, 3, 0.45);
    inputs.kc_hot_bits = 64;
    inputs.kc_cold_bits = 1024 - 64;
    inputs.kc_cold_hashes = 3;
    for (uint64_t df : {50ull, 500ull, 5000ull, 50000ull}) {
      inputs.kc_hot_word_dfs.emplace_back(
          HashWord("h" + std::to_string(df)), df);
    }
    std::sort(inputs.kc_hot_word_dfs.begin(), inputs.kc_hot_word_dfs.end());
    planner_ = std::make_unique<QueryPlanner>(inputs, nullptr, nullptr);
  }

  static ConjunctionEstimate Estimate(std::vector<uint64_t> dfs) {
    ConjunctionEstimate est;
    est.selectivity = 1.0;
    for (uint64_t df : dfs) {
      est.selectivity *= static_cast<double>(df) / kObjects;
    }
    est.dfs = std::move(dfs);
    return est;
  }

  std::unique_ptr<QueryPlanner> planner_;
};

TEST_F(CostModelTest, CostNondecreasingInK) {
  const ConjunctionEstimate est = Estimate({4000, 2500});
  for (Algorithm algo : {Algorithm::kRTree, Algorithm::kIio, Algorithm::kIr2,
                         Algorithm::kMir2, Algorithm::kKcTree}) {
    double previous = 0.0;
    for (uint32_t k : {1u, 5u, 10u, 20u, 50u, 100u}) {
      const double cost = planner_->StaticCost(algo, k, est);
      EXPECT_TRUE(std::isfinite(cost)) << AlgorithmName(algo) << " k=" << k;
      EXPECT_GE(cost, previous - 1e-9) << AlgorithmName(algo) << " k=" << k;
      previous = cost;
    }
  }
  // IIO retrieves and intersects full posting lists and loads every match:
  // its cost cannot depend on k at all.
  EXPECT_DOUBLE_EQ(planner_->StaticCost(Algorithm::kIio, 1, est),
                   planner_->StaticCost(Algorithm::kIio, 100, est));
}

TEST_F(CostModelTest, DocumentFrequencyMovesCostsOppositeWays) {
  // Rarer keywords mean the NN frontier must dig through more non-matching
  // candidates before k matches surface (trees get more expensive as df
  // falls), while the posting list to fetch and the matches to load both
  // shrink (IIO gets cheaper).
  const uint32_t k = 10;
  double prev_tree = std::numeric_limits<double>::infinity();
  double prev_rtree = std::numeric_limits<double>::infinity();
  double prev_kc = std::numeric_limits<double>::infinity();
  double prev_iio = 0.0;
  for (uint64_t df : {50ull, 500ull, 5000ull, 50000ull}) {
    const ConjunctionEstimate est = Estimate({df});
    // The fixture registers "h<df>" as a hot word with this df, so the KC
    // cost routes through the exact-bitmap model, not the cold floor.
    const uint64_t hash = HashWord("h" + std::to_string(df));
    const double tree = planner_->StaticCost(Algorithm::kIr2, k, est);
    const double rtree = planner_->StaticCost(Algorithm::kRTree, k, est);
    const double kc = planner_->StaticCost(Algorithm::kKcTree, k, est, {},
                                           std::span(&hash, 1));
    const double iio = planner_->StaticCost(Algorithm::kIio, k, est);
    EXPECT_LE(tree, prev_tree + 1e-9) << "df=" << df;
    EXPECT_LE(rtree, prev_rtree + 1e-9) << "df=" << df;
    EXPECT_LE(kc, prev_kc + 1e-9) << "df=" << df;
    EXPECT_GE(iio, prev_iio - 1e-9) << "df=" << df;
    EXPECT_TRUE(std::isfinite(kc)) << "df=" << df;
    prev_tree = tree;
    prev_rtree = rtree;
    prev_kc = kc;
    prev_iio = iio;
  }
}

TEST_F(CostModelTest, KcTreeInfeasibleWithoutShape) {
  PlannerInputs inputs;
  inputs.num_objects = kObjects;
  inputs.avg_blocks_per_object = 1.0;
  inputs.object_file_blocks = kObjects / 16;
  inputs.rtree = MakeShape(kObjects, 100, 0, 0, 0.0);
  QueryPlanner planner(inputs, nullptr, nullptr);
  EXPECT_TRUE(std::isinf(
      planner.StaticCost(Algorithm::kKcTree, 10, Estimate({4000}))));
}

TEST_F(CostModelTest, MoreKeywordsNeverCheapenTheRTree) {
  // Each added keyword of the same frequency shrinks the conjunction, so
  // the unfiltered baseline must verify at least as many candidates.
  const uint32_t k = 10;
  double previous = 0.0;
  std::vector<uint64_t> dfs;
  for (int words = 1; words <= 4; ++words) {
    dfs.push_back(20000);
    const double cost =
        planner_->StaticCost(Algorithm::kRTree, k, Estimate(dfs));
    EXPECT_GE(cost, previous - 1e-9) << words << " keywords";
    previous = cost;
  }
}

TEST(SignatureFalsePositiveRateTest, MatchesSuperimposedCodingModel) {
  PlannerLevel level;
  level.signature_bits = 1024;
  level.hashes_per_word = 3;
  level.payload_density = 0.4;

  // More query keywords set more signature bits: the chance a random
  // payload covers them all can only fall.
  double previous = 1.0;
  for (size_t words = 1; words <= 6; ++words) {
    const double fp = QueryPlanner::SignatureFalsePositiveRate(level, words);
    EXPECT_GT(fp, 0.0);
    EXPECT_LE(fp, previous + 1e-12) << words << " keywords";
    previous = fp;
  }

  // Denser payloads pass more garbage.
  PlannerLevel denser = level;
  denser.payload_density = 0.8;
  EXPECT_GT(QueryPlanner::SignatureFalsePositiveRate(denser, 2),
            QueryPlanner::SignatureFalsePositiveRate(level, 2));

  // No signature (the plain R-Tree) filters nothing.
  PlannerLevel unfiltered;
  unfiltered.signature_bits = 0;
  EXPECT_DOUBLE_EQ(QueryPlanner::SignatureFalsePositiveRate(unfiltered, 2),
                   1.0);
}

TEST(SelectivityBucketTest, ClampsAndOrdersByMagnitude) {
  EXPECT_EQ(QueryPlanner::SelectivityBucket(1.0), 0);
  EXPECT_EQ(QueryPlanner::SelectivityBucket(0.5), 0);
  EXPECT_EQ(QueryPlanner::SelectivityBucket(0.05), 1);
  EXPECT_EQ(QueryPlanner::SelectivityBucket(0.005), 2);
  EXPECT_EQ(QueryPlanner::SelectivityBucket(1e-12), PlannerFeedback::kBuckets - 1);
  EXPECT_EQ(QueryPlanner::SelectivityBucket(0.0), PlannerFeedback::kBuckets - 1);
}

TEST(PlannerFeedbackTest, SeedsMergesAndResets) {
  PlannerFeedback fb;
  EXPECT_DOUBLE_EQ(fb.Correction(Algorithm::kIr2, 2), 1.0);

  // The first sample seeds the EWMA directly.
  fb.Record(Algorithm::kIr2, 2, /*static_ms=*/100.0, /*observed_ms=*/200.0);
  EXPECT_DOUBLE_EQ(fb.Correction(Algorithm::kIr2, 2), 2.0);
  EXPECT_EQ(fb.Count(Algorithm::kIr2, 2), 1u);

  // Later samples blend in with weight kAlpha.
  fb.Record(Algorithm::kIr2, 2, 100.0, 100.0);
  EXPECT_NEAR(fb.Correction(Algorithm::kIr2, 2),
              (1.0 - PlannerFeedback::kAlpha) * 2.0 +
                  PlannerFeedback::kAlpha * 1.0,
              1e-12);

  // Merging weights each cell by its sample count.
  PlannerFeedback other;
  other.Record(Algorithm::kIr2, 2, 100.0, 400.0);
  const double before = fb.Correction(Algorithm::kIr2, 2);
  fb.MergeFrom(other);
  EXPECT_EQ(fb.Count(Algorithm::kIr2, 2), 3u);
  EXPECT_NEAR(fb.Correction(Algorithm::kIr2, 2),
              (2.0 * before + 1.0 * 4.0) / 3.0, 1e-12);

  fb.Reset();
  EXPECT_EQ(fb.Count(Algorithm::kIr2, 2), 0u);
  EXPECT_DOUBLE_EQ(fb.Correction(Algorithm::kIr2, 2), 1.0);
}

// Database-level fixture: a seeded dataset whose workload spans the
// selectivity range (co-occurring pairs, one ubiquitous word, one absent
// word), so different queries genuinely favour different algorithms.
class PlannerDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    objects_ = testing_util::RandomObjects(/*seed=*/1234, /*n=*/900,
                                           /*vocab=*/120,
                                           /*words_per_object=*/6);
    DatabaseOptions options;
    options.tree_options.capacity_override = 16;
    options.ir2_signature = SignatureConfig{128, 3};
    auto db = SpatialKeywordDatabase::Build(objects_, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    ASSERT_NE(db_->planner(), nullptr);

    WorkloadConfig config;
    config.seed = 99;
    config.num_queries = 24;
    config.num_keywords = 2;
    config.k = 8;
    queries_ = GenerateWorkload(objects_, db_->tokenizer(), config);
    // Frequency extremes: w0 appears in ~5% of objects per slot; a word
    // beyond the vocabulary appears in none (IIO's best case — trees can
    // only learn the conjunction is empty by exhausting their frontier).
    DistanceFirstQuery frequent = queries_.front();
    frequent.keywords = {"w0"};
    queries_.push_back(frequent);
    DistanceFirstQuery absent = queries_.back();
    absent.keywords = {"w99999"};
    queries_.push_back(absent);
  }

  std::vector<StoredObject> objects_;
  std::unique_ptr<SpatialKeywordDatabase> db_;
  std::vector<DistanceFirstQuery> queries_;
};

constexpr Algorithm kFixed[] = {Algorithm::kRTree, Algorithm::kIio,
                                Algorithm::kIr2, Algorithm::kMir2,
                                Algorithm::kKcTree};

// Planning must stay pure in-memory arithmetic even with the KC-Tree's
// fifth candidate (its hot-word frequencies live in the planner's
// snapshot, never behind I/O).
TEST_F(PlannerDatabaseTest, PlanningDoesNoIoWithFiveCandidates) {
  db_->ResetIoStats();
  for (const DistanceFirstQuery& query : queries_) {
    const QueryPlan plan = db_->planner()->Plan(query);
    EXPECT_TRUE(plan.has_choice);
    EXPECT_EQ(plan.candidates.size(),
              static_cast<size_t>(kNumPlannableAlgorithms));
  }
  EXPECT_EQ(db_->AggregateIo().TotalReads(), 0u);
}

TEST_F(PlannerDatabaseTest, AutoMatchesPerQueryOracleOnGoldenWorkload) {
  size_t matched = 0;
  db_->planner()->feedback().Reset();
  for (const DistanceFirstQuery& query : queries_) {
    double oracle = std::numeric_limits<double>::infinity();
    for (Algorithm algo : kFixed) {
      QueryStats stats;
      auto results = db_->Query(query, algo, &stats);
      ASSERT_TRUE(results.ok()) << results.status().ToString();
      oracle = std::min(oracle, stats.simulated_disk_ms);
    }
    QueryStats stats;
    QueryPlan plan;
    auto results = db_->QueryAuto(query, &stats, &plan);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    EXPECT_TRUE(plan.has_choice);
    // "Match" = auto's observed cost is within 10% of the oracle's, with
    // one seek of absolute slack so near-zero-cost queries can't miss on
    // rounding (picking a different algorithm that costs the same is not a
    // miss).
    const double slack = db_->disk_model().RandomAccessMs();
    if (stats.simulated_disk_ms <= 1.10 * oracle + slack) ++matched;
  }
  EXPECT_GE(static_cast<double>(matched),
            0.9 * static_cast<double>(queries_.size()))
      << matched << "/" << queries_.size() << " oracle matches";
}

TEST_F(PlannerDatabaseTest, AutoReturnsTheChosenAlgorithmsExactResults) {
  for (const DistanceFirstQuery& query : queries_) {
    QueryStats auto_stats;
    QueryPlan plan;
    auto auto_results = db_->QueryAuto(query, &auto_stats, &plan);
    ASSERT_TRUE(auto_results.ok()) << auto_results.status().ToString();
    QueryStats fixed_stats;
    auto fixed_results = db_->Query(query, plan.chosen, &fixed_stats);
    ASSERT_TRUE(fixed_results.ok()) << fixed_results.status().ToString();
    EXPECT_EQ(testing_util::ResultIds(*auto_results),
              testing_util::ResultIds(*fixed_results));
    EXPECT_EQ(auto_stats.io.random_reads, fixed_stats.io.random_reads);
    EXPECT_EQ(auto_stats.io.sequential_reads, fixed_stats.io.sequential_reads);
    EXPECT_EQ(auto_stats.objects_loaded, fixed_stats.objects_loaded);
  }
}

TEST_F(PlannerDatabaseTest, FeedbackRecoversFromPoisonedModel) {
  // A co-occurring keyword pair: the conjunction is rare, so the
  // unfiltered baseline must verify candidates until k matches surface —
  // by far the worst plan, but with every real alternative costing
  // something, a poisoned-cheap baseline can undercut them all.
  const DistanceFirstQuery& query = queries_.front();
  QueryPlanner* planner = db_->planner();
  planner->feedback().Reset();

  const QueryPlan clean = planner->Plan(query);
  ASSERT_TRUE(clean.has_choice);
  ASSERT_NE(clean.chosen, Algorithm::kRTree);

  // Poison: make the baseline look ~free in this query's bucket. The
  // planner must now pick it — and then un-learn it from observations.
  planner->feedback().Record(Algorithm::kRTree, clean.bucket,
                             /*static_ms=*/1.0, /*observed_ms=*/1e-6);
  {
    const QueryPlan poisoned = planner->Plan(query);
    ASSERT_EQ(poisoned.chosen, Algorithm::kRTree);
  }

  Algorithm last = Algorithm::kRTree;
  int executed = 0;
  for (; executed < 20 && last == Algorithm::kRTree; ++executed) {
    QueryStats stats;
    QueryPlan plan;
    auto results = db_->QueryAuto(query, &stats, &plan);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    last = plan.chosen;
  }
  EXPECT_NE(last, Algorithm::kRTree)
      << "planner still executing the poisoned choice after " << executed
      << " observations";
  EXPECT_EQ(last, clean.chosen);
}

// Pins the static cost model bit for bit: static_ms of all five
// candidates for fixed queries on the fixture database, as hex floats.
// Refactors of the cost arithmetic (hoisting query-independent terms out
// of Plan, reordering loops) must leave every value identical; a
// deliberate model change re-captures the table.
TEST_F(PlannerDatabaseTest, StaticCostsMatchHexGoldens) {
  // Rows: the first eight workload queries, then the frequent-word and
  // absent-word queries. Columns: kFixed order (rtree, iio, ir2, mir2,
  // kctree).
  constexpr double kGolden[][std::size(kFixed)] = {
      {0x1.de8f34cafac42p+12, 0x1.fd211d056ef28p+3, 0x1.fccfdfcc8a691p+7,
       0x1.6571673eb4a37p+5, 0x1.a4d5ae56ecfa2p+6},
      {0x1.de8f34cafac42p+12, 0x1.0a11ba3da5d47p+5, 0x1.768dd935a251p+8,
       0x1.c70d1d9b07c1cp+7, 0x1.caa569c08155p+7},
      {0x1.de8f34cafac42p+12, 0x1.c9712ebee0576p+4, 0x1.5a9dc333ab53bp+8,
       0x1.8a70dfa88d47ap+7, 0x1.bb38fd9218e6ap+7},
      {0x1.de8f34cafac42p+12, 0x1.0adafb73cbbc4p+5, 0x1.76f1e1bc38daep+8,
       0x1.ca267ea8c45cdp+7, 0x1.938a228781fc2p+7},
      {0x1.de8f34cafac42p+12, 0x1.c8c0a5c2acb06p+4, 0x1.5a6739edbb88p+8,
       0x1.89bdafe22e5fdp+7, 0x1.ba9bfde0eef83p+7},
      {0x1.de8f34cafac42p+12, 0x1.c8c0a5c2acb06p+4, 0x1.5a6739edbb88p+8,
       0x1.89bdafe22e5fdp+7, 0x1.ba9bfde0eef83p+7},
      {0x1.de8f34cafac42p+12, 0x1.fc93e2a2126cfp+3, 0x1.f81bb22771f2bp+7,
       0x1.5ecf4e228f713p+5, 0x1.9eae684c1d157p+6},
      {0x1.de8f34cafac42p+12, 0x1.04a62a95faddbp+5, 0x1.729f1758b9498p+8,
       0x1.c04c942c02555p+7, 0x1.89e2c265acdcfp+7},
      {0x1.986823ee08fb7p+10, 0x1.2e8e84a0a1c8fp+8, 0x1.6ff62cc52a386p+7,
       0x1.32f49cccf22f8p+7, 0x1.372fca5921889p+7},
      {0x1.de8f34cafac42p+12, 0x0p+0, 0x1.65032d86f951cp+8,
       0x1.43993c4056aa8p+6, 0x1.38aa977cda02p+7},
  };
  std::vector<DistanceFirstQuery> queries(queries_.begin(),
                                          queries_.begin() + 8);
  queries.insert(queries.end(), queries_.end() - 2, queries_.end());
  ASSERT_EQ(queries.size(), std::size(kGolden));
  for (size_t q = 0; q < queries.size(); ++q) {
    const QueryPlan plan = db_->planner()->Plan(queries[q]);
    for (size_t a = 0; a < std::size(kFixed); ++a) {
      const double got = plan.Candidate(kFixed[a]).static_ms;
      char got_hex[32];
      std::snprintf(got_hex, sizeof(got_hex), "%a", got);
      EXPECT_EQ(std::bit_cast<uint64_t>(got),
                std::bit_cast<uint64_t>(kGolden[q][a]))
          << "query " << q << " " << AlgorithmName(kFixed[a]) << ": got "
          << got_hex;
    }
  }
}

TEST_F(PlannerDatabaseTest, ConcurrentAutoBatchIsSafeAndDeterministic) {
  // Hammer Plan/RecordOutcome from many workers (TSan target). The batch
  // must also agree with a serial auto pass query for query, because
  // workers plan against the frozen pre-batch feedback.
  std::vector<DistanceFirstQuery> hammer;
  for (int round = 0; round < 3; ++round) {
    hammer.insert(hammer.end(), queries_.begin(), queries_.end());
  }

  db_->planner()->feedback().Reset();
  std::vector<QueryStats> serial(hammer.size());
  std::vector<std::vector<uint32_t>> serial_ids(hammer.size());
  for (size_t i = 0; i < hammer.size(); ++i) {
    // Plan against pristine feedback, exactly like the batch workers do.
    db_->planner()->feedback().Reset();
    auto results = db_->QueryAuto(hammer[i], &serial[i]);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    serial_ids[i] = testing_util::ResultIds(*results);
  }

  db_->planner()->feedback().Reset();
  BatchExecutorOptions options;
  options.num_threads = 8;
  options.algorithm = Algorithm::kAuto;
  BatchExecutor executor(db_.get(), options);
  auto batch = executor.Run(hammer);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (size_t i = 0; i < hammer.size(); ++i) {
    EXPECT_EQ(testing_util::ResultIds(batch->results[i]), serial_ids[i]) << i;
    EXPECT_EQ(batch->per_query[i].io.random_reads, serial[i].io.random_reads)
        << i;
    EXPECT_EQ(batch->per_query[i].io.sequential_reads,
              serial[i].io.sequential_reads)
        << i;
    EXPECT_EQ(batch->per_query[i].objects_loaded, serial[i].objects_loaded)
        << i;
  }
  // The workers' merged feedback made it into the planner. (Queries whose
  // chosen plan has zero static cost — e.g. an absent keyword answered
  // from the dictionary alone — record no ratio, so this is a lower
  // bound, not an equality.)
  uint64_t samples = 0;
  for (Algorithm algo : kFixed) {
    for (int b = 0; b < PlannerFeedback::kBuckets; ++b) {
      samples += db_->planner()->feedback().Count(algo, b);
    }
  }
  EXPECT_GT(samples, hammer.size() / 2);
  EXPECT_LE(samples, hammer.size());
}

TEST(PlannerFeedbackConcurrencyTest, RawConcurrentRecordsStayConsistent) {
  PlannerFeedback fb;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fb, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        fb.Record(Algorithm::kIr2, t % PlannerFeedback::kBuckets, 100.0,
                  50.0 + (i % 7) * 25.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  uint64_t total = 0;
  for (int b = 0; b < PlannerFeedback::kBuckets; ++b) {
    total += fb.Count(Algorithm::kIr2, b);
    const double correction = fb.Correction(Algorithm::kIr2, b);
    // Every sample ratio lies in [0.5, 2.0]; any EWMA of them must too.
    if (fb.Count(Algorithm::kIr2, b) > 0) {
      EXPECT_GE(correction, 0.5);
      EXPECT_LE(correction, 2.0);
    }
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace ir2
