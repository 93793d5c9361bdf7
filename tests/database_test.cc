#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_executor.h"
#include "core/database.h"
#include "datagen/workload.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using testing_util::BruteForceDistanceFirst;
using testing_util::Figure1Hotels;
using testing_util::RandomObjects;
using testing_util::ResultIds;
using testing_util::SavedDigests;
using testing_util::ThreadCount;

TEST(DatabaseTest, BuildComputesDatasetStats) {
  std::vector<StoredObject> objects = RandomObjects(1, 200, 30, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 8;
  options.ir2_signature = SignatureConfig{128, 3};
  auto db = SpatialKeywordDatabase::Build(objects, options).value();

  const DatasetStats& stats = db->stats();
  EXPECT_EQ(stats.num_objects, 200u);
  // Each object: name token + up to 5 vocabulary words.
  EXPECT_GT(stats.AvgDistinctWordsPerObject(), 3.0);
  EXPECT_LE(stats.AvgDistinctWordsPerObject(), 6.0);
  // Vocabulary: <= 30 corpus words + 200 name tokens.
  EXPECT_GT(stats.vocabulary_size, 200u);
  EXPECT_LE(stats.vocabulary_size, 230u);
  EXPECT_GT(stats.object_file_bytes, 0u);
  EXPECT_GE(stats.AvgBlocksPerObject(), 1.0);
}

TEST(DatabaseTest, StructureSizesPopulated) {
  std::vector<StoredObject> objects = RandomObjects(2, 300, 30, 5);
  // Paper-like layout: 113-entry nodes, 189-byte signatures, so IR2 nodes
  // spill into extra blocks and the tree is strictly larger than the
  // R-Tree.
  DatabaseOptions options;
  options.ir2_signature = SignatureConfig{1512, 3};
  auto db = SpatialKeywordDatabase::Build(objects, options).value();

  EXPECT_GT(db->ObjectFileBytes(), 0u);
  EXPECT_GT(db->RTreeBytes(), 0u);
  EXPECT_GT(db->Ir2TreeBytes(), db->RTreeBytes());  // Signatures cost space.
  EXPECT_GT(db->Mir2TreeBytes(), 0u);
  EXPECT_GT(db->IioBytes(), 0u);
}

TEST(DatabaseTest, SelectiveBuildSkipsStructures) {
  std::vector<StoredObject> objects = RandomObjects(3, 50, 10, 3);
  DatabaseOptions options;
  options.tree_options.capacity_override = 4;
  options.structures = {Structure::kIr2, Structure::kKcTree, Structure::kIio};
  auto db = SpatialKeywordDatabase::Build(objects, options).value();
  EXPECT_EQ(db->RTreeBytes(), 0u);
  EXPECT_EQ(db->Mir2TreeBytes(), 0u);
  DistanceFirstQuery query;
  query.point = Point(0, 0);
  query.k = 3;
  EXPECT_FALSE(db->QueryRTree(query).ok());
  EXPECT_FALSE(db->QueryMir2(query).ok());
  EXPECT_TRUE(db->QueryIr2(query).ok());
  EXPECT_TRUE(db->QueryIio(query).ok());
}

// The structures build as concurrent tasks, but which thread built which
// structure, and in what order, cannot change a stored byte: repeated
// builds of one all-structures database save identical files and report
// identical statistics, by insert, bulk load and locality placement.
TEST(DatabaseTest, BuildScheduleCannotChangeTheDatabase) {
  const std::vector<StoredObject> objects = RandomObjects(71, 400, 40, 5);
  DatabaseOptions base;
  base.tree_options.capacity_override = 8;
  base.ir2_signature = SignatureConfig{128, 3};
  DatabaseOptions bulk = base;
  bulk.bulk_load = true;
  DatabaseOptions placed = base;
  placed.locality_placement = true;
  const std::string dir = ::testing::TempDir() + "/ir2_build_schedule";
  for (const DatabaseOptions& options : {base, bulk, placed}) {
    auto first = SpatialKeywordDatabase::Build(objects, options).value();
    const auto digests = SavedDigests(*first, dir);
    EXPECT_EQ(digests.size(), 7u);  // Six structures and the manifest.
    for (int build = 1; build < 8; ++build) {
      auto db = SpatialKeywordDatabase::Build(objects, options).value();
      EXPECT_EQ(SavedDigests(*db, dir), digests) << "build " << build;
      EXPECT_TRUE(db->stats() == first->stats()) << "build " << build;
    }
  }
}

// A structure whose build fails makes Build return that Status once every
// structure task has finished: no crash, no hang, no thread left behind.
// Three-dimensional trees over two-dimensional objects fail each tree's
// first insert (the inverted index still builds), so the R-Tree's error,
// the first in table order, comes back; without the R-Tree, the KC-Tree's.
TEST(DatabaseTest, FailedStructureBuildIsACleanStatus) {
  const std::vector<StoredObject> objects = RandomObjects(5, 300, 30, 5);
  DatabaseOptions options;
  options.tree_options.dims = 3;
  for (StructureSet structures :
       {kAllIndexes, StructureSet{Structure::kKcTree, Structure::kIio}}) {
    options.structures = structures;
    const size_t threads_before = ThreadCount();
    auto db = SpatialKeywordDatabase::Build(objects, options);
    ASSERT_FALSE(db.ok());
    EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument)
        << db.status().ToString();
    EXPECT_EQ(ThreadCount(), threads_before);
  }
}

// The check TierBuildStartsNoStructureWorkers relies on can see structure
// workers: a lone build on a multi-core host runs its trees on helper
// threads, which the sampler catches beside the calling thread and itself
// (retried, since a sampler can miss a short-lived thread).
TEST(DatabaseTest, LoneBuildRunsStructuresOnHelperThreads) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "one hardware thread: no helper threads";
  }
  const size_t threads_before = ThreadCount();
  if (threads_before == 0) GTEST_SKIP() << "/proc/self/task unavailable";
  const std::vector<StoredObject> objects = RandomObjects(6, 2000, 60, 8);
  DatabaseOptions options;
  options.ir2_signature = SignatureConfig{256, 3};
  size_t peak = 0;
  for (int attempt = 0; attempt < 20 && peak <= threads_before + 1;
       ++attempt) {
    peak = testing_util::PeakThreadsDuring([&] {
      ASSERT_TRUE(SpatialKeywordDatabase::Build(objects, options).ok());
    });
  }
  EXPECT_GT(peak, threads_before + 1);
  EXPECT_EQ(ThreadCount(), threads_before);
}

TEST(DatabaseTest, ColdQueriesRepeatIdenticalIo) {
  // With cold_queries, running the same query twice must cost identical
  // disk accesses — the property the benchmark harness depends on.
  std::vector<StoredObject> objects = RandomObjects(4, 400, 30, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 8;
  options.ir2_signature = SignatureConfig{128, 3};
  auto db = SpatialKeywordDatabase::Build(objects, options).value();

  DistanceFirstQuery query;
  query.point = Point(500, 500);
  query.keywords = {"w3"};
  query.k = 5;
  QueryStats first, second;
  (void)db->QueryIr2(query, &first).value();
  (void)db->QueryIr2(query, &second).value();
  EXPECT_EQ(first.io.TotalReads(), second.io.TotalReads());
  EXPECT_EQ(first.io.random_reads, second.io.random_reads);
  EXPECT_GT(first.io.random_reads, 0u);
}

TEST(DatabaseTest, WarmQueriesCostLessIo) {
  std::vector<StoredObject> objects = RandomObjects(5, 400, 30, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 8;
  options.ir2_signature = SignatureConfig{128, 3};
  options.cold_queries = false;
  auto db = SpatialKeywordDatabase::Build(objects, options).value();
  // The build leaves the pools warm; start from a genuinely cold cache so
  // the first query pays node reads and the second benefits from caching.
  ASSERT_TRUE(db->DropCaches().ok());

  DistanceFirstQuery query;
  query.point = Point(500, 500);
  query.keywords = {"w3"};
  query.k = 5;
  QueryStats first, second;
  (void)db->QueryIr2(query, &first).value();
  (void)db->QueryIr2(query, &second).value();
  // Tree nodes are cached now; only object loads remain.
  EXPECT_LT(second.io.TotalReads(), first.io.TotalReads());
}

TEST(DatabaseTest, AggregateIoSumsDevices) {
  auto db = SpatialKeywordDatabase::Build(Figure1Hotels(), DatabaseOptions())
                .value();
  db->ResetIoStats();
  EXPECT_EQ(db->AggregateIo().TotalAccesses(), 0u);
  DistanceFirstQuery query;
  query.point = Point(0, 0);
  query.k = 1;
  (void)db->QueryIr2(query).value();
  EXPECT_GT(db->AggregateIo().TotalReads(), 0u);
}

TEST(DatabaseTest, KeywordMatchesIsTheBooleanAnswerSet) {
  // Example 2 of the paper: Ans({internet, pool}) = {H2, H7}.
  auto db = SpatialKeywordDatabase::Build(Figure1Hotels(), DatabaseOptions())
                .value();
  std::vector<ObjectRef> matches =
      db->KeywordMatches({"internet", "pool"}).value();
  ASSERT_EQ(matches.size(), 2u);
  std::vector<uint32_t> ids;
  for (ObjectRef ref : matches) {
    ids.push_back(db->object_store().Load(ref).value().id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint32_t>{2, 7}));

  EXPECT_TRUE(db->KeywordMatches({"unicorncastle"}).value().empty());
  EXPECT_FALSE(db->KeywordMatches({}).ok());
}

TEST(DatabaseTest, EmptyKeywordsActsAsPureNN) {
  auto db = SpatialKeywordDatabase::Build(Figure1Hotels(), DatabaseOptions())
                .value();
  DistanceFirstQuery query;
  query.point = Point(25.0, -80.0);  // Miami-ish: H1 nearest.
  query.keywords = {};
  query.k = 1;
  for (auto results : {db->QueryRTree(query).value(),
                       db->QueryIr2(query).value(),
                       db->QueryMir2(query).value()}) {
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].object_id, 1u);
  }
}

void ExpectSameExecution(const std::vector<QueryResult>& expected_results,
                         const QueryStats& expected,
                         const std::vector<QueryResult>& results,
                         const QueryStats& stats, const std::string& where) {
  EXPECT_EQ(ResultIds(results), ResultIds(expected_results)) << where;
  ASSERT_EQ(results.size(), expected_results.size()) << where;
  for (size_t r = 0; r < results.size(); ++r) {
    EXPECT_EQ(results[r].distance, expected_results[r].distance)
        << where << " rank " << r;
  }
  EXPECT_EQ(stats.objects_loaded, expected.objects_loaded) << where;
  EXPECT_EQ(stats.false_positives, expected.false_positives) << where;
  EXPECT_EQ(stats.nodes_visited, expected.nodes_visited) << where;
  EXPECT_EQ(stats.entries_pruned, expected.entries_pruned) << where;
  EXPECT_EQ(stats.io, expected.io) << where;
  EXPECT_EQ(stats.simulated_disk_ms, expected.simulated_disk_ms) << where;
}

// Query, Explain and BatchExecutor are three front doors to one execution
// path: on a cold database every fixed algorithm and kAuto must return the
// same answers and the same per-query work and disk profile through each
// of them, at any batch thread count.
TEST(DatabaseTest, QueryExplainAndBatchShareOneExecutionPath) {
  std::vector<StoredObject> objects = RandomObjects(21, 400, 30, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 12;
  options.ir2_signature = SignatureConfig{128, 3};
  auto db = SpatialKeywordDatabase::Build(objects, options).value();
  ASSERT_TRUE(db->options().cold_queries);
  ASSERT_FALSE(db->options().prefetch);

  WorkloadConfig config;
  config.seed = 22;
  config.num_queries = 12;
  config.num_keywords = 2;
  config.k = 6;
  const std::vector<DistanceFirstQuery> queries =
      GenerateWorkload(objects, db->tokenizer(), config);

  for (Algorithm algo : {Algorithm::kRTree, Algorithm::kIio, Algorithm::kIr2,
                         Algorithm::kMir2, Algorithm::kKcTree,
                         Algorithm::kAuto}) {
    const std::string name = AlgorithmName(algo);
    std::vector<std::vector<QueryResult>> serial(queries.size());
    std::vector<QueryStats> serial_stats(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      // Plan against pristine feedback, as the batch workers do.
      db->planner()->feedback().Reset();
      auto results = db->Query(queries[i], algo, &serial_stats[i]);
      ASSERT_TRUE(results.ok()) << name << ": " << results.status().ToString();
      serial[i] = std::move(results).value();

      db->planner()->feedback().Reset();
      auto explained = db->Explain(queries[i], algo);
      ASSERT_TRUE(explained.ok())
          << name << ": " << explained.status().ToString();
      ExpectSameExecution(serial[i], serial_stats[i], explained->results,
                          explained->stats,
                          name + " explain query " + std::to_string(i));
    }
    for (size_t threads : {size_t{1}, size_t{4}}) {
      db->planner()->feedback().Reset();
      BatchExecutorOptions batch_options;
      batch_options.num_threads = threads;
      batch_options.algorithm = algo;
      BatchExecutor executor(db.get(), batch_options);
      auto batch = executor.Run(queries);
      ASSERT_TRUE(batch.ok()) << name << ": " << batch.status().ToString();
      for (size_t i = 0; i < queries.size(); ++i) {
        ExpectSameExecution(serial[i], serial_stats[i], batch->results[i],
                            batch->per_query[i],
                            name + " batch x" + std::to_string(threads) +
                                " query " + std::to_string(i));
      }
    }
  }
}

// One execution path also means one set of metrics: each query of a
// 4-worker batch records ir2_queries_total and the ir2_query_* histograms
// exactly once, like a Query call.
TEST(DatabaseTest, BatchQueriesRecordTheCoreQueryMetrics) {
  std::vector<StoredObject> objects = RandomObjects(23, 300, 30, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 12;
  options.ir2_signature = SignatureConfig{128, 3};
  auto db = SpatialKeywordDatabase::Build(objects, options).value();

  WorkloadConfig config;
  config.seed = 24;
  config.num_queries = 20;
  config.num_keywords = 2;
  config.k = 4;
  const std::vector<DistanceFirstQuery> queries =
      GenerateWorkload(objects, db->tokenizer(), config);

  const obs::CoreMetrics& metrics = obs::DefaultMetrics();
  const uint64_t queries_before = metrics.queries_total->Value();
  const uint64_t sim_disk_before = metrics.query_sim_disk_ms->Count();
  BatchExecutorOptions batch_options;
  batch_options.num_threads = 4;
  batch_options.algorithm = Algorithm::kAuto;
  auto batch = BatchExecutor(db.get(), batch_options).Run(queries);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(metrics.queries_total->Value() - queries_before, queries.size());
  EXPECT_EQ(metrics.query_sim_disk_ms->Count() - sim_disk_before,
            queries.size());
}

// A database built without one structure: that structure's fixed
// algorithm fails cleanly through Query and Explain, kAuto never plans it,
// every other algorithm still returns the brute-force answer, and the
// narrowed set survives Save and Open.
TEST(DatabaseTest, EachUnbuiltStructureIsInfeasibleEverywhere) {
  std::vector<StoredObject> objects = RandomObjects(25, 300, 20, 4);
  const std::pair<Structure, Algorithm> structures[] = {
      {Structure::kRTree, Algorithm::kRTree},
      {Structure::kIr2, Algorithm::kIr2},
      {Structure::kMir2, Algorithm::kMir2},
      {Structure::kKcTree, Algorithm::kKcTree},
      {Structure::kIio, Algorithm::kIio}};
  const Algorithm runnable[] = {Algorithm::kRTree, Algorithm::kIio,
                                Algorithm::kIr2,   Algorithm::kMir2,
                                Algorithm::kKcTree, Algorithm::kAuto};
  WorkloadConfig config;
  config.seed = 26;
  config.num_queries = 6;
  config.num_keywords = 2;
  config.k = 10;
  for (const auto& [missing, missing_algo] : structures) {
    const std::string name = kStructureNames[static_cast<size_t>(missing)];
    DatabaseOptions options;
    options.tree_options.capacity_override = 8;
    options.ir2_signature = SignatureConfig{128, 3};
    options.structures = kAllIndexes.Without(missing);
    auto db = SpatialKeywordDatabase::Build(objects, options).value();
    EXPECT_EQ(db->StructureBytes(missing), 0u) << name;
    std::vector<DistanceFirstQuery> queries =
        GenerateWorkload(objects, db->tokenizer(), config);
    // One single-keyword query keeps the matches dense.
    queries.push_back(queries.front());
    queries.back().keywords.resize(1);

    for (const DistanceFirstQuery& q : queries) {
      auto fixed = db->Query(q, missing_algo);
      EXPECT_EQ(fixed.status().code(), StatusCode::kFailedPrecondition)
          << name;
      auto explain = db->Explain(q, missing_algo);
      EXPECT_EQ(explain.status().code(), StatusCode::kFailedPrecondition)
          << name;

      QueryPlan plan;
      auto chosen = db->QueryAuto(q, nullptr, &plan);
      ASSERT_TRUE(chosen.ok()) << name << ": " << chosen.status().ToString();
      EXPECT_FALSE(plan.Candidate(missing_algo).feasible) << name;
      EXPECT_NE(plan.chosen, missing_algo) << name;

      const std::vector<uint32_t> expected =
          BruteForceDistanceFirst(objects, q.point, q.keywords, q.k);
      for (Algorithm algo : runnable) {
        if (algo == missing_algo) continue;
        auto results = db->Query(q, algo);
        ASSERT_TRUE(results.ok())
            << name << " " << AlgorithmName(algo) << ": "
            << results.status().ToString();
        EXPECT_EQ(ResultIds(results.value()), expected)
            << "without " << name << ", " << AlgorithmName(algo);
      }
    }

    const std::string directory =
        ::testing::TempDir() + "/ir2db_database_test_without_" + name;
    std::filesystem::remove_all(directory);
    ASSERT_TRUE(db->Save(directory).ok()) << name;
    auto reopened = SpatialKeywordDatabase::Open(directory).value();
    EXPECT_EQ(reopened->options().structures, options.structures) << name;
    EXPECT_EQ(reopened->StructureBytes(missing), 0u) << name;
    EXPECT_EQ(reopened->Query(queries.front(), missing_algo).status().code(),
              StatusCode::kFailedPrecondition)
        << name;
    EXPECT_EQ(ResultIds(reopened->QueryAuto(queries.back()).value()),
              ResultIds(db->QueryAuto(queries.back()).value()))
        << name;
    std::filesystem::remove_all(directory);
  }
}

}  // namespace
}  // namespace ir2
