#include "core/batch_executor.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/database.h"
#include "core/ir2_search.h"
#include "datagen/workload.h"
#include "rtree/rtree_base.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using testing_util::RandomObjects;

std::unique_ptr<SpatialKeywordDatabase> BuildDatabase(
    std::vector<StoredObject>* objects) {
  *objects = RandomObjects(11, 400, 30, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 8;
  options.ir2_signature = SignatureConfig{128, 3};
  return SpatialKeywordDatabase::Build(*objects, options).value();
}

std::vector<DistanceFirstQuery> MakeWorkload(
    const SpatialKeywordDatabase& db,
    std::span<const StoredObject> objects) {
  WorkloadConfig config;
  config.seed = 23;
  config.num_queries = 24;
  config.num_keywords = 2;
  config.k = 5;
  return GenerateWorkload(objects, db.tokenizer(), config);
}

// Everything in QueryStats except wall-clock time, which legitimately
// varies run to run.
void ExpectSameProfile(const QueryStats& a, const QueryStats& b, size_t i) {
  EXPECT_EQ(a.objects_loaded, b.objects_loaded) << "query " << i;
  EXPECT_EQ(a.false_positives, b.false_positives) << "query " << i;
  EXPECT_EQ(a.nodes_visited, b.nodes_visited) << "query " << i;
  EXPECT_EQ(a.entries_pruned, b.entries_pruned) << "query " << i;
  EXPECT_EQ(a.entries_pruned_per_level, b.entries_pruned_per_level)
      << "query " << i;
  EXPECT_EQ(a.io, b.io) << "query " << i;
}

void ExpectSameResults(const std::vector<QueryResult>& a,
                       const std::vector<QueryResult>& b, size_t i) {
  ASSERT_EQ(a.size(), b.size()) << "query " << i;
  for (size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].ref, b[r].ref) << "query " << i << " rank " << r;
    EXPECT_EQ(a[r].distance, b[r].distance) << "query " << i << " rank " << r;
  }
}

TEST(BatchExecutorTest, PerQueryProfilesIdenticalAtEveryThreadCount) {
  std::vector<StoredObject> objects;
  auto db = BuildDatabase(&objects);
  std::vector<DistanceFirstQuery> queries = MakeWorkload(*db, objects);

  BatchExecutorOptions options;
  options.num_threads = 1;
  options.algorithm = Algorithm::kIr2;
  BatchExecutor serial(db.get(), options);
  BatchResults base = serial.Run(queries).value();
  ASSERT_EQ(base.results.size(), queries.size());

  for (size_t threads : {2u, 8u}) {
    options.num_threads = threads;
    BatchExecutor executor(db.get(), options);
    BatchResults batch = executor.Run(queries).value();
    ASSERT_EQ(batch.results.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameResults(base.results[i], batch.results[i], i);
      ExpectSameProfile(base.per_query[i], batch.per_query[i], i);
    }
  }
}

TEST(BatchExecutorTest, MatchesHandRolledSerialColdRuns) {
  std::vector<StoredObject> objects;
  auto db = BuildDatabase(&objects);
  std::vector<DistanceFirstQuery> queries = MakeWorkload(*db, objects);

  BatchExecutorOptions options;
  options.num_threads = 4;
  options.algorithm = Algorithm::kIr2;
  BatchExecutor executor(db.get(), options);
  BatchResults batch = executor.Run(queries).value();

  // Reference: one query at a time on this thread, under the exact cold
  // protocol the executor's workers use.
  const Ir2Tree* tree = db->ir2_tree();
  BlockDevice* tree_device = tree->pool()->device();
  BlockDevice* object_device = db->object_store().device();
  BufferPool reference_pool(tree_device, db->options().pool_blocks);
  ScopedReadPool scope(tree, &reference_pool);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(reference_pool.Clear().ok());
    tree_device->ResetThreadCursor();
    object_device->ResetThreadCursor();
    IoStats before = tree_device->thread_stats();
    before += object_device->thread_stats();
    QueryStats stats;
    std::vector<QueryResult> results =
        Ir2TopK(*tree, db->object_store(), db->tokenizer(), queries[i], &stats)
            .value();
    IoStats after = tree_device->thread_stats();
    after += object_device->thread_stats();
    stats.io = after - before;

    ExpectSameResults(results, batch.results[i], i);
    ExpectSameProfile(stats, batch.per_query[i], i);
    // Every query costs something: the profiles are non-trivially equal.
    EXPECT_GT(batch.per_query[i].io.TotalAccesses(), 0u) << "query " << i;
    EXPECT_GT(batch.per_query[i].seconds, 0.0) << "query " << i;
  }
}

TEST(BatchExecutorTest, RunsOverMir2Tree) {
  std::vector<StoredObject> objects;
  auto db = BuildDatabase(&objects);
  std::vector<DistanceFirstQuery> queries = MakeWorkload(*db, objects);

  BatchExecutorOptions options;
  options.num_threads = 1;
  options.algorithm = Algorithm::kMir2;
  BatchExecutor serial(db.get(), options);
  BatchResults base = serial.Run(queries).value();
  options.num_threads = 8;
  BatchExecutor parallel(db.get(), options);
  BatchResults batch = parallel.Run(queries).value();
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResults(base.results[i], batch.results[i], i);
    ExpectSameProfile(base.per_query[i], batch.per_query[i], i);
  }
}

TEST(BatchExecutorTest, AggregateSumsPerQueryStats) {
  std::vector<StoredObject> objects;
  auto db = BuildDatabase(&objects);
  std::vector<DistanceFirstQuery> queries = MakeWorkload(*db, objects);

  BatchExecutor executor(
      db.get(), BatchExecutorOptions{.num_threads = 4,
                                     .algorithm = Algorithm::kIr2});
  BatchResults batch = executor.Run(queries).value();
  QueryStats total = batch.Aggregate();
  QueryStats expected;
  for (const QueryStats& stats : batch.per_query) {
    expected += stats;
  }
  EXPECT_EQ(total.objects_loaded, expected.objects_loaded);
  EXPECT_EQ(total.nodes_visited, expected.nodes_visited);
  EXPECT_EQ(total.io, expected.io);
  EXPECT_GT(total.io.TotalAccesses(), 0u);
}

TEST(BatchExecutorTest, EmptyBatchSucceeds) {
  std::vector<StoredObject> objects;
  auto db = BuildDatabase(&objects);
  BatchExecutor executor(db.get(),
                         BatchExecutorOptions{.algorithm = Algorithm::kIr2});
  BatchResults batch =
      executor.Run(std::span<const DistanceFirstQuery>()).value();
  EXPECT_TRUE(batch.results.empty());
  EXPECT_TRUE(batch.per_query.empty());
}

}  // namespace
}  // namespace ir2
