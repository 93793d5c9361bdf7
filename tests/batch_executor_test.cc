#include "core/batch_executor.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/database.h"
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

  // Reference: one query at a time on this thread through the database's
  // own Query, under the exact cold protocol the executor's workers use: a
  // private pool over the tree's device, handed down as the tree's read
  // pool in the query context.
  const Ir2Tree* tree = db->ir2_tree();
  BlockDevice* tree_device = tree->pool()->device();
  BlockDevice* object_device = db->object_store().device();
  BufferPool reference_pool(tree_device, db->options().pool_blocks);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(reference_pool.Clear().ok());
    reference_pool.ResetThreadCursor();
    const IoStats tree_before = tree_device->thread_stats();
    const IoStats object_before = object_device->thread_stats();
    QueryContext ctx;
    ctx.read_pools[static_cast<size_t>(Structure::kIr2)] = &reference_pool;
    std::vector<QueryResult> results =
        db->Query(queries[i], Algorithm::kIr2, ctx).value();
    const IoStats tree_io = tree_device->thread_stats() - tree_before;
    QueryStats stats = ctx.stats;
    stats.io = tree_io + (object_device->thread_stats() - object_before);
    EXPECT_EQ(ctx.stats.io, stats.io) << "query " << i;
    // Every node block the query read came through the reference pool.
    EXPECT_GT(tree_io.TotalReads(), 0u) << "query " << i;
    EXPECT_EQ(reference_pool.Stats().misses, tree_io.TotalReads())
        << "query " << i;

    ExpectSameResults(results, batch.results[i], i);
    ExpectSameProfile(stats, batch.per_query[i], i);
    // Every query costs something: the profiles are non-trivially equal.
    EXPECT_GT(batch.per_query[i].io.TotalAccesses(), 0u) << "query " << i;
    EXPECT_GT(batch.per_query[i].seconds, 0.0) << "query " << i;
  }
}

TEST(BatchExecutorTest, ColdRunLeavesTreePoolsAndCallerRoutingAlone) {
  std::vector<StoredObject> objects;
  auto db = BuildDatabase(&objects);
  std::vector<DistanceFirstQuery> queries = MakeWorkload(*db, objects);
  ASSERT_TRUE(db->DropCaches().ok());

  // Workers read the trees through their private pools only: no tree's
  // own pool sees a request.
  std::vector<BufferPoolStats> before;
  for (const RTreeBase* tree : db->trees()) {
    before.push_back(tree->pool()->Stats());
  }
  BatchExecutorOptions options;
  options.num_threads = 4;
  options.algorithm = Algorithm::kIr2;
  StatusOr<BatchResults> batch = BatchExecutor(db.get(), options).Run(queries);
  ASSERT_TRUE(batch.ok());
  EXPECT_GT(batch.value().pool_stats.misses, 0u);
  // One worker runs on the calling thread itself.
  options.num_threads = 1;
  batch = BatchExecutor(db.get(), options).Run(queries);
  ASSERT_TRUE(batch.ok());
  EXPECT_GT(batch.value().pool_stats.misses, 0u);
  const std::vector<RTreeBase*> trees = db->trees();
  for (size_t t = 0; t < trees.size(); ++t) {
    const BufferPoolStats after = trees[t]->pool()->Stats();
    EXPECT_EQ(after.hits, before[t].hits) << "tree " << t;
    EXPECT_EQ(after.misses, before[t].misses) << "tree " << t;
    EXPECT_EQ(after.evictions, before[t].evictions) << "tree " << t;
  }

  // A plain query on the calling thread afterwards reads through the tree's
  // own pool: no worker's routing outlives the batch.
  const BufferPool* own_pool = db->ir2_tree()->pool();
  const IoStats own_before = own_pool->thread_stats();
  QueryStats stats;
  ASSERT_TRUE(db->Query(queries[0], Algorithm::kIr2, &stats).ok());
  const IoStats own_reads = own_pool->thread_stats() - own_before;
  EXPECT_GT(own_reads.TotalReads(), 0u);
  EXPECT_GT(own_pool->Stats().misses, 0u);
  EXPECT_GT(stats.nodes_visited, 0u);
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
