// NodeCache semantics, from unit level (LRU eviction, pinning, version
// invalidation) up to the two guarantees the warm-path layer rests on:
// results served through the cache are identical to uncached results even
// across mutations (stale reads are impossible), and the cold regime with
// the cache disabled keeps its per-query determinism.

#include "rtree/node_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/database.h"
#include "core/ir2_search.h"
#include "datagen/workload.h"
#include "rtree/incremental_nn.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using testing_util::RandomObjects;
using testing_util::ResultIds;

NodeCache::NodeRef MakeNode(BlockId id, uint32_t level) {
  auto node = std::make_shared<Node>();
  node->id = id;
  node->level = level;
  return node;
}

TEST(NodeCacheUnitTest, LruEvictsLeastRecentlyUsed) {
  NodeCacheOptions options;
  options.capacity_nodes = 2;
  options.num_shards = 1;
  NodeCache cache(options);

  cache.Insert(1, 0, MakeNode(1, 0));
  cache.Insert(2, 0, MakeNode(2, 0));
  EXPECT_NE(cache.Lookup(1, 0), nullptr);  // 1 becomes MRU.
  cache.Insert(3, 0, MakeNode(3, 0));      // Evicts 2.

  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.Lookup(2, 0), nullptr);
  EXPECT_NE(cache.Lookup(3, 0), nullptr);
  NodeCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(NodeCacheUnitTest, PinnedLevelsSurviveCapacityPressure) {
  NodeCacheOptions options;
  options.capacity_nodes = 1;
  options.num_shards = 1;
  options.pin_min_level = 1;
  NodeCache cache(options);

  // Inner nodes pin regardless of the 1-node LRU capacity.
  for (BlockId id = 10; id < 20; ++id) {
    cache.Insert(id, 0, MakeNode(id, 1));
  }
  // Leaves churn through the single LRU slot.
  cache.Insert(100, 0, MakeNode(100, 0));
  cache.Insert(101, 0, MakeNode(101, 0));

  for (BlockId id = 10; id < 20; ++id) {
    EXPECT_NE(cache.Lookup(id, 0), nullptr) << "pinned node " << id;
  }
  EXPECT_EQ(cache.Lookup(100, 0), nullptr);
  EXPECT_NE(cache.Lookup(101, 0), nullptr);
  EXPECT_EQ(cache.Stats().pinned, 10u);
}

TEST(NodeCacheUnitTest, VersionBumpDropsStaleContents) {
  NodeCacheOptions options;
  options.num_shards = 1;
  options.pin_min_level = 1;
  NodeCache cache(options);

  cache.Insert(1, /*version=*/0, MakeNode(1, 0));
  cache.Insert(2, /*version=*/0, MakeNode(2, 1));  // Pinned.
  EXPECT_NE(cache.Lookup(1, 0), nullptr);

  // The tree mutated: everything decoded at version 0 is unservable.
  EXPECT_EQ(cache.Lookup(1, /*version=*/1), nullptr);
  EXPECT_EQ(cache.Lookup(2, /*version=*/1), nullptr);
  EXPECT_EQ(cache.Stats().invalidations, 2u);

  // Re-inserted at the new version, it serves again.
  cache.Insert(1, 1, MakeNode(1, 0));
  EXPECT_NE(cache.Lookup(1, 1), nullptr);
}

TEST(NodeCacheUnitTest, ClearDropsContentsAndResetsCounters) {
  NodeCache cache;
  cache.Insert(1, 0, MakeNode(1, 0));
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  NodeCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);  // The post-Clear lookup.
  EXPECT_EQ(stats.pinned, 0u);
}

// A plain R-Tree with a few hundred points, for tree-level cache tests.
struct CachedRTree {
  MemoryBlockDevice device;
  BufferPool pool{&device, 1 << 14};
  RTree tree{&pool, RTreeOptions{}};
  NodeCache cache;

  explicit CachedRTree(uint32_t n) {
    IR2_CHECK_OK(tree.Init());
    Rng rng(42);
    for (uint32_t i = 0; i < n; ++i) {
      IR2_CHECK_OK(tree.Insert(
          i, Rect::ForPoint(
                 Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)))));
    }
    tree.SetNodeCache(&cache);
  }

  ~CachedRTree() { tree.SetNodeCache(nullptr); }

  std::vector<ObjectRef> NearestRefs(const Point& point, size_t k) {
    IncrementalNNCursor<AcceptAllEntries> cursor(&tree, point);
    std::vector<ObjectRef> refs;
    while (refs.size() < k) {
      std::optional<Neighbor> neighbor = cursor.Next().value();
      if (!neighbor.has_value()) break;
      refs.push_back(neighbor->ref);
    }
    return refs;
  }
};

TEST(NodeCacheTreeTest, InsertInvalidatesCachedNodes) {
  CachedRTree t(400);
  const Point query(500, 500);
  std::vector<ObjectRef> before = t.NearestRefs(query, 5);
  ASSERT_EQ(before.size(), 5u);
  ASSERT_GT(t.cache.Stats().misses, 0u);  // The traversal populated it.

  // A new object exactly at the query point must surface first; a stale
  // cached leaf would hide it.
  const ObjectRef new_ref = 9999;
  ASSERT_TRUE(t.tree.Insert(new_ref, Rect::ForPoint(query)).ok());
  std::vector<ObjectRef> after = t.NearestRefs(query, 5);
  ASSERT_EQ(after.size(), 5u);
  EXPECT_EQ(after[0], new_ref);
  EXPECT_GT(t.cache.Stats().invalidations, 0u);
}

TEST(NodeCacheTreeTest, DeleteInvalidatesCachedNodes) {
  CachedRTree t(400);
  const Point query(500, 500);
  std::vector<ObjectRef> before = t.NearestRefs(query, 1);
  ASSERT_EQ(before.size(), 1u);

  // Deleting the nearest object must remove it from subsequent results even
  // though the leaf that held it is cached.
  IncrementalNNCursor<AcceptAllEntries> locate(&t.tree, query);
  std::optional<Neighbor> nearest = locate.Next().value();
  ASSERT_TRUE(nearest.has_value());
  ASSERT_TRUE(t.tree.Delete(nearest->ref, nearest->rect).value());

  std::vector<ObjectRef> after = t.NearestRefs(query, 1);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(after[0], before[0]);
}

TEST(NodeCacheTreeTest, CacheHitsSkipNodeDecodes) {
  CachedRTree t(400);
  const Point query(500, 500);
  (void)t.NearestRefs(query, 10);  // Populate.
  const uint64_t decodes_before = RTreeBase::TotalNodeDecodes();
  (void)t.NearestRefs(query, 10);  // Fully cached traversal.
  EXPECT_EQ(RTreeBase::TotalNodeDecodes(), decodes_before);
  EXPECT_GT(t.cache.Stats().hits, 0u);
}

class NodeCacheQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    objects_ = RandomObjects(77, 500, 40, 6);
    WorkloadConfig config;
    config.seed = 3;
    config.num_queries = 24;
    config.num_keywords = 2;
    config.k = 8;
    DatabaseOptions options;
    options.tree_options.capacity_override = 16;
    options.ir2_signature = SignatureConfig{128, 3};
    options.cold_queries = false;  // Warm serving regime.
    db_ = SpatialKeywordDatabase::Build(objects_, options).value();
    queries_ = GenerateWorkload(objects_, db_->tokenizer(), config);
  }

  std::vector<StoredObject> objects_;
  std::unique_ptr<SpatialKeywordDatabase> db_;
  std::vector<DistanceFirstQuery> queries_;
};

TEST_F(NodeCacheQueryTest, WarmResultsIdenticalToCold) {
  // Uncached reference.
  std::vector<std::vector<uint32_t>> expected;
  for (const DistanceFirstQuery& query : queries_) {
    expected.push_back(ResultIds(db_->QueryIr2(query).value()));
  }

  NodeCache cache;
  db_->ir2_tree()->SetNodeCache(&cache);
  // Two passes: the first populates the cache, the second is served from
  // it. Both must reproduce the uncached results exactly.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      EXPECT_EQ(ResultIds(db_->QueryIr2(queries_[i]).value()), expected[i])
          << "pass " << pass << " query " << i;
    }
  }
  EXPECT_GT(cache.Stats().hits, 0u);
  db_->ir2_tree()->SetNodeCache(nullptr);
}

TEST_F(NodeCacheQueryTest, ColdRegimeDeterministicWithCacheDisabled) {
  // Rebuild in the cold regime (the default): with no cache attached,
  // repeating a query must reproduce its QueryStats field for field —
  // the property the cold-regime disk-access figures rest on.
  DatabaseOptions options;
  options.tree_options.capacity_override = 16;
  options.ir2_signature = SignatureConfig{128, 3};
  ASSERT_TRUE(options.cold_queries);
  auto db = SpatialKeywordDatabase::Build(objects_, options).value();
  ASSERT_EQ(db->ir2_tree()->node_cache(), nullptr);
  for (const DistanceFirstQuery& query : queries_) {
    QueryStats first, second;
    ASSERT_TRUE(db->QueryIr2(query, &first).ok());
    ASSERT_TRUE(db->QueryIr2(query, &second).ok());
    EXPECT_EQ(first.io, second.io);
    EXPECT_EQ(first.nodes_visited, second.nodes_visited);
    EXPECT_EQ(first.objects_loaded, second.objects_loaded);
    EXPECT_EQ(first.false_positives, second.false_positives);
    EXPECT_EQ(first.entries_pruned, second.entries_pruned);
  }
}

}  // namespace
}  // namespace ir2
