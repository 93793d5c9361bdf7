#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/random.h"
#include "core/ir2_search.h"
#include "core/mir2_tree.h"
#include "storage/block_device.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using testing_util::BruteForceDistanceFirst;
using testing_util::RandomObjects;
using testing_util::ResultIds;

// Writes `objects` into an object store and builds a MIR2-Tree over them.
struct Mir2Fixture {
  Mir2Fixture(const std::vector<StoredObject>& objects, uint32_t capacity,
              MultilevelScheme scheme, bool deferred)
      : object_device(), tree_device(), pool(&tree_device, 4096) {
    ObjectStoreWriter writer(&object_device);
    for (const StoredObject& object : objects) {
      refs.push_back(writer.Append(object).value());
    }
    IR2_CHECK_OK(writer.Finish());
    store = std::make_unique<ObjectStore>(&object_device,
                                          writer.bytes_written());
    RTreeOptions options;
    options.capacity_override = capacity;
    options.defer_inner_payload_maintenance = deferred;
    tree = std::make_unique<Mir2Tree>(&pool, options, std::move(scheme),
                                      store.get(), &tokenizer);
    IR2_CHECK_OK(tree->Init());
    for (size_t i = 0; i < objects.size(); ++i) {
      std::vector<std::string> words =
          tokenizer.DistinctTokens(objects[i].text);
      IR2_CHECK_OK(tree->InsertObject(
          refs[i], Rect::ForPoint(Point(objects[i].coords)),
          testing_util::HashWords(words)));
    }
    if (deferred) {
      IR2_CHECK_OK(tree->RecomputeAllSignatures());
    }
  }

  MemoryBlockDevice object_device;
  MemoryBlockDevice tree_device;
  BufferPool pool;
  Tokenizer tokenizer;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<Mir2Tree> tree;
  std::vector<ObjectRef> refs;
};

MultilevelScheme ThreeLevelScheme() {
  MultilevelScheme scheme;
  scheme.per_level = {SignatureConfig{64, 3}, SignatureConfig{128, 3},
                      SignatureConfig{256, 3}};
  return scheme;
}

TEST(MultilevelSchemeTest, ForLevelClampsToLast) {
  MultilevelScheme scheme = ThreeLevelScheme();
  EXPECT_EQ(scheme.ForLevel(0).bits, 64u);
  EXPECT_EQ(scheme.ForLevel(2).bits, 256u);
  EXPECT_EQ(scheme.ForLevel(9).bits, 256u);
}

TEST(MultilevelSchemeTest, DerivedWidthsGrowAndSaturate) {
  MultilevelScheme scheme = DeriveMultilevelScheme(
      /*leaf_bits=*/1512, /*hashes_per_word=*/3,
      /*avg_distinct_words_per_object=*/349.0, /*vocabulary_size=*/53906,
      /*node_capacity=*/113, /*expected_fill=*/0.7, /*max_levels=*/5);
  ASSERT_EQ(scheme.per_level.size(), 5u);
  EXPECT_EQ(scheme.per_level[0].bits, 1512u);
  for (size_t i = 1; i < scheme.per_level.size(); ++i) {
    EXPECT_GE(scheme.per_level[i].bits, scheme.per_level[i - 1].bits);
  }
  // Capped at the all-vocabulary optimum.
  uint32_t cap = OptimalSignatureBits(53906, 3);
  EXPECT_LE(scheme.per_level.back().bits, cap);
  // The top levels should be close to saturation for this dataset.
  EXPECT_GT(scheme.per_level.back().bits, scheme.per_level[0].bits * 10);
}

TEST(Mir2TreeTest, PerLevelPayloadBytes) {
  std::vector<StoredObject> objects = RandomObjects(21, 10, 20, 4);
  Mir2Fixture fx(objects, 4, ThreeLevelScheme(), /*deferred=*/false);
  EXPECT_EQ(fx.tree->PayloadBytes(0), 8u);
  EXPECT_EQ(fx.tree->PayloadBytes(1), 16u);
  EXPECT_EQ(fx.tree->PayloadBytes(2), 32u);
  EXPECT_EQ(fx.tree->PayloadBytes(7), 32u);
}

// Incremental (non-deferred) maintenance must produce a queryable tree with
// correct results.
TEST(Mir2TreeTest, IncrementalMaintenanceGivesCorrectResults) {
  std::vector<StoredObject> objects = RandomObjects(22, 150, 30, 5);
  Mir2Fixture fx(objects, 4, ThreeLevelScheme(), /*deferred=*/false);
  ASSERT_TRUE(fx.tree->Validate().ok());
  EXPECT_GE(fx.tree->height(), 2u);

  for (int w = 0; w < 30; w += 5) {
    DistanceFirstQuery query;
    query.point = Point(500, 500);
    query.keywords = {"w" + std::to_string(w)};
    query.k = 10;
    std::vector<QueryResult> results =
        Ir2TopK(*fx.tree, *fx.store, fx.tokenizer, query).value();
    std::vector<uint32_t> expected = BruteForceDistanceFirst(
        objects, query.point, query.keywords, query.k);
    EXPECT_EQ(ResultIds(results), expected) << "keyword w" << w;
  }
}

// Deferred bulk load + one recompute pass must agree with the incremental
// path's query results.
TEST(Mir2TreeTest, DeferredBulkLoadMatchesIncremental) {
  std::vector<StoredObject> objects = RandomObjects(23, 200, 25, 4);
  Mir2Fixture incremental(objects, 5, ThreeLevelScheme(), false);
  Mir2Fixture deferred(objects, 5, ThreeLevelScheme(), true);

  for (int w = 0; w < 25; w += 3) {
    DistanceFirstQuery query;
    query.point = Point(250, 750);
    query.keywords = {"w" + std::to_string(w)};
    query.k = 8;
    auto a = Ir2TopK(*incremental.tree, *incremental.store,
                     incremental.tokenizer, query)
                 .value();
    auto b = Ir2TopK(*deferred.tree, *deferred.store, deferred.tokenizer,
                     query)
                 .value();
    EXPECT_EQ(ResultIds(a), ResultIds(b)) << "keyword w" << w;
  }
}

// The paper's maintenance-cost claim: incremental MIR2 updates access
// underlying objects (splits/deletes recompute from the objects), the
// deferred bulk path touches each object roughly once per fixup pass.
TEST(Mir2TreeTest, MaintenanceObjectLoadsAreCounted) {
  std::vector<StoredObject> objects = RandomObjects(24, 120, 20, 4);
  Mir2Fixture incremental(objects, 4, ThreeLevelScheme(), false);
  EXPECT_GT(incremental.tree->maintenance_object_loads(), objects.size())
      << "splits should have rescanned subtrees";

  Mir2Fixture deferred(objects, 4, ThreeLevelScheme(), true);
  EXPECT_LE(deferred.tree->maintenance_object_loads(),
            objects.size() * 2)  // One fixup pass.
      << "deferred build should load each object about once";
}

TEST(Mir2TreeTest, DeleteRecomputesFromObjects) {
  std::vector<StoredObject> objects = RandomObjects(25, 100, 15, 3);
  Mir2Fixture fx(objects, 4, ThreeLevelScheme(), /*deferred=*/false);
  uint64_t loads_before = fx.tree->maintenance_object_loads();
  for (uint32_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(fx.tree
                    ->DeleteObject(fx.refs[i],
                                   Rect::ForPoint(Point(objects[i].coords)))
                    .value());
  }
  ASSERT_TRUE(fx.tree->Validate().ok());
  EXPECT_GT(fx.tree->maintenance_object_loads(), loads_before);

  // Deleted objects are gone; survivors still found.
  DistanceFirstQuery query;
  query.point = Point(500, 500);
  query.keywords = {};
  query.k = 100;
  std::vector<QueryResult> results =
      Ir2TopK(*fx.tree, *fx.store, fx.tokenizer, query).value();
  EXPECT_EQ(results.size(), 70u);
  std::vector<uint32_t> id_list = ResultIds(results);
  std::set<uint32_t> ids(id_list.begin(), id_list.end());
  for (uint32_t i = 0; i < 30; ++i) EXPECT_FALSE(ids.contains(i));
  for (uint32_t i = 30; i < 100; ++i) EXPECT_TRUE(ids.contains(i));
}

// Wider top-level signatures should prune at least as well as the uniform
// tree at the top (the MIR2 design rationale).
TEST(Mir2TreeTest, RareWordPrunedAtTopLevel) {
  std::vector<StoredObject> objects = RandomObjects(26, 300, 20, 6);
  // Top widths sized for the whole corpus's distinct words (~320 including
  // the per-object name tokens) so root signatures are not saturated.
  MultilevelScheme scheme;
  scheme.per_level = {SignatureConfig{64, 3}, SignatureConfig{512, 3},
                      SignatureConfig{2048, 3}, SignatureConfig{2048, 3}};
  Mir2Fixture fx(objects, 4, scheme, /*deferred=*/true);
  ASSERT_GE(fx.tree->height(), 3u);
  // A word absent from the corpus: the search must touch very few nodes.
  DistanceFirstQuery query;
  query.point = Point(1, 1);
  query.keywords = {"absentword"};
  query.k = 5;
  QueryStats stats;
  std::vector<QueryResult> results =
      Ir2TopK(*fx.tree, *fx.store, fx.tokenizer, query, &stats).value();
  EXPECT_TRUE(results.empty());
  // With 2048-bit top signatures, root-level false positives are rare: the
  // search expands the root and at most a couple of children.
  EXPECT_LE(stats.nodes_visited, 5u);
}

}  // namespace
}  // namespace ir2
