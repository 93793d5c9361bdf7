#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "core/ir2_tree.h"
#include "rtree/incremental_nn.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using testing_util::BruteForceDistanceFirst;
using testing_util::RandomObjects;
using testing_util::ResultIds;

std::vector<RTreeBase::BulkObject> RandomItems(uint64_t seed, uint32_t n) {
  Rng rng(seed);
  std::vector<RTreeBase::BulkObject> items;
  items.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    items.push_back(RTreeBase::BulkObject{
        i, Rect::ForPoint(
               Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000))),
        {}});
  }
  return items;
}

Status BulkLoadPlain(RTree* tree,
                     const std::vector<RTreeBase::BulkObject>& items,
                     double fill = 0.8) {
  return tree->BulkLoad(items, fill);
}

TEST(BulkLoadTest, EmptyIsNoop) {
  MemoryBlockDevice device;
  BufferPool pool(&device, 256);
  RTreeOptions options;
  options.capacity_override = 8;
  RTree tree(&pool, options);
  ASSERT_TRUE(tree.Init().ok());
  ASSERT_TRUE(BulkLoadPlain(&tree, {}).ok());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(BulkLoadTest, RequiresEmptyTree) {
  MemoryBlockDevice device;
  BufferPool pool(&device, 256);
  RTreeOptions options;
  options.capacity_override = 8;
  RTree tree(&pool, options);
  ASSERT_TRUE(tree.Init().ok());
  ASSERT_TRUE(tree.Insert(1, Rect::ForPoint(Point(1, 1))).ok());
  EXPECT_EQ(BulkLoadPlain(&tree, RandomItems(1, 10)).code(),
            StatusCode::kFailedPrecondition);
}

class BulkLoadSweep : public ::testing::TestWithParam<
                          std::tuple<uint32_t, uint32_t, double>> {};

TEST_P(BulkLoadSweep, InvariantsAndNNOrder) {
  const auto [capacity, n, fill] = GetParam();
  MemoryBlockDevice device;
  BufferPool pool(&device, 4096);
  RTreeOptions options;
  options.capacity_override = capacity;
  RTree tree(&pool, options);
  ASSERT_TRUE(tree.Init().ok());

  std::vector<RTreeBase::BulkObject> items = RandomItems(100 + capacity, n);
  std::vector<Point> points;
  for (const auto& item : items) points.push_back(item.rect.lo());
  ASSERT_TRUE(BulkLoadPlain(&tree, items, fill).ok());

  EXPECT_EQ(tree.size(), n);
  ASSERT_TRUE(tree.Validate().ok());

  // NN enumeration matches brute force by distance.
  Point query(250, 750);
  std::vector<uint32_t> order(points.size());
  for (uint32_t i = 0; i < points.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return DistanceSquared(points[a], query) <
           DistanceSquared(points[b], query);
  });
  IncrementalNNCursor cursor(&tree, query);
  for (uint32_t rank = 0; rank < n; ++rank) {
    auto neighbor = cursor.Next().value();
    ASSERT_TRUE(neighbor.has_value()) << rank;
    ASSERT_DOUBLE_EQ(Distance(points[neighbor->ref], query),
                     Distance(points[order[rank]], query));
  }
  EXPECT_FALSE(cursor.Next().value().has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BulkLoadSweep,
    ::testing::Values(std::make_tuple(4u, 1u, 0.8),
                      std::make_tuple(4u, 7u, 0.8),
                      std::make_tuple(4u, 333u, 0.8),
                      std::make_tuple(8u, 500u, 1.0),
                      std::make_tuple(16u, 1000u, 0.8),
                      std::make_tuple(113u, 2000u, 0.7),
                      // Group-boundary edge cases.
                      std::make_tuple(8u, 64u, 0.8),
                      std::make_tuple(8u, 65u, 0.8)));

TEST(BulkLoadTest, LeavesPackedNearFillFraction) {
  MemoryBlockDevice device;
  BufferPool pool(&device, 4096);
  RTreeOptions options;
  options.capacity_override = 10;
  RTree tree(&pool, options);
  ASSERT_TRUE(tree.Init().ok());
  ASSERT_TRUE(BulkLoadPlain(&tree, RandomItems(5, 800), 0.8).ok());

  // Count leaf nodes: 800 objects at 8 per leaf -> 100 leaves.
  std::vector<BlockId> stack = {tree.root_id()};
  uint32_t leaves = 0;
  while (!stack.empty()) {
    Node node = tree.LoadNode(stack.back()).value();
    stack.pop_back();
    if (node.is_leaf()) {
      ++leaves;
      EXPECT_GE(node.entries.size(), tree.min_fill());
    } else {
      for (const Entry& entry : node.entries) stack.push_back(entry.ref);
    }
  }
  EXPECT_GE(leaves, 95u);
  EXPECT_LE(leaves, 105u);
}

TEST(BulkLoadTest, MixedBulkThenIncrementalUpdates) {
  MemoryBlockDevice device;
  BufferPool pool(&device, 4096);
  RTreeOptions options;
  options.capacity_override = 6;
  RTree tree(&pool, options);
  ASSERT_TRUE(tree.Init().ok());
  std::vector<RTreeBase::BulkObject> items = RandomItems(6, 300);
  ASSERT_TRUE(BulkLoadPlain(&tree, items).ok());

  // Incremental inserts on top of the packed tree.
  Rng rng(7);
  for (uint32_t i = 300; i < 400; ++i) {
    ASSERT_TRUE(tree.Insert(i, Rect::ForPoint(Point(rng.NextDouble(0, 1000),
                                                    rng.NextDouble(0, 1000))))
                    .ok());
  }
  // Deletes of bulk-loaded items.
  for (uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Delete(items[i].ref, items[i].rect).value());
  }
  EXPECT_EQ(tree.size(), 300u);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(BulkLoadTest, DatabaseBulkMatchesIncrementalResults) {
  std::vector<StoredObject> objects = RandomObjects(8, 400, 30, 5);
  DatabaseOptions incremental_options;
  incremental_options.tree_options.capacity_override = 8;
  incremental_options.ir2_signature = SignatureConfig{128, 3};
  DatabaseOptions bulk_options = incremental_options;
  bulk_options.bulk_load = true;

  auto incremental =
      SpatialKeywordDatabase::Build(objects, incremental_options).value();
  auto bulk = SpatialKeywordDatabase::Build(objects, bulk_options).value();

  ASSERT_TRUE(incremental->rtree()->Validate().ok());
  ASSERT_TRUE(bulk->rtree()->Validate().ok());
  ASSERT_TRUE(bulk->ir2_tree()->Validate().ok());
  ASSERT_TRUE(bulk->mir2_tree()->Validate().ok());

  Rng rng(9);
  for (int iter = 0; iter < 10; ++iter) {
    DistanceFirstQuery query;
    query.point = Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
    query.keywords = {"w" + std::to_string(rng.NextUint64(30))};
    query.k = 10;
    std::vector<uint32_t> expected = BruteForceDistanceFirst(
        objects, query.point, query.keywords, query.k);
    EXPECT_EQ(ResultIds(bulk->QueryRTree(query).value()), expected);
    EXPECT_EQ(ResultIds(bulk->QueryIr2(query).value()), expected);
    EXPECT_EQ(ResultIds(bulk->QueryMir2(query).value()), expected);
    EXPECT_EQ(ResultIds(incremental->QueryIr2(query).value()), expected);
  }
}

TEST(BulkLoadTest, PackedTreeIsDenserThanIncremental) {
  std::vector<RTreeBase::BulkObject> items = RandomItems(10, 3000);

  MemoryBlockDevice bulk_device, incr_device;
  BufferPool bulk_pool(&bulk_device, 1 << 14);
  BufferPool incr_pool(&incr_device, 1 << 14);
  RTreeOptions options;
  options.capacity_override = 16;

  RTree bulk_tree(&bulk_pool, options);
  ASSERT_TRUE(bulk_tree.Init().ok());
  ASSERT_TRUE(BulkLoadPlain(&bulk_tree, items, 0.9).ok());

  RTree incr_tree(&incr_pool, options);
  ASSERT_TRUE(incr_tree.Init().ok());
  for (const auto& item : items) {
    ASSERT_TRUE(incr_tree.Insert(item.ref, item.rect).ok());
  }
  // STR packing at 90% fill uses fewer blocks than quadratic-split inserts
  // (which average ~60-70% fill).
  EXPECT_LT(bulk_device.NumBlocks(), incr_device.NumBlocks());
}

TEST(BulkLoadTest, ThreeDimensionalBulkLoad) {
  MemoryBlockDevice device;
  BufferPool pool(&device, 4096);
  RTreeOptions options;
  options.dims = 3;
  options.capacity_override = 8;
  RTree tree(&pool, options);
  ASSERT_TRUE(tree.Init().ok());

  Rng rng(11);
  std::vector<RTreeBase::BulkObject> items;
  for (uint32_t i = 0; i < 500; ++i) {
    std::vector<double> coords = {rng.NextDouble(0, 100),
                                  rng.NextDouble(0, 100),
                                  rng.NextDouble(0, 100)};
    items.push_back(RTreeBase::BulkObject{
        i, Rect::ForPoint(Point(std::span<const double>(coords))), {}});
  }
  ASSERT_TRUE(BulkLoadPlain(&tree, items).ok());
  EXPECT_EQ(tree.size(), 500u);
  EXPECT_TRUE(tree.Validate().ok());
}

}  // namespace
}  // namespace ir2
