#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "core/ir2_search.h"
#include "core/ir2_tree.h"
#include "rtree/incremental_nn.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/object_store.h"
#include "tests/test_util.h"
#include "text/tokenizer.h"

namespace ir2 {
namespace {

// The paper notes "our method can be applied to arbitrarily-shaped and
// multi-dimensional objects and not just points on the two dimensions".
// These tests exercise 3-d points and 2-d extended (rectangle) objects
// through the full stack.

Point RandomPoint(Rng& rng, uint32_t dims) {
  std::vector<double> coords(dims);
  for (double& c : coords) c = rng.NextDouble(0, 1000);
  return Point(std::span<const double>(coords));
}

TEST(MultiDimTest, ThreeDimensionalNNMatchesBruteForce) {
  MemoryBlockDevice device;
  BufferPool pool(&device, 4096);
  RTreeOptions options;
  options.dims = 3;
  options.capacity_override = 8;
  RTree tree(&pool, options);
  ASSERT_TRUE(tree.Init().ok());

  Rng rng(3);
  std::vector<Point> points;
  for (uint32_t i = 0; i < 300; ++i) {
    points.push_back(RandomPoint(rng, 3));
    ASSERT_TRUE(tree.Insert(i, Rect::ForPoint(points.back())).ok());
  }
  ASSERT_TRUE(tree.Validate().ok());

  Point query = RandomPoint(rng, 3);
  std::vector<uint32_t> expected(points.size());
  for (uint32_t i = 0; i < points.size(); ++i) expected[i] = i;
  std::sort(expected.begin(), expected.end(), [&](uint32_t a, uint32_t b) {
    return DistanceSquared(points[a], query) <
           DistanceSquared(points[b], query);
  });

  IncrementalNNCursor cursor(&tree, query);
  for (uint32_t rank = 0; rank < points.size(); ++rank) {
    auto neighbor = cursor.Next().value();
    ASSERT_TRUE(neighbor.has_value());
    EXPECT_DOUBLE_EQ(Distance(points[neighbor->ref], query),
                     Distance(points[expected[rank]], query))
        << "rank " << rank;
  }
  EXPECT_FALSE(cursor.Next().value().has_value());
}

TEST(MultiDimTest, ThreeDimensionalSpatialKeywordQuery) {
  // Full IR2 stack in 3-d: object store + signatures + search.
  MemoryBlockDevice object_device, tree_device;
  ObjectStoreWriter writer(&object_device);
  Rng rng(4);
  Tokenizer tokenizer;
  std::vector<StoredObject> objects;
  std::vector<ObjectRef> refs;
  for (uint32_t i = 0; i < 150; ++i) {
    StoredObject object;
    object.id = i;
    object.coords = {rng.NextDouble(0, 100), rng.NextDouble(0, 100),
                     rng.NextDouble(0, 100)};
    object.text = (i % 3 == 0) ? "alpha shared" : "beta shared";
    refs.push_back(writer.Append(object).value());
    objects.push_back(std::move(object));
  }
  ASSERT_TRUE(writer.Finish().ok());
  ObjectStore store(&object_device, writer.bytes_written());

  BufferPool pool(&tree_device, 1024);
  RTreeOptions options;
  options.dims = 3;
  options.capacity_override = 6;
  Ir2Tree tree(&pool, options, SignatureConfig{64, 3});
  ASSERT_TRUE(tree.Init().ok());
  for (size_t i = 0; i < objects.size(); ++i) {
    std::vector<std::string> words = tokenizer.DistinctTokens(objects[i].text);
    ASSERT_TRUE(tree.InsertObject(refs[i],
                                  Rect::ForPoint(Point(objects[i].coords)),
                                  testing_util::HashWords(words))
                    .ok());
  }

  DistanceFirstQuery query;
  query.point = Point(std::span<const double>(
      std::vector<double>{50.0, 50.0, 50.0}));
  query.keywords = {"alpha"};
  query.k = 10;
  std::vector<QueryResult> results =
      Ir2TopK(tree, store, tokenizer, query).value();
  ASSERT_EQ(results.size(), 10u);
  for (const QueryResult& result : results) {
    EXPECT_EQ(result.object_id % 3, 0u);  // Only "alpha" objects.
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i].distance, results[i - 1].distance);
  }
}

TEST(MultiDimTest, ExtendedObjectsOrderedByMinDist) {
  // Rectangle (non-point) objects: incremental NN must order them by
  // MINDIST to the query point.
  MemoryBlockDevice device;
  BufferPool pool(&device, 1024);
  RTreeOptions options;
  options.capacity_override = 5;
  RTree tree(&pool, options);
  ASSERT_TRUE(tree.Init().ok());

  Rng rng(5);
  std::vector<Rect> rects;
  for (uint32_t i = 0; i < 120; ++i) {
    double x = rng.NextDouble(0, 900), y = rng.NextDouble(0, 900);
    double w = rng.NextDouble(1, 80), h = rng.NextDouble(1, 80);
    rects.emplace_back(Point(x, y), Point(x + w, y + h));
    ASSERT_TRUE(tree.Insert(i, rects.back()).ok());
  }
  ASSERT_TRUE(tree.Validate().ok());

  Point query(450, 450);
  IncrementalNNCursor cursor(&tree, query);
  double last = -1.0;
  uint32_t count = 0;
  while (true) {
    auto neighbor = cursor.Next().value();
    if (!neighbor.has_value()) break;
    EXPECT_GE(neighbor->distance, last);
    EXPECT_DOUBLE_EQ(neighbor->distance, rects[neighbor->ref].MinDist(query));
    last = neighbor->distance;
    ++count;
  }
  EXPECT_EQ(count, 120u);
}

}  // namespace
}  // namespace ir2
