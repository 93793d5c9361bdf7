#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"
#include "rtree/incremental_nn.h"
#include "rtree/rtree.h"
#include "storage/block_device.h"
#include "storage/buffer_pool.h"

namespace ir2 {
namespace {

struct TreeFixture {
  explicit TreeFixture(uint32_t capacity = 0, size_t pool_blocks = 4096,
                       SplitPolicy policy = SplitPolicy::kQuadratic)
      : device(), pool(&device, pool_blocks) {
    RTreeOptions options;
    options.capacity_override = capacity;
    options.split_policy = policy;
    tree = std::make_unique<RTree>(&pool, options);
    IR2_CHECK_OK(tree->Init());
  }
  MemoryBlockDevice device;
  BufferPool pool;
  std::unique_ptr<RTree> tree;
};

std::vector<Point> RandomPoints(uint64_t seed, uint32_t n) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    points.emplace_back(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
  }
  return points;
}

// All refs returned by exhausting the NN cursor from `query`.
std::vector<ObjectRef> NNOrder(const RTreeBase& tree, const Point& query) {
  IncrementalNNCursor cursor(&tree, query);
  std::vector<ObjectRef> order;
  while (true) {
    auto neighbor = cursor.Next().value();
    if (!neighbor.has_value()) break;
    order.push_back(neighbor->ref);
  }
  return order;
}

// Brute-force NN order of `points` (refs = indices).
std::vector<ObjectRef> BruteForceOrder(const std::vector<Point>& points,
                                       const Point& query) {
  std::vector<ObjectRef> order(points.size());
  for (uint32_t i = 0; i < points.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](ObjectRef a, ObjectRef b) {
                     return DistanceSquared(points[a], query) <
                            DistanceSquared(points[b], query);
                   });
  return order;
}

// Distances of the first `k` neighbours the NN cursor yields from `query`.
std::vector<double> NNDistances(const RTreeBase& tree, const Point& query,
                                size_t k) {
  IncrementalNNCursor cursor(&tree, query);
  std::vector<double> distances;
  while (distances.size() < k) {
    auto neighbor = cursor.Next().value();
    if (!neighbor.has_value()) break;
    distances.push_back(neighbor->distance);
  }
  return distances;
}

// The `k` smallest distances from `query` to `points`, ascending.
std::vector<double> BruteForceDistances(const std::vector<Point>& points,
                                        const Point& query, size_t k) {
  std::vector<double> distances;
  distances.reserve(points.size());
  for (const Point& point : points) {
    distances.push_back(Distance(point, query));
  }
  std::sort(distances.begin(), distances.end());
  distances.resize(std::min(k, distances.size()));
  return distances;
}

TEST(RTreeTest, EmptyTree) {
  TreeFixture fx(8);
  EXPECT_EQ(fx.tree->size(), 0u);
  EXPECT_EQ(fx.tree->height(), 0u);
  EXPECT_TRUE(fx.tree->Validate().ok());
  EXPECT_TRUE(NNOrder(*fx.tree, Point(0, 0)).empty());
}

TEST(RTreeTest, SingleInsertAndFind) {
  TreeFixture fx(8);
  ASSERT_TRUE(fx.tree->Insert(42, Rect::ForPoint(Point(1, 2))).ok());
  EXPECT_EQ(fx.tree->size(), 1u);
  EXPECT_TRUE(fx.tree->Validate().ok());
  std::vector<ObjectRef> order = NNOrder(*fx.tree, Point(0, 0));
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 42u);
}

TEST(RTreeTest, CapacityDerivedFromBlockSizeMatchesPaper) {
  // 4096-byte block, 2-d doubles, 4-byte refs, 8-byte header -> 113
  // children per node, the paper's number.
  MemoryBlockDevice device(4096);
  BufferPool pool(&device, 64);
  RTree tree(&pool, RTreeOptions{});
  EXPECT_EQ(tree.node_capacity(), 113u);
  EXPECT_EQ(tree.BlocksPerNode(0), 1u);  // Plain R-Tree: one block per node.
}

TEST(RTreeTest, GrowsAndStaysBalanced) {
  TreeFixture fx(4);
  std::vector<Point> points = RandomPoints(1, 200);
  for (uint32_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(fx.tree->Insert(i, Rect::ForPoint(points[i])).ok());
    if (i % 37 == 0) {
      ASSERT_TRUE(fx.tree->Validate().ok()) << "after insert " << i;
    }
  }
  EXPECT_EQ(fx.tree->size(), 200u);
  EXPECT_GE(fx.tree->height(), 3u);  // Capacity 4 forces depth.
  EXPECT_TRUE(fx.tree->Validate().ok());
}

TEST(RTreeTest, NNOrderMatchesBruteForce) {
  TreeFixture fx(8);
  std::vector<Point> points = RandomPoints(2, 300);
  for (uint32_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(fx.tree->Insert(i, Rect::ForPoint(points[i])).ok());
  }
  for (uint64_t qseed = 0; qseed < 5; ++qseed) {
    Rng rng(100 + qseed);
    Point query(rng.NextDouble(-100, 1100), rng.NextDouble(-100, 1100));
    std::vector<ObjectRef> expected = BruteForceOrder(points, query);
    std::vector<ObjectRef> actual = NNOrder(*fx.tree, query);
    ASSERT_EQ(actual.size(), expected.size());
    // Compare by distance (ties can reorder ids).
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_DOUBLE_EQ(Distance(points[actual[i]], query),
                       Distance(points[expected[i]], query))
          << "rank " << i;
    }
  }
}

TEST(RTreeTest, NNDistancesNonDecreasing) {
  TreeFixture fx(16);
  std::vector<Point> points = RandomPoints(3, 500);
  for (uint32_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(fx.tree->Insert(i, Rect::ForPoint(points[i])).ok());
  }
  IncrementalNNCursor cursor(fx.tree.get(), Point(500, 500));
  double last = -1;
  while (true) {
    auto neighbor = cursor.Next().value();
    if (!neighbor.has_value()) break;
    EXPECT_GE(neighbor->distance, last);
    last = neighbor->distance;
  }
}

TEST(RTreeTest, DeleteRemovesAndCondenses) {
  TreeFixture fx(4);
  std::vector<Point> points = RandomPoints(5, 120);
  for (uint32_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(fx.tree->Insert(i, Rect::ForPoint(points[i])).ok());
  }
  // Delete in random order, validating as we go.
  Rng rng(7);
  std::vector<uint32_t> order(points.size());
  for (uint32_t i = 0; i < points.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextUint64(i)]);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    uint32_t id = order[i];
    EXPECT_TRUE(fx.tree->Delete(id, Rect::ForPoint(points[id])).value())
        << "delete " << id;
    if (i % 13 == 0) {
      ASSERT_TRUE(fx.tree->Validate().ok()) << "after delete " << i;
    }
  }
  EXPECT_EQ(fx.tree->size(), 0u);
  EXPECT_TRUE(fx.tree->Validate().ok());
}

TEST(RTreeTest, DeleteMissingReturnsFalse) {
  TreeFixture fx(4);
  ASSERT_TRUE(fx.tree->Insert(1, Rect::ForPoint(Point(5, 5))).ok());
  EXPECT_FALSE(fx.tree->Delete(2, Rect::ForPoint(Point(5, 5))).value());
  EXPECT_FALSE(fx.tree->Delete(1, Rect::ForPoint(Point(6, 6))).value());
  EXPECT_EQ(fx.tree->size(), 1u);
  EXPECT_TRUE(fx.tree->Delete(1, Rect::ForPoint(Point(5, 5))).value());
}

TEST(RTreeTest, MixedInsertDeleteKeepsNNCorrect) {
  TreeFixture fx(6);
  Rng rng(2718);
  std::vector<Point> points = RandomPoints(6, 400);
  std::set<uint32_t> alive;
  for (uint32_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(fx.tree->Insert(i, Rect::ForPoint(points[i])).ok());
    alive.insert(i);
  }
  uint32_t next = 200;
  for (int round = 0; round < 300; ++round) {
    if (next < points.size() && rng.NextBool(0.5)) {
      ASSERT_TRUE(fx.tree->Insert(next, Rect::ForPoint(points[next])).ok());
      alive.insert(next);
      ++next;
    } else if (!alive.empty()) {
      auto it = alive.begin();
      std::advance(it, rng.NextUint64(alive.size()));
      ASSERT_TRUE(fx.tree->Delete(*it, Rect::ForPoint(points[*it])).value());
      alive.erase(it);
    }
  }
  ASSERT_TRUE(fx.tree->Validate().ok());
  EXPECT_EQ(fx.tree->size(), alive.size());
  // NN enumeration returns exactly the alive set.
  std::vector<ObjectRef> order = NNOrder(*fx.tree, Point(500, 500));
  std::set<uint32_t> found(order.begin(), order.end());
  EXPECT_EQ(found, alive);
}

TEST(RTreeTest, CollectObjectRefsReturnsAll) {
  TreeFixture fx(4);
  for (uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        fx.tree->Insert(i, Rect::ForPoint(Point(i * 3.0, 1000.0 - i))).ok());
  }
  std::vector<ObjectRef> refs;
  ASSERT_TRUE(fx.tree->CollectObjectRefs(fx.tree->root_id(), &refs).ok());
  std::set<ObjectRef> unique(refs.begin(), refs.end());
  EXPECT_EQ(refs.size(), 50u);
  EXPECT_EQ(unique.size(), 50u);
}

TEST(RTreeTest, PersistsThroughFlushAndLoad) {
  MemoryBlockDevice device;
  std::vector<Point> points = RandomPoints(8, 150);
  {
    BufferPool pool(&device, 1024);
    RTreeOptions options;
    options.capacity_override = 8;
    RTree tree(&pool, options);
    ASSERT_TRUE(tree.Init().ok());
    for (uint32_t i = 0; i < points.size(); ++i) {
      ASSERT_TRUE(tree.Insert(i, Rect::ForPoint(points[i])).ok());
    }
    ASSERT_TRUE(tree.Flush().ok());
  }
  {
    BufferPool pool(&device, 1024);
    RTreeOptions options;
    options.capacity_override = 8;
    RTree tree(&pool, options);
    ASSERT_TRUE(tree.Load().ok());
    EXPECT_EQ(tree.size(), points.size());
    EXPECT_TRUE(tree.Validate().ok());
    std::vector<ObjectRef> order = NNOrder(tree, Point(0, 0));
    EXPECT_EQ(order.size(), points.size());
  }
}

TEST(RTreeTest, NodeLoadCountsMultiBlockIo) {
  // Plain tree nodes are one block: loading the root once = 1 random read.
  TreeFixture fx(0, /*pool_blocks=*/0);  // No caching.
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(fx.tree->Insert(i, Rect::ForPoint(Point(i, i))).ok());
  }
  fx.device.ResetStats();
  (void)fx.tree->LoadNode(fx.tree->root_id()).value();
  EXPECT_EQ(fx.device.stats().random_reads, 1u);
  EXPECT_EQ(fx.device.stats().sequential_reads, 0u);
}

TEST(RTreeTest, EntryFilterPrunesSubtrees) {
  TreeFixture fx(4);
  std::vector<Point> points = RandomPoints(11, 100);
  for (uint32_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(fx.tree->Insert(i, Rect::ForPoint(points[i])).ok());
  }
  // A filter rejecting everything returns nothing and prunes every entry of
  // the root.
  IncrementalNNCursor cursor(fx.tree.get(), Point(0, 0),
                             [](const Node&, const Entry&) { return false; });
  EXPECT_FALSE(cursor.Next().value().has_value());
  EXPECT_EQ(cursor.nodes_visited(), 1u);  // Only the root.
  EXPECT_GT(cursor.entries_pruned(), 0u);
}

class RTreeCapacitySweep : public ::testing::TestWithParam<uint32_t> {};

// The full lifecycle property at several fan-outs (deep trees at 3,
// realistic at 113): insert all, validate, NN matches brute force, delete
// half, validate, NN matches brute force on the survivors.
TEST_P(RTreeCapacitySweep, LifecycleInvariants) {
  const uint32_t capacity = GetParam();
  TreeFixture fx(capacity);
  std::vector<Point> points = RandomPoints(1000 + capacity, 250);
  for (uint32_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(fx.tree->Insert(i, Rect::ForPoint(points[i])).ok());
  }
  ASSERT_TRUE(fx.tree->Validate().ok());

  Point query(333, 667);
  std::vector<ObjectRef> expected = BruteForceOrder(points, query);
  std::vector<ObjectRef> actual = NNOrder(*fx.tree, query);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_DOUBLE_EQ(Distance(points[actual[i]], query),
                     Distance(points[expected[i]], query));
  }

  for (uint32_t i = 0; i < points.size(); i += 2) {
    ASSERT_TRUE(fx.tree->Delete(i, Rect::ForPoint(points[i])).value());
  }
  ASSERT_TRUE(fx.tree->Validate().ok());
  std::vector<ObjectRef> survivors = NNOrder(*fx.tree, query);
  EXPECT_EQ(survivors.size(), points.size() / 2);
  for (ObjectRef ref : survivors) {
    EXPECT_EQ(ref % 2, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, RTreeCapacitySweep,
                         ::testing::Values(3u, 4u, 8u, 16u, 50u, 113u));

// ---- R* split policy ----

TEST(RStarSplitTest, InvariantsAndNNCorrectness) {
  std::vector<Point> points = RandomPoints(77, 500);
  TreeFixture quadratic(6, 4096, SplitPolicy::kQuadratic);
  TreeFixture rstar(6, 4096, SplitPolicy::kRStar);
  for (uint32_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(quadratic.tree->Insert(i, Rect::ForPoint(points[i])).ok());
    ASSERT_TRUE(rstar.tree->Insert(i, Rect::ForPoint(points[i])).ok());
  }
  ASSERT_TRUE(rstar.tree->Validate().ok());
  ASSERT_TRUE(quadratic.tree->Validate().ok());

  // Identical data -> the brute-force NN distances under both split
  // policies.
  Rng rng(6);
  for (int iter = 0; iter < 5; ++iter) {
    Point query(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
    const std::vector<double> expected = BruteForceDistances(points, query, 15);
    const std::vector<double> a = NNDistances(*quadratic.tree, query, 15);
    const std::vector<double> b = NNDistances(*rstar.tree, query, 15);
    ASSERT_EQ(a.size(), expected.size());
    ASSERT_EQ(b.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(a[i], expected[i]);
      EXPECT_DOUBLE_EQ(b[i], expected[i]);
    }
  }
}

TEST(RStarSplitTest, DeletesWorkUnderRStar) {
  std::vector<Point> points = RandomPoints(88, 300);
  TreeFixture fx(5, 4096, SplitPolicy::kRStar);
  for (uint32_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(fx.tree->Insert(i, Rect::ForPoint(points[i])).ok());
  }
  for (uint32_t i = 0; i < 150; ++i) {
    ASSERT_TRUE(fx.tree->Delete(i, Rect::ForPoint(points[i])).value());
  }
  EXPECT_EQ(fx.tree->size(), 150u);
  ASSERT_TRUE(fx.tree->Validate().ok());
}

TEST(RStarSplitTest, ForcedReinsertionLifecycle) {
  MemoryBlockDevice device;
  BufferPool pool(&device, 4096);
  RTreeOptions options;
  options.capacity_override = 8;
  options.split_policy = SplitPolicy::kRStar;
  options.forced_reinsert_fraction = 0.3;
  RTree tree(&pool, options);
  ASSERT_TRUE(tree.Init().ok());

  Rng rng(99);
  std::vector<Point> points;
  for (uint32_t i = 0; i < 600; ++i) {
    points.emplace_back(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
    ASSERT_TRUE(tree.Insert(i, Rect::ForPoint(points.back())).ok());
    if (i % 151 == 0) {
      ASSERT_TRUE(tree.Validate().ok()) << "after insert " << i;
    }
  }
  EXPECT_EQ(tree.size(), 600u);
  ASSERT_TRUE(tree.Validate().ok());

  // kNN correct against brute force.
  Point query(400, 600);
  const std::vector<double> knn = NNDistances(tree, query, 25);
  const std::vector<double> expected = BruteForceDistances(points, query, 25);
  ASSERT_EQ(knn.size(), expected.size());
  for (size_t i = 0; i < knn.size(); ++i) {
    EXPECT_DOUBLE_EQ(knn[i], expected[i]);
  }

  // Deletes (with condense re-insertion) still respect invariants.
  for (uint32_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree.Delete(i, Rect::ForPoint(points[i])).value());
  }
  EXPECT_EQ(tree.size(), 300u);
  ASSERT_TRUE(tree.Validate().ok());
}

TEST(RStarSplitTest, ForcedReinsertionImprovesPacking) {
  // Re-clustering should not make the tree larger; typically it packs
  // nodes better than pure splitting on random data.
  auto build = [](double reinsert_fraction) {
    auto device = std::make_unique<MemoryBlockDevice>();
    BufferPool pool(device.get(), 1 << 14);
    RTreeOptions options;
    options.capacity_override = 16;
    options.split_policy = SplitPolicy::kRStar;
    options.forced_reinsert_fraction = reinsert_fraction;
    RTree tree(&pool, options);
    IR2_CHECK_OK(tree.Init());
    Rng rng(7);
    for (uint32_t i = 0; i < 3000; ++i) {
      IR2_CHECK_OK(tree.Insert(
          i, Rect::ForPoint(Point(rng.NextDouble(0, 1000),
                                  rng.NextDouble(0, 1000)))));
    }
    IR2_CHECK_OK(tree.Flush());
    return device->NumBlocks();
  };
  EXPECT_LE(build(0.3), build(0.0) * 11 / 10);
}

TEST(RStarSplitTest, IdenticalPointsDoNotBreakEitherPolicy) {
  // Degenerate input: many objects at the same location. Splits must still
  // terminate and respect fill invariants.
  for (SplitPolicy policy : {SplitPolicy::kQuadratic, SplitPolicy::kRStar}) {
    TreeFixture fx(4, 1024, policy);
    for (uint32_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(fx.tree->Insert(i, Rect::ForPoint(Point(5, 5))).ok());
    }
    ASSERT_TRUE(fx.tree->Validate().ok());
    const std::vector<double> all = NNDistances(*fx.tree, Point(5, 5), 100);
    EXPECT_EQ(all.size(), 100u);
    EXPECT_EQ(NNOrder(*fx.tree, Point(5, 5)).size(), 100u);
    for (double distance : all) {
      EXPECT_DOUBLE_EQ(distance, 0.0);
    }
  }
}

}  // namespace
}  // namespace ir2
