#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "rtree/incremental_nn.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"

namespace ir2 {
namespace {

// k-nearest-neighbour answers of the incremental cursor [HS99] — the one
// traversal behind every algorithm of the paper — against brute force.

struct KnnFixture {
  KnnFixture(uint32_t capacity, uint32_t n, uint64_t seed, SplitPolicy policy)
      : pool(&device, 4096) {
    RTreeOptions options;
    options.capacity_override = capacity;
    options.split_policy = policy;
    tree = std::make_unique<RTree>(&pool, options);
    IR2_CHECK_OK(tree->Init());
    Rng rng(seed);
    for (uint32_t i = 0; i < n; ++i) {
      points.emplace_back(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
      IR2_CHECK_OK(tree->Insert(i, Rect::ForPoint(points.back())));
    }
  }
  MemoryBlockDevice device;
  BufferPool pool;
  std::unique_ptr<RTree> tree;
  std::vector<Point> points;
};

TEST(KnnTest, EmptyTreeYieldsNothing) {
  KnnFixture fx(8, 0, 1, SplitPolicy::kQuadratic);
  IncrementalNNCursor cursor(fx.tree.get(), Point(0, 0));
  EXPECT_FALSE(cursor.Next().value().has_value());
}

class KnnEquivalenceSweep
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, SplitPolicy, uint32_t>> {};

// Exhausting the cursor yields every object exactly once, in ascending
// distance, and the first k distances equal the brute-force k smallest
// (ties may order differently, so distances are compared, not refs).
TEST_P(KnnEquivalenceSweep, CursorMatchesBruteForce) {
  const auto [capacity, policy, n] = GetParam();
  KnnFixture fx(capacity, n, 100 + capacity, policy);
  ASSERT_TRUE(fx.tree->Validate().ok());
  Rng rng(5);
  for (int iter = 0; iter < 10; ++iter) {
    Point query(rng.NextDouble(-100, 1100), rng.NextDouble(-100, 1100));
    std::vector<double> expected;
    expected.reserve(n);
    for (const Point& point : fx.points) {
      expected.push_back(Distance(point, query));
    }
    std::sort(expected.begin(), expected.end());

    IncrementalNNCursor cursor(fx.tree.get(), query);
    std::vector<bool> seen(n, false);
    for (uint32_t rank = 0; rank < n; ++rank) {
      auto neighbor = cursor.Next().value();
      ASSERT_TRUE(neighbor.has_value()) << "rank=" << rank;
      ASSERT_LT(neighbor->ref, n);
      EXPECT_FALSE(seen[neighbor->ref]) << "ref " << neighbor->ref;
      seen[neighbor->ref] = true;
      EXPECT_DOUBLE_EQ(neighbor->distance, expected[rank])
          << "rank=" << rank;
    }
    EXPECT_FALSE(cursor.Next().value().has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KnnEquivalenceSweep,
    ::testing::Combine(::testing::Values(4u, 8u, 113u),
                       ::testing::Values(SplitPolicy::kQuadratic,
                                         SplitPolicy::kRStar),
                       ::testing::Values(100u, 400u, 1000u)));

}  // namespace
}  // namespace ir2
