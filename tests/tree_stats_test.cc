#include <gtest/gtest.h>

#include "common/random.h"
#include "core/ir2_tree.h"
#include "rtree/rtree.h"
#include "rtree/tree_stats.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"
#include "text/tokenizer.h"

namespace ir2 {
namespace {

TEST(TreeStatsTest, EmptyTree) {
  MemoryBlockDevice device;
  BufferPool pool(&device, 256);
  RTreeOptions options;
  options.capacity_override = 8;
  RTree tree(&pool, options);
  ASSERT_TRUE(tree.Init().ok());
  TreeStatsReport report = ComputeTreeStats(tree).value();
  ASSERT_EQ(report.levels.size(), 1u);
  EXPECT_EQ(report.total_nodes, 1u);  // The empty root leaf.
  EXPECT_EQ(report.total_entries, 0u);
}

TEST(TreeStatsTest, CountsMatchTreeShape) {
  MemoryBlockDevice device;
  BufferPool pool(&device, 4096);
  RTreeOptions options;
  options.capacity_override = 4;
  RTree tree(&pool, options);
  ASSERT_TRUE(tree.Init().ok());
  Rng rng(1);
  const uint32_t n = 200;
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree.Insert(i, Rect::ForPoint(Point(rng.NextDouble(0, 100),
                                                    rng.NextDouble(0, 100))))
                    .ok());
  }
  TreeStatsReport report = ComputeTreeStats(tree).value();
  ASSERT_EQ(report.levels.size(), tree.height() + 1);
  // Leaf entries = objects.
  EXPECT_EQ(report.levels[0].entries, n);
  // Each inner level's entries = node count of the level below.
  for (size_t level = 1; level < report.levels.size(); ++level) {
    EXPECT_EQ(report.levels[level].entries,
              report.levels[level - 1].nodes);
  }
  // Root level has one node.
  EXPECT_EQ(report.levels.back().nodes, 1u);
  // Fill within [min_fill/capacity, 1] for non-root levels.
  for (size_t level = 0; level + 1 < report.levels.size(); ++level) {
    double fill = report.levels[level].AvgFill(tree.node_capacity());
    EXPECT_GE(fill, 0.4);
    EXPECT_LE(fill, 1.0);
  }
  EXPECT_FALSE(report.ToString(tree.node_capacity()).empty());
}

TEST(TreeStatsTest, PlainTreeHasNoPayloadBits) {
  MemoryBlockDevice device;
  BufferPool pool(&device, 256);
  RTreeOptions options;
  options.capacity_override = 4;
  RTree tree(&pool, options);
  ASSERT_TRUE(tree.Init().ok());
  for (uint32_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(tree.Insert(i, Rect::ForPoint(Point(i, i))).ok());
  }
  TreeStatsReport report = ComputeTreeStats(tree).value();
  for (const LevelStats& level : report.levels) {
    EXPECT_EQ(level.payload_bits, 0u);
    EXPECT_EQ(level.PayloadDensity(), 0.0);
  }
}

TEST(TreeStatsTest, SignatureDensityGrowsTowardRoot) {
  // Upper-level signatures superimpose more objects -> higher density.
  MemoryBlockDevice device;
  BufferPool pool(&device, 4096);
  RTreeOptions options;
  options.capacity_override = 4;
  Ir2Tree tree(&pool, options, SignatureConfig{128, 3});
  ASSERT_TRUE(tree.Init().ok());
  Rng rng(2);
  Tokenizer tokenizer;
  for (uint32_t i = 0; i < 300; ++i) {
    std::string text = "w" + std::to_string(i % 60) + " w" +
                       std::to_string((i * 7) % 60);
    std::vector<std::string> words = tokenizer.DistinctTokens(text);
    ASSERT_TRUE(tree.InsertObject(
                        i,
                        Rect::ForPoint(Point(rng.NextDouble(0, 100),
                                             rng.NextDouble(0, 100))),
                        testing_util::HashWords(words))
                    .ok());
  }
  TreeStatsReport report = ComputeTreeStats(tree).value();
  ASSERT_GE(report.levels.size(), 3u);
  double leaf_density = report.levels[0].PayloadDensity();
  double root_density = report.levels.back().PayloadDensity();
  EXPECT_GT(leaf_density, 0.0);
  EXPECT_GT(root_density, leaf_density);
}

}  // namespace
}  // namespace ir2
