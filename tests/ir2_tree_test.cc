#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/random.h"
#include "core/ir2_tree.h"
#include "rtree/incremental_nn.h"
#include "storage/block_device.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"
#include "text/tokenizer.h"

namespace ir2 {
namespace {

using testing_util::RandomObjects;

struct Ir2Fixture {
  Ir2Fixture(uint32_t capacity, SignatureConfig signature)
      : device(), pool(&device, 4096) {
    RTreeOptions options;
    options.capacity_override = capacity;
    tree = std::make_unique<Ir2Tree>(&pool, options, signature);
    IR2_CHECK_OK(tree->Init());
  }

  Status InsertText(ObjectRef ref, const Point& p, const std::string& text) {
    std::vector<std::string> words = tokenizer.DistinctTokens(text);
    return tree->InsertObject(ref, Rect::ForPoint(p),
                              testing_util::HashWords(words));
  }

  MemoryBlockDevice device;
  BufferPool pool;
  Tokenizer tokenizer;
  std::unique_ptr<Ir2Tree> tree;
};

TEST(Ir2TreeTest, PayloadBytesMatchSignatureConfig) {
  Ir2Fixture fx(8, SignatureConfig{1512, 3});
  EXPECT_EQ(fx.tree->PayloadBytes(0), 189u);
  EXPECT_EQ(fx.tree->PayloadBytes(3), 189u);
}

TEST(Ir2TreeTest, NodesSpillIntoExtraBlocksKeepingFanOut) {
  // Paper setup: 4096-byte blocks, capacity 113, 189-byte signatures. The
  // node takes 8 + 113*(36+189) = 25,433 bytes = 7 blocks, same fan-out.
  MemoryBlockDevice device;
  BufferPool pool(&device, 64);
  Ir2Tree tree(&pool, RTreeOptions{}, SignatureConfig{1512, 3});
  EXPECT_EQ(tree.node_capacity(), 113u);
  EXPECT_EQ(tree.BlocksPerNode(0), 7u);

  // The paper's Restaurants setup: 8-byte signatures -> 2 blocks per node.
  Ir2Tree small_sig(&pool, RTreeOptions{}, SignatureConfig{64, 3});
  EXPECT_EQ(small_sig.BlocksPerNode(0), 2u);
}

TEST(Ir2TreeTest, MultiBlockNodeRoundTrips) {
  Ir2Fixture fx(/*capacity=*/0, SignatureConfig{1512, 3});  // 113 / 7 blocks.
  Rng rng(5);
  for (uint32_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(fx.InsertText(i,
                              Point(rng.NextDouble(0, 100),
                                    rng.NextDouble(0, 100)),
                              "alpha beta w" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(fx.tree->Validate().ok());
  EXPECT_GE(fx.tree->height(), 1u);
  // Find a leaf and check that loading it costs one random read plus one
  // sequential read per additional occupied block.
  Node node = fx.tree->LoadNode(fx.tree->root_id()).value();
  while (!node.is_leaf()) {
    node = fx.tree->LoadNode(node.entries[0].ref).value();
  }
  const uint32_t blocks = fx.tree->BlocksUsed(
      0, static_cast<uint32_t>(node.entries.size()));
  EXPECT_GE(blocks, 2u);  // 225-byte entries: >18 entries span blocks.
  ASSERT_TRUE(fx.pool.Clear().ok());
  fx.device.ResetStats();
  (void)fx.tree->LoadNode(node.id).value();
  EXPECT_EQ(fx.device.stats().random_reads, 1u);
  EXPECT_EQ(fx.device.stats().sequential_reads, blocks - 1);
}

TEST(Ir2TreeTest, ParentSignaturesSuperimposeChildren) {
  Ir2Fixture fx(4, SignatureConfig{128, 3});
  Rng rng(6);
  for (uint32_t i = 0; i < 80; ++i) {
    ASSERT_TRUE(fx.InsertText(i,
                              Point(rng.NextDouble(0, 100),
                                    rng.NextDouble(0, 100)),
                              "w" + std::to_string(i % 11) + " shared")
                    .ok());
  }
  // Validate() checks the payload superimposition invariant for uniform
  // widths along with the spatial invariants.
  ASSERT_TRUE(fx.tree->Validate().ok());
}

TEST(Ir2TreeTest, SignatureFilterNeverPrunesTrueMatches) {
  // Core no-false-negative guarantee: every object containing the keywords
  // is reachable through signature-passing entries.
  std::vector<StoredObject> objects = RandomObjects(11, 300, 40, 6);
  Ir2Fixture fx(6, SignatureConfig{96, 3});
  for (uint32_t i = 0; i < objects.size(); ++i) {
    ASSERT_TRUE(fx.InsertText(i, Point(objects[i].coords), objects[i].text)
                    .ok());
  }
  Tokenizer tokenizer;
  for (int w = 0; w < 40; w += 7) {
    std::vector<std::string> keywords = {"w" + std::to_string(w)};
    std::set<ObjectRef> expected;
    for (uint32_t i = 0; i < objects.size(); ++i) {
      if (ContainsAllKeywords(tokenizer, objects[i].text, keywords)) {
        expected.insert(i);
      }
    }
    // Traverse with the signature filter; collect survivors.
    std::vector<uint64_t> hashes = {HashWord(keywords[0])};
    std::vector<Signature> sigs;
    for (uint32_t level = 0; level <= fx.tree->height(); ++level) {
      sigs.push_back(
          MakeSignatureFromHashes(hashes, fx.tree->LevelConfig(level)));
    }
    IncrementalNNCursor cursor(
        fx.tree.get(), Point(50, 50),
        [&](const Node& node, const Entry& entry) {
          return PayloadContainsSignature(entry.payload, sigs[node.level]);
        });
    std::set<ObjectRef> survivors;
    while (true) {
      auto neighbor = cursor.Next().value();
      if (!neighbor.has_value()) break;
      survivors.insert(neighbor->ref);
    }
    for (ObjectRef ref : expected) {
      EXPECT_TRUE(survivors.contains(ref))
          << "false negative for object " << ref << " keyword w" << w;
    }
  }
}

TEST(Ir2TreeTest, DeleteRetightensSignatures) {
  // After deleting the only object containing a rare word, querying for it
  // should prune the whole tree (signatures were recomputed, not left
  // stale).
  Ir2Fixture fx(4, SignatureConfig{256, 3});
  Rng rng(8);
  for (uint32_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(fx.InsertText(i,
                              Point(rng.NextDouble(0, 100),
                                    rng.NextDouble(0, 100)),
                              "common" + std::to_string(i % 5))
                    .ok());
  }
  Point rare_location(50, 50);
  ASSERT_TRUE(fx.InsertText(999, rare_location, "unicorn").ok());
  ASSERT_TRUE(fx.tree->Validate().ok());

  std::vector<uint64_t> unicorn = {HashWord("unicorn")};
  auto count_matches = [&]() {
    std::vector<Signature> sigs;
    for (uint32_t level = 0; level <= fx.tree->height(); ++level) {
      sigs.push_back(
          MakeSignatureFromHashes(unicorn, fx.tree->LevelConfig(level)));
    }
    IncrementalNNCursor cursor(
        fx.tree.get(), rare_location,
        [&](const Node& node, const Entry& entry) {
          return PayloadContainsSignature(entry.payload, sigs[node.level]);
        });
    int count = 0;
    while (cursor.Next().value().has_value()) ++count;
    return count;
  };
  EXPECT_GE(count_matches(), 1);

  ASSERT_TRUE(
      fx.tree->DeleteObject(999, Rect::ForPoint(rare_location)).value());
  ASSERT_TRUE(fx.tree->Validate().ok());
  // With 256-bit signatures over tiny vocabularies, a false positive is
  // essentially impossible, so the rare word must now match nothing.
  EXPECT_EQ(count_matches(), 0);
}

TEST(Ir2TreeTest, QuerySignatureCombinesKeywords) {
  Ir2Fixture fx(8, SignatureConfig{512, 3});
  std::vector<uint64_t> both = {HashWord("internet"), HashWord("pool")};
  std::vector<uint64_t> one = {HashWord("internet")};
  const SignatureConfig config = fx.tree->LevelConfig(0);
  Signature sig_both = MakeSignatureFromHashes(both, config);
  Signature sig_one = MakeSignatureFromHashes(one, config);
  EXPECT_TRUE(sig_both.ContainsAllOf(sig_one));
  EXPECT_GE(testing_util::CountOnes(sig_both),
            testing_util::CountOnes(sig_one));
}

}  // namespace
}  // namespace ir2
