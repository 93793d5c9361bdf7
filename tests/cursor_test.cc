#include <gtest/gtest.h>

#include <vector>

#include "core/ir2_search.h"
#include "core/ir2_tree.h"
#include "storage/buffer_pool.h"
#include "storage/object_store.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using testing_util::BruteForceDistanceFirst;
using testing_util::RandomObjects;

// Shared environment: an IR2-Tree + object store over a random dataset.
class CursorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    objects_ = RandomObjects(42, 200, 25, 5);
    writer_ = std::make_unique<ObjectStoreWriter>(&object_device_);
    for (const StoredObject& object : objects_) {
      refs_.push_back(writer_->Append(object).value());
    }
    ASSERT_TRUE(writer_->Finish().ok());
    store_ = std::make_unique<ObjectStore>(&object_device_,
                                           writer_->bytes_written());
    pool_ = std::make_unique<BufferPool>(&tree_device_, 4096);
    RTreeOptions options;
    options.capacity_override = 6;
    tree_ = std::make_unique<Ir2Tree>(pool_.get(), options,
                                      SignatureConfig{96, 3});
    ASSERT_TRUE(tree_->Init().ok());
    for (size_t i = 0; i < objects_.size(); ++i) {
      std::vector<std::string> words =
          tokenizer_.DistinctTokens(objects_[i].text);
      ASSERT_TRUE(tree_
                      ->InsertObject(refs_[i],
                                     Rect::ForPoint(Point(objects_[i].coords)),
                                     testing_util::HashWords(words))
                      .ok());
    }
  }

  MemoryBlockDevice object_device_;
  MemoryBlockDevice tree_device_;
  std::unique_ptr<ObjectStoreWriter> writer_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Ir2Tree> tree_;
  Tokenizer tokenizer_;
  std::vector<StoredObject> objects_;
  std::vector<ObjectRef> refs_;
};

TEST_F(CursorTest, IncrementalPaginationMatchesOneShot) {
  Point point(500, 500);
  std::vector<std::string> keywords = {"w3"};

  // One-shot top-20.
  DistanceFirstQuery query;
  query.point = point;
  query.keywords = keywords;
  query.k = 20;
  std::vector<QueryResult> one_shot =
      Ir2TopK(*tree_, *store_, tokenizer_, query).value();

  // Cursor consuming one result at a time ("next page").
  Ir2TopKCursor cursor(tree_.get(), store_.get(), &tokenizer_, point,
                       keywords);
  std::vector<QueryResult> paged;
  while (paged.size() < 20) {
    auto next = cursor.Next().value();
    if (!next.has_value()) break;
    paged.push_back(*next);
  }

  ASSERT_EQ(paged.size(), one_shot.size());
  for (size_t i = 0; i < paged.size(); ++i) {
    EXPECT_EQ(paged[i].object_id, one_shot[i].object_id) << i;
    EXPECT_DOUBLE_EQ(paged[i].distance, one_shot[i].distance);
  }
}

TEST_F(CursorTest, ExhaustionYieldsAllMatchesThenNull) {
  Point point(100, 900);
  std::vector<std::string> keywords = {"w7"};
  std::vector<uint32_t> expected = BruteForceDistanceFirst(
      objects_, point, keywords, /*k=*/objects_.size());

  Ir2TopKCursor cursor(tree_.get(), store_.get(), &tokenizer_, point,
                       keywords);
  std::vector<uint32_t> found;
  while (true) {
    auto next = cursor.Next().value();
    if (!next.has_value()) break;
    found.push_back(next->object_id);
  }
  EXPECT_EQ(found, expected);
  // Further calls keep returning null without error.
  EXPECT_FALSE(cursor.Next().value().has_value());
  EXPECT_FALSE(cursor.Next().value().has_value());
}

TEST_F(CursorTest, StatsAccumulateAcrossNextCalls) {
  Ir2TopKCursor cursor(tree_.get(), store_.get(), &tokenizer_,
                       Point(500, 500), {"w1"});
  (void)cursor.Next().value();
  uint64_t after_one = cursor.stats().objects_loaded;
  (void)cursor.Next().value();
  (void)cursor.Next().value();
  EXPECT_GE(cursor.stats().objects_loaded, after_one);
  EXPECT_GT(cursor.stats().objects_loaded, 0u);
}

TEST_F(CursorTest, KeywordsAreNormalizedLikeIndexedText) {
  // Upper-case / punctuated query keywords must match.
  Point point(500, 500);
  Ir2TopKCursor lower(tree_.get(), store_.get(), &tokenizer_, point, {"w3"});
  Ir2TopKCursor upper(tree_.get(), store_.get(), &tokenizer_, point,
                      {"W3!"});
  auto a = lower.Next().value();
  auto b = upper.Next().value();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->object_id, b->object_id);
}

TEST_F(CursorTest, BoundedEndLatchesWithoutFurtherTraversal) {
  const Point point(500, 500);
  const std::vector<std::string> keywords = {"w3"};
  const std::vector<uint32_t> all =
      BruteForceDistanceFirst(objects_, point, keywords, objects_.size());
  ASSERT_GT(all.size(), 6u);
  // Inclusive bound at the third match: exactly three results come back.
  const double bound = Distance(Point(objects_[all[2]].coords), point);
  Ir2TopKCursor cursor(tree_.get(), store_.get(), &tokenizer_, point,
                       keywords, /*scratch=*/nullptr, /*prefetch=*/{}, bound);
  std::vector<uint32_t> found;
  while (true) {
    auto next = cursor.Next().value();
    if (!next.has_value()) break;
    found.push_back(next->object_id);
  }
  EXPECT_EQ(found, std::vector<uint32_t>(all.begin(), all.begin() + 3));

  // The ended stream stays ended without popping or expanding anything.
  const uint64_t nodes_visited = cursor.stats().nodes_visited;
  const uint64_t objects_loaded = cursor.stats().objects_loaded;
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(cursor.Next().value().has_value());
  }
  EXPECT_EQ(cursor.stats().nodes_visited, nodes_visited);
  EXPECT_EQ(cursor.stats().objects_loaded, objects_loaded);
}

}  // namespace
}  // namespace ir2
