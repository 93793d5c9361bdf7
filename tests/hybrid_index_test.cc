#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "core/hybrid_index.h"
#include "storage/object_store.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using testing_util::BruteForceDistanceFirst;
using testing_util::RandomObjects;
using testing_util::ResultIds;

struct HybridFixture {
  HybridFixture(const std::vector<StoredObject>& objects,
                HybridKeywordIndex::Options options) {
    ObjectStoreWriter writer(&object_device);
    for (const StoredObject& object : objects) {
      refs.push_back(writer.Append(object).value());
    }
    IR2_CHECK_OK(writer.Finish());
    store = std::make_unique<ObjectStore>(&object_device,
                                          writer.bytes_written());
    HybridKeywordIndex::Builder builder(&tree_device, &postings_device,
                                        options);
    std::vector<Point> locations;
    for (const StoredObject& object : objects) {
      locations.push_back(Point(object.coords));
    }
    index = builder
                .Finish(CorpusTerms::Build(tokenizer, objects), refs,
                        locations)
                .value();
  }

  MemoryBlockDevice object_device, tree_device, postings_device;
  Tokenizer tokenizer;
  std::unique_ptr<ObjectStore> store;
  std::vector<ObjectRef> refs;
  std::unique_ptr<HybridKeywordIndex> index;
};

HybridKeywordIndex::Options SmallOptions(uint32_t threshold) {
  HybridKeywordIndex::Options options;
  options.tree_threshold = threshold;
  options.tree_options.capacity_override = 8;
  return options;
}

TEST(HybridIndexTest, BuildsTreesOnlyForFrequentTerms) {
  // Vocab of 10 over 300 objects: every term df ~ 300*4/10 = 120.
  std::vector<StoredObject> objects = RandomObjects(41, 300, 10, 4);
  HybridFixture low(objects, SmallOptions(/*threshold=*/50));
  EXPECT_EQ(low.index->num_term_trees(), 10u);

  // Sky-high threshold: no trees, everything served from posting lists.
  HybridFixture high(objects, SmallOptions(/*threshold=*/100000));
  EXPECT_EQ(high.index->num_term_trees(), 0u);
}

TEST(HybridIndexTest, MatchesBruteForceViaTreesAndViaPostings) {
  std::vector<StoredObject> objects = RandomObjects(42, 400, 25, 5);
  // Two configurations that exercise both query paths.
  for (uint32_t threshold : {1u, 1000000u}) {
    HybridFixture fx(objects, SmallOptions(threshold));
    Rng rng(43);
    for (int iter = 0; iter < 10; ++iter) {
      DistanceFirstQuery query;
      query.point = Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
      query.keywords = {"w" + std::to_string(rng.NextUint64(25)),
                        "w" + std::to_string(rng.NextUint64(25))};
      query.k = 10;
      std::vector<uint32_t> expected = BruteForceDistanceFirst(
          objects, query.point, query.keywords, query.k);
      std::vector<QueryResult> results =
          fx.index->TopK(*fx.store, fx.tokenizer, query).value();
      EXPECT_EQ(ResultIds(results), expected)
          << "threshold " << threshold << " iter " << iter;
    }
  }
}

TEST(HybridIndexTest, UnknownKeywordShortCircuits) {
  std::vector<StoredObject> objects = RandomObjects(44, 100, 10, 3);
  HybridFixture fx(objects, SmallOptions(10));
  DistanceFirstQuery query;
  query.point = Point(0, 0);
  query.keywords = {"w1", "absentword"};
  query.k = 5;
  QueryStats stats;
  std::vector<QueryResult> results =
      fx.index->TopK(*fx.store, fx.tokenizer, query, &stats).value();
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(stats.objects_loaded, 0u);  // df=0 keyword: no work at all.
}

TEST(HybridIndexTest, RequiresAtLeastOneKeyword) {
  std::vector<StoredObject> objects = RandomObjects(45, 50, 10, 3);
  HybridFixture fx(objects, SmallOptions(10));
  DistanceFirstQuery query;
  query.point = Point(0, 0);
  query.k = 5;
  EXPECT_EQ(fx.index->TopK(*fx.store, fx.tokenizer, query).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(HybridIndexTest, DriverIsTheRarestKeyword) {
  // Object 0 uniquely contains "rareword"; all contain "common".
  std::vector<StoredObject> objects = RandomObjects(46, 200, 5, 3);
  for (StoredObject& object : objects) object.text += " common";
  objects[0].text += " rareword";
  HybridFixture fx(objects, SmallOptions(50));

  DistanceFirstQuery query;
  query.point = Point(500, 500);
  query.keywords = {"common", "rareword"};
  query.k = 5;
  QueryStats stats;
  std::vector<QueryResult> results =
      fx.index->TopK(*fx.store, fx.tokenizer, query, &stats).value();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].object_id, 0u);
  // Driving from "rareword" (df=1) loads exactly one object, not 200.
  EXPECT_EQ(stats.objects_loaded, 1u);
}

TEST(HybridIndexTest, AreaTargetsWork) {
  std::vector<StoredObject> objects = RandomObjects(47, 300, 10, 4);
  HybridFixture fx(objects, SmallOptions(20));
  DistanceFirstQuery query;
  query.area = Rect(Point(100, 100), Point(400, 400));
  query.keywords = {"w2"};
  query.k = 12;
  std::vector<QueryResult> results =
      fx.index->TopK(*fx.store, fx.tokenizer, query).value();
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i].distance, results[i - 1].distance);
  }
}

TEST(HybridIndexTest, MaxDistanceIsAnInclusiveBoundOnBothPaths) {
  std::vector<StoredObject> objects = RandomObjects(44, 400, 25, 5);
  // Threshold 1 gives every term a tree (tree-driven queries); a sky-high
  // one serves every driver from its posting list.
  for (uint32_t threshold : {1u, 1000000u}) {
    HybridFixture fx(objects, SmallOptions(threshold));
    EXPECT_EQ(fx.index->num_term_trees() > 0, threshold == 1u);
    Rng rng(45);
    for (int iter = 0; iter < 10; ++iter) {
      DistanceFirstQuery query;
      query.point = Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
      query.keywords = {"w" + std::to_string(rng.NextUint64(25))};
      query.k = 20;
      std::vector<QueryResult> uncapped =
          fx.index->TopK(*fx.store, fx.tokenizer, query).value();
      ASSERT_GT(uncapped.size(), 4u);
      query.max_distance = uncapped[3].distance;
      std::vector<QueryResult> expected;
      for (const QueryResult& r : uncapped) {
        if (r.distance <= *query.max_distance) expected.push_back(r);
      }
      std::vector<QueryResult> capped =
          fx.index->TopK(*fx.store, fx.tokenizer, query).value();
      EXPECT_EQ(ResultIds(capped), ResultIds(expected))
          << "threshold " << threshold << ", iter " << iter;
    }
  }
}

}  // namespace
}  // namespace ir2
