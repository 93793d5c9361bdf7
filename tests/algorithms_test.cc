#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "core/general_search.h"
#include "core/ir2_search.h"
#include "serving/sharded_database.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using testing_util::BruteForceDistanceFirst;
using testing_util::DistancesSorted;
using testing_util::Figure1Hotels;
using testing_util::Figure1QueryPoint;
using testing_util::RandomObjects;
using testing_util::ResultIds;

DatabaseOptions SmallTreeOptions(uint32_t signature_bits) {
  DatabaseOptions options;
  options.ir2_signature = SignatureConfig{signature_bits, 3};
  options.tree_options.capacity_override = 4;  // Deep trees on small data.
  return options;
}

// ---- The paper's worked examples on the Figure 1 hotels ----

class Figure1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = SpatialKeywordDatabase::Build(Figure1Hotels(),
                                        SmallTreeOptions(256))
              .value();
  }
  std::unique_ptr<SpatialKeywordDatabase> db_;
};

TEST_F(Figure1Test, Example1NearestNeighborOrder) {
  // Example 1: pure NN from [30.5, 100.0] returns H4 first, then
  // H3, H5, H8, H6, H1, H7, H2.
  DistanceFirstQuery query;
  query.point = Figure1QueryPoint();
  query.keywords = {};  // No keyword filter: plain NN.
  query.k = 8;
  std::vector<QueryResult> results = db_->QueryRTree(query).value();
  EXPECT_EQ(ResultIds(results),
            (std::vector<uint32_t>{4, 3, 5, 8, 6, 1, 7, 2}));
  EXPECT_NEAR(results[0].distance, 18.5, 0.05);
}

TEST_F(Figure1Test, Examples2And3Top2InternetPool) {
  // Examples 2 and 3: top-2 {internet, pool} from [30.5, 100.0] = H7, H2
  // under every algorithm.
  DistanceFirstQuery query;
  query.point = Figure1QueryPoint();
  query.keywords = {"internet", "pool"};
  query.k = 2;
  const std::vector<uint32_t> expected = {7, 2};

  EXPECT_EQ(ResultIds(db_->QueryRTree(query).value()), expected);
  EXPECT_EQ(ResultIds(db_->QueryIio(query).value()), expected);
  EXPECT_EQ(ResultIds(db_->QueryIr2(query).value()), expected);
  EXPECT_EQ(ResultIds(db_->QueryMir2(query).value()), expected);

  std::vector<QueryResult> results = db_->QueryIr2(query).value();
  EXPECT_NEAR(results[0].distance, 181.9, 0.05);  // H7.
  EXPECT_NEAR(results[1].distance, 222.8, 0.05);  // H2.
}

TEST_F(Figure1Test, KeywordsNobodyHasReturnEmpty) {
  DistanceFirstQuery query;
  query.point = Figure1QueryPoint();
  query.keywords = {"internet", "sauna", "golf"};
  query.k = 5;
  EXPECT_TRUE(db_->QueryRTree(query).value().empty());
  EXPECT_TRUE(db_->QueryIio(query).value().empty());
  EXPECT_TRUE(db_->QueryIr2(query).value().empty());
  EXPECT_TRUE(db_->QueryMir2(query).value().empty());
}

TEST_F(Figure1Test, KLargerThanMatchesReturnsAllMatches) {
  DistanceFirstQuery query;
  query.point = Figure1QueryPoint();
  query.keywords = {"pool"};
  query.k = 50;
  // Pool hotels: H2, H3, H4, H7, H8.
  std::vector<uint32_t> ids = ResultIds(db_->QueryIr2(query).value());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint32_t>{2, 3, 4, 7, 8}));
}

TEST_F(Figure1Test, GeneralQueryPrefersMoreMatchedKeywords) {
  // With distance de-emphasized, hotels containing both keywords must
  // outrank single-keyword hotels.
  GeneralQuery query;
  query.point = Figure1QueryPoint();
  query.keywords = {"internet", "pool"};
  query.k = 2;
  query.ir_weight = 1.0;
  query.distance_weight = 1e-6;
  std::vector<QueryResult> results = db_->QueryGeneral(query).value();
  ASSERT_EQ(results.size(), 2u);
  std::vector<uint32_t> ids = ResultIds(results);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint32_t>{2, 7}));  // Both-keyword hotels.
  EXPECT_GT(results[0].ir_score, 0.0);
}

// ---- Cross-algorithm agreement on random data (the key integration
// property: all four implementations answer the same queries) ----

struct AgreementParams {
  uint32_t num_objects;
  uint32_t vocab;
  uint32_t words_per_object;
  uint32_t signature_bits;
  uint32_t num_keywords;
  uint32_t k;
};

class AgreementSweep : public ::testing::TestWithParam<AgreementParams> {};

TEST_P(AgreementSweep, AllAlgorithmsAgreeWithBruteForce) {
  const AgreementParams& params = GetParam();
  std::vector<StoredObject> objects = RandomObjects(
      1000 + params.num_objects, params.num_objects, params.vocab,
      params.words_per_object);
  auto db = SpatialKeywordDatabase::Build(
                objects, SmallTreeOptions(params.signature_bits))
                .value();

  Rng rng(17);
  for (int iter = 0; iter < 12; ++iter) {
    DistanceFirstQuery query;
    query.point = Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
    query.k = params.k;
    // Keywords from a random object so conjunctions are satisfiable
    // (sometimes) plus a fully random word (often unsatisfiable).
    const StoredObject& source = objects[rng.NextUint64(objects.size())];
    Tokenizer tokenizer;
    std::vector<std::string> words = tokenizer.DistinctTokens(source.text);
    for (uint32_t i = 0; i < params.num_keywords && i < words.size(); ++i) {
      query.keywords.push_back(words[rng.NextUint64(words.size())]);
    }
    std::vector<uint32_t> expected = BruteForceDistanceFirst(
        objects, query.point, query.keywords, query.k);

    auto rtree = db->QueryRTree(query).value();
    auto iio = db->QueryIio(query).value();
    auto ir2 = db->QueryIr2(query).value();
    auto mir2 = db->QueryMir2(query).value();

    EXPECT_EQ(ResultIds(rtree), expected) << "R-Tree, iter " << iter;
    EXPECT_EQ(ResultIds(iio), expected) << "IIO, iter " << iter;
    EXPECT_EQ(ResultIds(ir2), expected) << "IR2, iter " << iter;
    EXPECT_EQ(ResultIds(mir2), expected) << "MIR2, iter " << iter;
    EXPECT_TRUE(DistancesSorted(ir2));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, AgreementSweep,
    ::testing::Values(
        AgreementParams{120, 20, 4, 64, 1, 5},
        AgreementParams{300, 40, 6, 128, 2, 10},
        AgreementParams{500, 25, 5, 96, 2, 3},
        AgreementParams{250, 60, 8, 256, 3, 7},
        // Deliberately narrow signatures: many false positives, results
        // must still be exact (just slower).
        AgreementParams{200, 30, 6, 16, 2, 6}));

// ---- General ranking-function search vs brute force ----

TEST(GeneralSearchTest, MatchesBruteForceRanking) {
  std::vector<StoredObject> objects = RandomObjects(77, 250, 30, 5);
  auto db =
      SpatialKeywordDatabase::Build(objects, SmallTreeOptions(128)).value();
  const IrScorer& scorer = db->scorer();
  Tokenizer tokenizer;

  Rng rng(5);
  for (int iter = 0; iter < 10; ++iter) {
    GeneralQuery query;
    query.point = Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
    query.k = 8;
    query.ir_weight = 100.0;
    query.distance_weight = 1.0;
    const StoredObject& source = objects[rng.NextUint64(objects.size())];
    std::vector<std::string> words = tokenizer.DistinctTokens(source.text);
    query.keywords = {words[rng.NextUint64(words.size())],
                      "w" + std::to_string(rng.NextUint64(30))};

    std::vector<ScoredQueryTerm> terms = BuildQueryTerms(
        *db->inverted_index(), scorer, tokenizer, query.keywords);

    // Brute-force reference ranking.
    struct Scored {
      double score;
      uint32_t id;
    };
    std::vector<Scored> reference;
    for (const StoredObject& object : objects) {
      TermCounts counts = CountTerms(tokenizer, object.text);
      double ir = scorer.Score(counts, terms);
      if (ir <= 0.0) continue;
      double dist = Distance(Point(object.coords), query.point);
      reference.push_back(
          Scored{query.ir_weight * ir - query.distance_weight * dist,
                 object.id});
    }
    std::sort(reference.begin(), reference.end(),
              [](const Scored& a, const Scored& b) {
                return a.score > b.score;
              });

    std::vector<QueryResult> results = db->QueryGeneral(query).value();
    ASSERT_EQ(results.size(),
              std::min<size_t>(query.k, reference.size()));
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_NEAR(results[i].score, reference[i].score, 1e-9)
          << "rank " << i << " iter " << iter;
    }
    // Scores non-increasing.
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_GE(results[i - 1].score + 1e-12, results[i].score);
    }
  }
}

TEST(GeneralSearchTest, AllowZeroIrScoreFillsWithNearest) {
  std::vector<StoredObject> objects = RandomObjects(88, 100, 20, 3);
  auto db =
      SpatialKeywordDatabase::Build(objects, SmallTreeOptions(128)).value();
  GeneralQuery query;
  query.point = Point(500, 500);
  query.keywords = {"wordnobodyhas"};
  query.k = 5;
  EXPECT_TRUE(db->QueryGeneral(query).value().empty());
  query.allow_zero_ir_score = true;
  EXPECT_EQ(db->QueryGeneral(query).value().size(), 5u);
}

// ---- k far past the match count ----

// k is caller input (ir2_shell's "top <k> ..."); UINT32_MAX must mean
// "every match", not a reservation of k results.
TEST(HugeKTest, UintMaxKReturnsEveryMatch) {
  std::vector<StoredObject> objects = RandomObjects(61, 300, 20, 4);
  const DatabaseOptions options = SmallTreeOptions(128);
  auto db = SpatialKeywordDatabase::Build(objects, options).value();
  serving::ShardingOptions sharding;
  sharding.num_shards = 4;
  sharding.structures = kAllIndexes;  // Every fixed algorithm runs below.
  auto tier =
      serving::ShardedDatabase::Build(objects, options, sharding).value();

  DistanceFirstQuery query;
  query.point = Point(400, 600);
  query.keywords = {"w3"};
  query.k = std::numeric_limits<uint32_t>::max();
  const std::vector<uint32_t> expected =
      BruteForceDistanceFirst(objects, query.point, query.keywords, query.k);
  ASSERT_GT(expected.size(), 10u);
  for (Algorithm algo : {Algorithm::kRTree, Algorithm::kIio, Algorithm::kIr2,
                         Algorithm::kMir2, Algorithm::kKcTree,
                         Algorithm::kAuto}) {
    EXPECT_EQ(ResultIds(db->Query(query, algo).value()), expected)
        << AlgorithmName(algo);
    EXPECT_EQ(ResultIds(tier->Query(query, algo).value()), expected)
        << "4 shards, " << AlgorithmName(algo);
  }

  // General ranking: every object with a positive IR score, i.e. holding
  // at least one of the keywords.
  GeneralQuery general;
  general.point = query.point;
  general.keywords = {"w3", "w5"};
  general.k = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> any_match;
  for (const std::string& keyword : general.keywords) {
    for (uint32_t id : BruteForceDistanceFirst(objects, general.point,
                                               {keyword}, general.k)) {
      any_match.push_back(id);
    }
  }
  std::sort(any_match.begin(), any_match.end());
  any_match.erase(std::unique(any_match.begin(), any_match.end()),
                  any_match.end());
  std::vector<uint32_t> ranked = ResultIds(db->QueryGeneral(general).value());
  std::sort(ranked.begin(), ranked.end());
  EXPECT_EQ(ranked, any_match);
}

// ---- Stats plumbing ----

TEST(QueryStatsTest, Ir2PrunesMoreVisitsFewerObjectsThanRTree) {
  std::vector<StoredObject> objects = RandomObjects(99, 800, 50, 5);
  auto db =
      SpatialKeywordDatabase::Build(objects, SmallTreeOptions(256)).value();
  DistanceFirstQuery query;
  query.point = Point(500, 500);
  query.keywords = {"w7", "w13"};  // Rare conjunction.
  query.k = 4;

  QueryStats rtree_stats, ir2_stats;
  (void)db->QueryRTree(query, &rtree_stats).value();
  (void)db->QueryIr2(query, &ir2_stats).value();

  // The whole point of the IR2-Tree: far fewer object accesses.
  EXPECT_LT(ir2_stats.objects_loaded, rtree_stats.objects_loaded);
  EXPECT_GT(ir2_stats.entries_pruned, 0u);
  EXPECT_GT(rtree_stats.io.TotalReads(), 0u);
  EXPECT_GT(ir2_stats.seconds, 0.0);
  EXPECT_GT(rtree_stats.objects_loaded, 0u);
}

}  // namespace
}  // namespace ir2
