#include "core/kc_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/batch_executor.h"
#include "core/database.h"
#include "datagen/workload.h"
#include "obs/metrics.h"
#include "storage/block_device.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"
#include "text/tokenizer.h"

namespace ir2 {
namespace {

using testing_util::BruteForceDistanceFirst;
using testing_util::RandomObjects;
using testing_util::ResultIds;

std::vector<std::vector<std::string>> DistinctDocs(
    const std::vector<StoredObject>& objects, const Tokenizer& tokenizer) {
  std::vector<std::vector<std::string>> docs;
  docs.reserve(objects.size());
  for (const StoredObject& object : objects) {
    docs.push_back(tokenizer.DistinctTokens(object.text));
  }
  return docs;
}

// ---------------------------------------------------------------------------
// KcVocabulary: clustering, layout, lookup.

TEST(KcVocabularyTest, HotSetIsHighestDfAndLayoutIsClusterMajor) {
  std::vector<StoredObject> objects = RandomObjects(3, 500, 30, 6);
  Tokenizer tokenizer;
  KcVocabularyOptions options;
  options.max_hot_words = 12;
  options.min_hot_df = 1;
  KcVocabulary vocab = KcVocabulary::Build(
      CorpusTerms::Build(tokenizer, objects), options, SignatureConfig{128, 3});

  ASSERT_EQ(vocab.hot_bits(), 12u);
  EXPECT_EQ(vocab.hot_bytes(), 2u);
  EXPECT_EQ(vocab.payload_bytes(), 2u + vocab.cold_bytes());

  // Every hot word's df must be >= every excluded word's df: the hot set is
  // exactly the top of the frequency distribution.
  uint64_t min_hot_df = UINT64_MAX;
  std::set<std::string> hot_words;
  for (const KcVocabulary::Word& word : vocab.words()) {
    min_hot_df = std::min(min_hot_df, word.df);
    hot_words.insert(word.word);
    EXPECT_EQ(word.hash, HashWord(word.word));
  }
  // Recount dfs independently and compare against the excluded words.
  std::map<std::string, uint64_t> df;
  for (const auto& doc : DistinctDocs(objects, tokenizer)) {
    for (const std::string& w : doc) ++df[w];
  }
  for (const auto& [word, count] : df) {
    if (!hot_words.contains(word)) {
      EXPECT_LE(count, min_hot_df) << word;
    }
  }

  // Cluster-major: cluster c owns the contiguous bits
  // [first_bit, first_bit + num_bits), covering [0, hot_bits) exactly.
  uint32_t next = 0;
  for (const KcVocabulary::Cluster& cluster : vocab.clusters()) {
    EXPECT_EQ(cluster.first_bit, next);
    EXPECT_GE(cluster.num_bits, 1u);
    for (uint32_t b = 0; b < cluster.num_bits; ++b) {
      EXPECT_EQ(vocab.ClusterOfBit(cluster.first_bit + b),
                static_cast<uint32_t>(&cluster - vocab.clusters().data()));
    }
    next += cluster.num_bits;
  }
  EXPECT_EQ(next, vocab.hot_bits());

  // HotBit is a total, consistent lookup: words()[i] maps to bit i, and
  // non-hot words map to -1.
  for (uint32_t i = 0; i < vocab.hot_bits(); ++i) {
    EXPECT_EQ(vocab.HotBit(vocab.words()[i].hash), static_cast<int32_t>(i));
  }
  EXPECT_EQ(vocab.HotBit(HashWord("definitely-not-a-dataset-word")), -1);
}

TEST(KcVocabularyTest, BuildIsDeterministic) {
  std::vector<StoredObject> objects = RandomObjects(9, 300, 25, 5);
  Tokenizer tokenizer;
  KcVocabularyOptions options;
  options.min_hot_df = 2;
  KcVocabulary a = KcVocabulary::Build(CorpusTerms::Build(tokenizer, objects),
                                       options, SignatureConfig{96, 3});
  KcVocabulary b = KcVocabulary::Build(CorpusTerms::Build(tokenizer, objects),
                                       options, SignatureConfig{96, 3});
  ASSERT_EQ(a.words().size(), b.words().size());
  for (size_t i = 0; i < a.words().size(); ++i) {
    EXPECT_EQ(a.words()[i].word, b.words()[i].word);
    EXPECT_EQ(a.words()[i].df, b.words()[i].df);
    EXPECT_EQ(a.words()[i].cluster, b.words()[i].cluster);
  }
}

TEST(KcVocabularyTest, FromWordsRoundTripsAndRejectsGaps) {
  std::vector<StoredObject> objects = RandomObjects(5, 400, 20, 5);
  Tokenizer tokenizer;
  KcVocabulary built = KcVocabulary::Build(CorpusTerms::Build(tokenizer, objects),
                                           KcVocabularyOptions{},
                                           SignatureConfig{64, 3});
  ASSERT_GT(built.hot_bits(), 0u);

  std::vector<KcVocabulary::Word> words(built.words().begin(),
                                        built.words().end());
  auto round = KcVocabulary::FromWords(words, built.cold_config());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round.value().hot_bits(), built.hot_bits());
  EXPECT_EQ(round.value().clusters().size(), built.clusters().size());
  for (uint32_t i = 0; i < built.hot_bits(); ++i) {
    EXPECT_EQ(round.value().HotBit(built.words()[i].hash),
              static_cast<int32_t>(i));
    EXPECT_EQ(round.value().ClusterOfBit(i), built.words()[i].cluster);
  }

  // Cluster ids must form a contiguous run per cluster; a gap is a corrupt
  // manifest, not a vocabulary.
  std::vector<KcVocabulary::Word> corrupt = words;
  if (corrupt.size() >= 3) {
    corrupt[1].cluster = corrupt.back().cluster + 7;
    EXPECT_FALSE(KcVocabulary::FromWords(corrupt, built.cold_config()).ok());
  }
}

// ---------------------------------------------------------------------------
// Query bits and the hybrid payload.

struct KcFixture {
  // Inserts object i under ref refs[i] (or i itself when refs is empty —
  // enough for tests that never load the object text back).
  KcFixture(const std::vector<StoredObject>& objects, uint32_t capacity,
            KcVocabularyOptions options, SignatureConfig fallback,
            std::span<const ObjectRef> refs = {})
      : device(), pool(&device, 4096) {
    vocab = KcVocabulary::Build(CorpusTerms::Build(tokenizer, objects), options,
                                fallback);
    RTreeOptions tree_options;
    tree_options.capacity_override = capacity;
    tree = std::make_unique<KcTree>(&pool, tree_options, &vocab);
    IR2_CHECK_OK(tree->Init());
    for (uint32_t i = 0; i < objects.size(); ++i) {
      std::vector<uint64_t> hashes;
      for (const std::string& w : tokenizer.DistinctTokens(objects[i].text)) {
        hashes.push_back(HashWord(w));
      }
      IR2_CHECK_OK(tree->InsertObject(
          refs.empty() ? i : refs[i],
          Rect::ForPoint(Point(objects[i].coords)),
          std::span<const uint64_t>(hashes)));
    }
  }

  MemoryBlockDevice device;
  BufferPool pool;
  Tokenizer tokenizer;
  KcVocabulary vocab;
  std::unique_ptr<KcTree> tree;
};

TEST(KcTreeTest, QueryBitsSplitHotAndColdRegions) {
  std::vector<StoredObject> objects = RandomObjects(7, 400, 20, 6);
  KcVocabularyOptions options;
  options.max_hot_words = 8;
  options.min_hot_df = 1;
  KcFixture fx(objects, 8, options, SignatureConfig{128, 3});
  ASSERT_EQ(fx.vocab.hot_bits(), 8u);

  const uint32_t hot_region = fx.vocab.hot_bytes() * 8;
  // A hot keyword sets exactly its dedicated bit, nothing in the cold
  // region.
  for (uint32_t i = 0; i < fx.vocab.hot_bits(); ++i) {
    const uint64_t hash = fx.vocab.words()[i].hash;
    Signature bits;
    fx.tree->QueryBitsInto(std::span<const uint64_t>(&hash, 1), &bits);
    ASSERT_EQ(bits.num_bits(), fx.vocab.payload_bytes() * 8);
    EXPECT_EQ(testing_util::CountOnes(bits), 1u);
    EXPECT_TRUE(bits.TestBit(i));
  }
  // A cold keyword leaves the hot region untouched and sets at most
  // hashes_per_word bits in the cold region.
  uint64_t cold_hash = 0;
  for (const std::string& w :
       {std::string("w10"), std::string("w15"), std::string("w19")}) {
    if (fx.vocab.HotBit(HashWord(w)) < 0) cold_hash = HashWord(w);
  }
  ASSERT_NE(cold_hash, 0u) << "dataset unexpectedly made every word hot";
  Signature cold_bits;
  fx.tree->QueryBitsInto(std::span<const uint64_t>(&cold_hash, 1),
                         &cold_bits);
  for (uint32_t b = 0; b < hot_region; ++b) {
    EXPECT_FALSE(cold_bits.TestBit(b));
  }
  EXPECT_GE(testing_util::CountOnes(cold_bits), 1u);
  EXPECT_LE(testing_util::CountOnes(cold_bits),
            fx.vocab.cold_config().hashes_per_word);
}

// The structural core of the design: the hot bitmap is exact. For every hot
// word, the set of leaf entries whose payload contains the word's query
// bits must be exactly the set of objects that contain the word — no false
// positives, no false negatives. The cold tail, by contrast, is allowed to
// false-positive (superimposed coding) but never to false-negative.
TEST(KcTreeTest, HotBitmapIsExactColdTailNeverFalseNegatives) {
  std::vector<StoredObject> objects = RandomObjects(13, 500, 25, 6);
  KcVocabularyOptions options;
  options.max_hot_words = 10;
  options.min_hot_df = 1;
  KcFixture fx(objects, 8, options, SignatureConfig{64, 3});
  ASSERT_TRUE(fx.tree->Validate().ok());

  for (uint32_t w = 0; w < 25; ++w) {
    const std::string word = "w" + std::to_string(w);
    const uint64_t hash = HashWord(word);
    const bool hot = fx.vocab.HotBit(hash) >= 0;
    Signature bits;
    fx.tree->QueryBitsInto(std::span<const uint64_t>(&hash, 1), &bits);

    std::set<ObjectRef> expected;
    for (uint32_t i = 0; i < objects.size(); ++i) {
      if (ContainsAllKeywords(fx.tokenizer, objects[i].text, {word})) {
        expected.insert(i);
      }
    }

    std::set<ObjectRef> survivors;
    IncrementalNNCursor cursor(
        fx.tree.get(), Point(500, 500),
        [&](const Node& /*node*/, const Entry& entry) {
          return PayloadContainsSignature(entry.payload, bits);
        });
    while (true) {
      auto neighbor = cursor.Next().value();
      if (!neighbor.has_value()) break;
      survivors.insert(neighbor->ref);
    }

    for (ObjectRef ref : expected) {
      EXPECT_TRUE(survivors.contains(ref))
          << "false negative for " << word << " object " << ref;
    }
    if (hot) {
      EXPECT_EQ(survivors, expected) << "hot word " << word
                                     << " produced a false positive";
    }
  }
}

TEST(KcTreeTest, TopKMatchesBruteForceFuzz) {
  Rng rng(21);
  for (int round = 0; round < 4; ++round) {
    std::vector<StoredObject> objects =
        RandomObjects(100 + round, 300, 18, 5);
    MemoryBlockDevice object_device;
    ObjectStoreWriter writer(&object_device);
    std::vector<ObjectRef> refs;
    for (const StoredObject& object : objects) {
      refs.push_back(writer.Append(object).value());
    }
    IR2_CHECK_OK(writer.Finish());
    ObjectStore store(&object_device, writer.bytes_written());

    KcVocabularyOptions options;
    options.max_hot_words = 6 + 4 * round;
    options.min_hot_df = 1 + round;
    KcFixture fx(objects, 6, options, SignatureConfig{96, 3}, refs);

    for (int q = 0; q < 25; ++q) {
      DistanceFirstQuery query;
      query.point = Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
      query.k = 1 + static_cast<uint32_t>(rng.NextUint64(10));
      const uint32_t num_keywords = 1 + static_cast<uint32_t>(
          rng.NextUint64(3));
      for (uint32_t j = 0; j < num_keywords; ++j) {
        query.keywords.push_back("w" + std::to_string(rng.NextUint64(18)));
      }
      QueryStats stats;
      auto results = KcTopK(*fx.tree, store, fx.tokenizer, query, &stats);
      ASSERT_TRUE(results.ok()) << results.status().ToString();
      EXPECT_EQ(ResultIds(results.value()),
                BruteForceDistanceFirst(objects, query.point, query.keywords,
                                        query.k))
          << "round " << round << " query " << q;
      EXPECT_TRUE(testing_util::DistancesSorted(results.value()));
      EXPECT_EQ(stats.entries_pruned,
                stats.kc_bitmap_prunes + stats.kc_signature_prunes);
    }
  }
}

// ---------------------------------------------------------------------------
// Database integration: result parity, bounded queries, persistence, batch.

struct DbFixture {
  DbFixture(uint64_t seed, uint32_t n, uint32_t vocab, uint32_t words,
            uint32_t signature_bits) {
    objects = RandomObjects(seed, n, vocab, words);
    DatabaseOptions options;
    options.tree_options.capacity_override = 12;
    options.ir2_signature = SignatureConfig{signature_bits, 3};
    db = SpatialKeywordDatabase::Build(objects, options).value();
    WorkloadConfig config;
    config.seed = seed + 1;
    config.num_queries = 24;
    config.num_keywords = 2;
    config.k = 6;
    queries = GenerateWorkload(objects, db->tokenizer(), config);
  }

  std::vector<StoredObject> objects;
  std::unique_ptr<SpatialKeywordDatabase> db;
  std::vector<DistanceFirstQuery> queries;
};

void ExpectSameResults(const std::vector<QueryResult>& a,
                       const std::vector<QueryResult>& b, size_t i) {
  ASSERT_EQ(a.size(), b.size()) << "query " << i;
  for (size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].object_id, b[r].object_id) << "query " << i << " rank "
                                              << r;
    EXPECT_EQ(a[r].distance, b[r].distance) << "query " << i << " rank " << r;
  }
}

// Top-k answers must be byte-identical to the exact algorithms on datasets
// shaped like both of the paper's (large vocabulary + wide signature, small
// vocabulary + narrow signature): KC changes the pruning, never the answer.
TEST(KcDatabaseTest, TopKMatchesIr2AndIioOnBothDatasetShapes) {
  for (auto [seed, n, vocab, words, bits] :
       {std::tuple{1234u, 600u, 40u, 6u, 256u},
        std::tuple{4321u, 400u, 15u, 4u, 64u}}) {
    DbFixture fx(seed, n, vocab, words, bits);
    for (size_t i = 0; i < fx.queries.size(); ++i) {
      auto kc = fx.db->QueryKc(fx.queries[i]);
      auto ir2 = fx.db->QueryIr2(fx.queries[i]);
      auto iio = fx.db->QueryIio(fx.queries[i]);
      ASSERT_TRUE(kc.ok() && ir2.ok() && iio.ok());
      ExpectSameResults(kc.value(), ir2.value(), i);
      ExpectSameResults(kc.value(), iio.value(), i);
    }
  }
}

// The bounded-cursor query form: max_distance is an inclusive radius cap,
// and a capped query returns exactly the uncapped result list truncated at
// the bound — for every algorithm, since the facade routes the bound into
// each cursor.
TEST(KcDatabaseTest, MaxDistanceBoundsAreInclusiveAndExact) {
  DbFixture fx(55, 500, 25, 5, 128);
  for (Algorithm algo : {Algorithm::kRTree, Algorithm::kIio, Algorithm::kIr2,
                         Algorithm::kMir2, Algorithm::kKcTree}) {
    for (size_t i = 0; i < fx.queries.size(); ++i) {
      auto full = fx.db->Query(fx.queries[i], algo);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      if (full.value().size() < 2) continue;
      // Cap at the middle result's distance: everything at or below stays
      // (inclusive bound), everything past it goes.
      const double bound = full.value()[full.value().size() / 2].distance;
      std::vector<QueryResult> expected;
      for (const QueryResult& r : full.value()) {
        if (r.distance <= bound) expected.push_back(r);
      }
      DistanceFirstQuery capped = fx.queries[i];
      capped.max_distance = bound;
      auto bounded = fx.db->Query(capped, algo);
      ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
      ExpectSameResults(bounded.value(), expected, i);
    }
  }
}

// A capped KC query may stop its distance-ordered traversal at the bound,
// so it can never do more work than the uncapped run.
TEST(KcDatabaseTest, MaxDistanceNeverIncreasesWork) {
  DbFixture fx(77, 500, 25, 5, 128);
  for (const DistanceFirstQuery& query : fx.queries) {
    QueryStats full_stats;
    ASSERT_TRUE(fx.db->QueryKc(query, &full_stats).ok());
    DistanceFirstQuery capped = query;
    capped.max_distance = 100.0;
    QueryStats capped_stats;
    ASSERT_TRUE(fx.db->QueryKc(capped, &capped_stats).ok());
    EXPECT_LE(capped_stats.nodes_visited, full_stats.nodes_visited);
    EXPECT_LE(capped_stats.objects_loaded, full_stats.objects_loaded);
  }
}

// The /metrics KC counters are bumped per expanded node (tests) and per
// prune, not per query, so their deltas over a workload must equal the
// summed QueryStats exactly — the per-query and the global view of the same
// filter work never drift apart. Covers facade queries (cursor-owned
// buffers) and a two-worker BatchExecutor run (worker-donated scratch).
TEST(KcDatabaseTest, MetricsCounterDeltasMatchSummedQueryStats) {
  DbFixture fx(66, 500, 25, 5, 128);
  const obs::CoreMetrics& metrics = obs::DefaultMetrics();
  const uint64_t tests_before = metrics.kctree_bitmap_tests->Value();
  const uint64_t bitmap_before = metrics.kctree_bitmap_prunes->Value();
  const uint64_t signature_before = metrics.kctree_signature_prunes->Value();
  QueryStats total;
  for (const DistanceFirstQuery& query : fx.queries) {
    ASSERT_TRUE(fx.db->QueryKc(query, &total).ok());
  }
  BatchExecutorOptions batch_options;
  batch_options.algorithm = Algorithm::kKcTree;
  batch_options.num_threads = 2;
  BatchExecutor executor(fx.db.get(), batch_options);
  auto batch = executor.Run(fx.queries);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (const QueryStats& stats : batch.value().per_query) total += stats;

  EXPECT_GT(total.kc_bitmap_tests, 0u);
  EXPECT_EQ(metrics.kctree_bitmap_tests->Value() - tests_before,
            total.kc_bitmap_tests);
  EXPECT_EQ(metrics.kctree_bitmap_prunes->Value() - bitmap_before,
            total.kc_bitmap_prunes);
  EXPECT_EQ(metrics.kctree_signature_prunes->Value() - signature_before,
            total.kc_signature_prunes);
}

TEST(KcDatabaseTest, SaveOpenRoundTripPreservesVocabularyAndAnswers) {
  DbFixture fx(88, 450, 30, 5, 128);
  ASSERT_NE(fx.db->kc_tree(), nullptr);
  ASSERT_NE(fx.db->kc_vocabulary(), nullptr);
  EXPECT_GT(fx.db->KcTreeBytes(), 0u);

  const std::string directory = ::testing::TempDir() + "/ir2db_kc_roundtrip";
  std::filesystem::remove_all(directory);
  ASSERT_TRUE(fx.db->Save(directory).ok());
  auto reopened = SpatialKeywordDatabase::Open(directory);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<SpatialKeywordDatabase> file_db =
      std::move(reopened).value();

  ASSERT_NE(file_db->kc_tree(), nullptr);
  const KcVocabulary& a = *fx.db->kc_vocabulary();
  const KcVocabulary& b = *file_db->kc_vocabulary();
  ASSERT_EQ(a.words().size(), b.words().size());
  for (size_t i = 0; i < a.words().size(); ++i) {
    EXPECT_EQ(a.words()[i].word, b.words()[i].word);
    EXPECT_EQ(a.words()[i].hash, b.words()[i].hash);
    EXPECT_EQ(a.words()[i].df, b.words()[i].df);
    EXPECT_EQ(a.words()[i].cluster, b.words()[i].cluster);
  }
  EXPECT_EQ(a.cold_config(), b.cold_config());

  for (size_t i = 0; i < fx.queries.size(); ++i) {
    auto memory = fx.db->QueryKc(fx.queries[i]);
    auto file = file_db->QueryKc(fx.queries[i]);
    ASSERT_TRUE(memory.ok() && file.ok());
    ExpectSameResults(memory.value(), file.value(), i);
  }
  std::filesystem::remove_all(directory);
}

// Thread-safety hammer (run under TSan by scripts/check.sh): a KC batch at
// eight workers must reproduce the serial per-query results and profiles
// exactly — worker-private pools, shared read-only tree and vocabulary.
TEST(KcDatabaseTest, BatchExecutorKcProfilesIdenticalAcrossThreadCounts) {
  DbFixture fx(99, 400, 25, 5, 128);
  BatchExecutorOptions options;
  options.algorithm = Algorithm::kKcTree;
  options.num_threads = 1;
  BatchExecutor serial(fx.db.get(), options);
  BatchResults base = serial.Run(fx.queries).value();
  ASSERT_EQ(base.results.size(), fx.queries.size());

  options.num_threads = 8;
  BatchExecutor parallel(fx.db.get(), options);
  BatchResults batch = parallel.Run(fx.queries).value();
  for (size_t i = 0; i < fx.queries.size(); ++i) {
    ExpectSameResults(base.results[i], batch.results[i], i);
    EXPECT_EQ(base.per_query[i].nodes_visited,
              batch.per_query[i].nodes_visited) << "query " << i;
    EXPECT_EQ(base.per_query[i].kc_bitmap_prunes,
              batch.per_query[i].kc_bitmap_prunes) << "query " << i;
    EXPECT_EQ(base.per_query[i].kc_signature_prunes,
              batch.per_query[i].kc_signature_prunes) << "query " << i;
    EXPECT_EQ(base.per_query[i].io, batch.per_query[i].io) << "query " << i;
  }
}

}  // namespace
}  // namespace ir2
