// The database build tokenizes its corpus once into term ids (CorpusTerms)
// and feeds every structure from them. These tests rebuild what each
// structure should hold from scratch, through the Tokenizer's string API
// alone, and compare: the dataset statistics, the KC vocabulary (against a
// string-keyed reference of the clustering), the inverted index's terms,
// document frequencies and postings, and the MIR2-Tree's signatures
// (against the object-loading fix-up pass).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "tests/test_util.h"
#include "text/tokenizer.h"

namespace ir2 {
namespace {

// Seeded objects whose texts mix case, repeat words, carry stopwords and
// UTF-8 bytes (>= 0x80, word separators to the tokenizer).
std::vector<StoredObject> RandomDataset(uint64_t seed, uint32_t n) {
  static const char* kVocab[] = {
      "pool", "Spa",  "INTERNET", "wifi", "gym",     "the",  "and",
      "of",   "bar",  "barbecue", "golf", "parking", "pets", "sauna",
      "view", "lake", "tennis",   "kids", "museum",  "a",    "breakfast"};
  static const char* kSeparators[] = {" ", ", ", " \xc3\xa9", "-", "/"};
  Rng rng(seed);
  std::vector<StoredObject> objects;
  for (uint32_t i = 0; i < n; ++i) {
    StoredObject object;
    object.id = i;
    object.coords = {rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)};
    const uint64_t words = i % 11 == 0 ? 0 : 1 + rng.NextUint64(12);
    for (uint64_t w = 0; w < words; ++w) {
      // Skewed draws: low indices are frequent and document frequencies
      // span several df tiers, so the KC hot set and its clustering have
      // something to work on.
      const uint64_t pick =
          rng.NextUint64(1 + rng.NextUint64(std::size(kVocab)));
      object.text += kVocab[pick];
      object.text += kSeparators[rng.NextUint64(std::size(kSeparators))];
    }
    objects.push_back(std::move(object));
  }
  return objects;
}

struct RefWord {
  std::string word;
  uint64_t df = 0;
  uint32_t cluster = 0;
};

// String-keyed reference of KcVocabulary::Build's clustering: hot set by
// (df desc, word asc), df tiers, greedy co-occurrence merge, cluster-major
// layout.
std::vector<RefWord> ReferenceKcWords(
    const std::vector<std::vector<std::string>>& docs,
    const KcVocabularyOptions& options) {
  std::map<std::string, uint64_t> df;
  for (const auto& doc : docs) {
    for (const std::string& word : doc) ++df[word];
  }
  std::vector<std::pair<std::string, uint64_t>> hot;
  for (const auto& [word, count] : df) {
    if (count >= std::max<uint64_t>(1, options.min_hot_df)) {
      hot.emplace_back(word, count);
    }
  }
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (hot.size() > options.max_hot_words) hot.resize(options.max_hot_words);
  const size_t n = hot.size();
  if (n == 0) return {};
  std::map<std::string, uint32_t> index;
  for (uint32_t i = 0; i < n; ++i) index[hot[i].first] = i;
  std::vector<uint64_t> cooc(n * n, 0);
  for (const auto& doc : docs) {
    std::vector<uint32_t> present;
    for (const std::string& word : doc) {
      if (index.contains(word)) present.push_back(index[word]);
    }
    std::sort(present.begin(), present.end());
    for (size_t a = 0; a < present.size(); ++a) {
      for (size_t b = a + 1; b < present.size(); ++b) {
        ++cooc[present[a] * n + present[b]];
      }
    }
  }
  std::vector<std::vector<uint32_t>> members;
  for (uint32_t i = 0; i < n; ++i) {
    if (i == 0 || std::bit_width(hot[i].second) !=
                      std::bit_width(hot[i - 1].second)) {
      members.emplace_back();
    }
    members.back().push_back(i);
  }
  auto affinity = [&](const std::vector<uint32_t>& a,
                      const std::vector<uint32_t>& b) {
    double best = 0.0;
    for (uint32_t x : a) {
      for (uint32_t y : b) {
        const uint64_t both = cooc[std::min(x, y) * n + std::max(x, y)];
        const uint64_t rarer = std::min(hot[x].second, hot[y].second);
        best = std::max(best, double(both) / double(rarer));
      }
    }
    return best;
  };
  while (members.size() > 1) {
    double best = 0.0;
    size_t best_a = 0, best_b = 0;
    for (size_t a = 0; a < members.size(); ++a) {
      for (size_t b = a + 1; b < members.size(); ++b) {
        if (members[a].size() + members[b].size() > options.max_cluster_words) {
          continue;
        }
        const double score = affinity(members[a], members[b]);
        if (score > best) {
          best = score;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best < options.cooc_merge_threshold) break;
    members[best_a].insert(members[best_a].end(), members[best_b].begin(),
                           members[best_b].end());
    std::sort(members[best_a].begin(), members[best_a].end());
    members.erase(members.begin() + best_b);
  }
  std::sort(members.begin(), members.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  std::vector<RefWord> words;
  for (uint32_t c = 0; c < members.size(); ++c) {
    for (uint32_t i : members[c]) {
      words.push_back(RefWord{hot[i].first, hot[i].second, c});
    }
  }
  return words;
}

std::map<std::string, std::string> ReadFiles(const std::string& directory) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

struct BuildCase {
  bool bulk_load;
  bool stopwords;
};

class BuildEquivalenceTest : public ::testing::TestWithParam<BuildCase> {};

TEST_P(BuildEquivalenceTest, StructuresMatchTokenizerBruteForce) {
  const BuildCase param = GetParam();
  for (uint64_t seed : {11, 12}) {
    SCOPED_TRACE(seed);
    const std::vector<StoredObject> objects = RandomDataset(seed, 300);
    DatabaseOptions options;
    options.bulk_load = param.bulk_load;
    if (param.stopwords) options.stopwords = EnglishStopwords();
    options.tree_options.capacity_override = 6;
    options.kc_vocabulary.max_hot_words = 10;
    options.kc_vocabulary.min_hot_df = 2;
    options.kc_vocabulary.max_cluster_words = 3;
    options.kc_vocabulary.cooc_merge_threshold = 0.3;
    auto built = SpatialKeywordDatabase::Build(objects, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    SpatialKeywordDatabase& db = *built.value();

    // Brute force through the Tokenizer's string API.
    const Tokenizer tokenizer(options.stopwords);
    std::vector<std::vector<std::string>> docs;
    std::map<std::string, std::vector<uint32_t>> postings;  // word -> ids
    uint64_t tokens = 0, pairs = 0;
    for (const StoredObject& object : objects) {
      docs.push_back(tokenizer.DistinctTokens(object.text));
      tokens += tokenizer.Tokenize(object.text).size();
      pairs += docs.back().size();
      for (const std::string& word : docs.back()) {
        postings[word].push_back(object.id);
      }
    }

    const DatasetStats& stats = db.stats();
    EXPECT_EQ(stats.num_objects, objects.size());
    EXPECT_EQ(stats.total_tokens, tokens);
    EXPECT_EQ(stats.total_distinct_words, pairs);
    EXPECT_EQ(stats.vocabulary_size, postings.size());

    // KC vocabulary: words, df, cluster assignment and layout.
    const std::vector<RefWord> expected_kc =
        ReferenceKcWords(docs, options.kc_vocabulary);
    const KcVocabulary& vocab = *db.kc_vocabulary();
    ASSERT_EQ(vocab.words().size(), expected_kc.size());
    ASSERT_GT(vocab.clusters().size(), 1u);
    for (size_t i = 0; i < expected_kc.size(); ++i) {
      EXPECT_EQ(vocab.words()[i].word, expected_kc[i].word) << i;
      EXPECT_EQ(vocab.words()[i].df, expected_kc[i].df) << i;
      EXPECT_EQ(vocab.words()[i].cluster, expected_kc[i].cluster) << i;
      EXPECT_EQ(vocab.words()[i].hash, HashWord(expected_kc[i].word)) << i;
    }
    for (size_t c = 0; c < vocab.clusters().size(); ++c) {
      const KcVocabulary::Cluster& cluster = vocab.clusters()[c];
      uint64_t max_df = 0;
      for (uint32_t b = 0; b < cluster.num_bits; ++b) {
        EXPECT_EQ(expected_kc[cluster.first_bit + b].cluster, c);
        max_df = std::max(max_df, expected_kc[cluster.first_bit + b].df);
      }
      EXPECT_EQ(cluster.max_df, max_df);
    }

    // Inverted index: every term, its df and its postings, nothing more.
    InvertedIndex& iio = *db.inverted_index();
    EXPECT_EQ(iio.num_terms(), postings.size());
    EXPECT_NEAR(iio.avg_doc_len(),
                static_cast<double>(tokens) / objects.size(), 1e-12);
    for (const auto& [word, ids] : postings) {
      EXPECT_EQ(iio.DocumentFrequency(word), ids.size()) << word;
      auto list = iio.RetrieveList(word);
      ASSERT_TRUE(list.ok()) << list.status().ToString();
      std::vector<uint32_t> got;
      for (ObjectRef ref : list.value()) {
        got.push_back(db.object_store().Load(ref).value().id);
      }
      EXPECT_EQ(got, ids) << word;
    }
  }
}

// The facade's MIR2 fix-up pass takes hashes from the build's corpus and
// loads no object; running the object-loading pass over the built tree
// afterwards must change no byte of any saved file.
TEST_P(BuildEquivalenceTest, Mir2MatchesObjectLoadingFixup) {
  const BuildCase param = GetParam();
  const std::vector<StoredObject> objects = RandomDataset(13, 400);
  DatabaseOptions options;
  options.bulk_load = param.bulk_load;
  if (param.stopwords) options.stopwords = EnglishStopwords();
  options.tree_options.capacity_override = 5;
  options.structures = StructureSet{Structure::kMir2};
  auto built = SpatialKeywordDatabase::Build(objects, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  SpatialKeywordDatabase& db = *built.value();
  Mir2Tree& tree = *db.mir2_tree();
  ASSERT_GE(tree.height(), 2u);
  EXPECT_EQ(tree.maintenance_object_loads(), 0u);

  const std::string root =
      ::testing::TempDir() + "/ir2db_build_equivalence_test";
  std::filesystem::remove_all(root);
  ASSERT_TRUE(db.Save(root + "/corpus").ok());
  ASSERT_TRUE(tree.RecomputeAllSignatures().ok());
  EXPECT_EQ(tree.maintenance_object_loads(), objects.size());
  ASSERT_TRUE(db.Save(root + "/loaded").ok());

  const auto corpus_files = ReadFiles(root + "/corpus");
  const auto loaded_files = ReadFiles(root + "/loaded");
  ASSERT_FALSE(corpus_files.empty());
  ASSERT_EQ(corpus_files.size(), loaded_files.size());
  for (const auto& [name, bytes] : corpus_files) {
    ASSERT_TRUE(loaded_files.contains(name)) << name;
    EXPECT_TRUE(bytes == loaded_files.at(name)) << name << " differs";
  }
  std::filesystem::remove_all(root);
}

INSTANTIATE_TEST_SUITE_P(
    InsertAndBulkLoad, BuildEquivalenceTest,
    ::testing::Values(BuildCase{false, false}, BuildCase{false, true},
                      BuildCase{true, false}, BuildCase{true, true}),
    [](const ::testing::TestParamInfo<BuildCase>& info) {
      return std::string(info.param.bulk_load ? "BulkLoad" : "Insert") +
             (info.param.stopwords ? "Stopwords" : "NoStopwords");
    });

}  // namespace
}  // namespace ir2
