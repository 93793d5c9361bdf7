#include "text/corpus_terms.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "tests/test_util.h"
#include "text/signature.h"
#include "text/tokenizer.h"

namespace ir2 {
namespace {

// Seeded random texts: vocabulary words (stopwords among them) in mixed
// case and repeated, glued by separators including bytes >= 0x80 and
// arbitrary bytes (testing_util::AdversarialText), with every seventh text
// empty.
std::vector<StoredObject> RandomTexts(uint64_t seed, size_t n) {
  const std::vector<std::string> vocab = {
      "pool", "spa",  "internet", "wifi", "gym", "the", "and", "of",
      "a",    "bar",  "barbecue", "x",    "42",  "pool2", "zz", "caf"};
  Rng rng(seed);
  std::vector<StoredObject> objects(n);
  for (size_t i = 0; i < n; ++i) {
    objects[i].id = static_cast<uint32_t>(i);
    if (i % 7 != 0) {
      objects[i].text =
          testing_util::AdversarialText(rng, 1 + rng.NextUint64(120), vocab);
    }
  }
  return objects;
}

void ExpectMatchesTokenizer(const Tokenizer& tokenizer,
                            const std::vector<StoredObject>& objects) {
  const CorpusTerms corpus = CorpusTerms::Build(tokenizer, objects);
  ASSERT_EQ(corpus.num_docs(), objects.size());

  // Ids are lexicographic ranks.
  for (size_t t = 1; t < corpus.num_terms(); ++t) {
    EXPECT_LT(corpus.terms()[t - 1].word, corpus.terms()[t].word);
  }

  std::map<std::string, uint32_t> brute_df;
  uint64_t brute_tokens = 0;
  uint64_t brute_pairs = 0;
  const std::vector<uint64_t> all_hashes = corpus.AllDocHashes();
  std::vector<uint64_t> hashes;
  for (size_t doc = 0; doc < objects.size(); ++doc) {
    const std::vector<std::string> distinct =
        tokenizer.DistinctTokens(objects[doc].text);
    const size_t tokens = tokenizer.Tokenize(objects[doc].text).size();
    brute_tokens += tokens;
    brute_pairs += distinct.size();
    for (const std::string& word : distinct) ++brute_df[word];

    EXPECT_EQ(corpus.TokenCount(doc), tokens) << "doc " << doc;
    std::vector<std::string> words;
    std::vector<uint64_t> expected_hashes;
    for (uint32_t id : corpus.DocTerms(doc)) {
      words.push_back(corpus.terms()[id].word);
    }
    for (const std::string& word : distinct) {
      expected_hashes.push_back(HashWord(word));
    }
    EXPECT_EQ(words, distinct) << "doc " << doc;
    corpus.DocHashes(doc, &hashes);
    EXPECT_EQ(hashes, expected_hashes) << "doc " << doc;
    const std::span<const uint64_t> slice = corpus.DocSlice(all_hashes, doc);
    EXPECT_EQ(std::vector<uint64_t>(slice.begin(), slice.end()),
              expected_hashes)
        << "doc " << doc;
  }
  EXPECT_EQ(corpus.total_tokens(), brute_tokens);
  EXPECT_EQ(corpus.num_pairs(), brute_pairs);

  ASSERT_EQ(corpus.num_terms(), brute_df.size());
  size_t t = 0;
  for (const auto& [word, df] : brute_df) {
    const CorpusTerms::Term& term = corpus.terms()[t++];
    EXPECT_EQ(term.word, word);
    EXPECT_EQ(term.df, df) << word;
    EXPECT_EQ(term.hash, HashWord(word)) << word;
  }

  // The inverse CSR lists, per term, exactly the documents containing it.
  const CorpusTerms::Postings postings = corpus.Invert();
  for (uint32_t term = 0; term < corpus.num_terms(); ++term) {
    std::vector<uint32_t> expected;
    for (size_t doc = 0; doc < objects.size(); ++doc) {
      const std::span<const uint32_t> ids = corpus.DocTerms(doc);
      if (std::binary_search(ids.begin(), ids.end(), term)) {
        expected.push_back(static_cast<uint32_t>(doc));
      }
    }
    const std::span<const uint32_t> docs = postings.Docs(term);
    EXPECT_EQ(std::vector<uint32_t>(docs.begin(), docs.end()), expected)
        << corpus.terms()[term].word;
  }
}

TEST(CorpusTermsTest, MatchesTokenizerOnRandomTexts) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    ExpectMatchesTokenizer(Tokenizer(), RandomTexts(seed, 200));
  }
}

TEST(CorpusTermsTest, MatchesTokenizerWithStopwords) {
  for (uint64_t seed : {4, 5}) {
    SCOPED_TRACE(seed);
    ExpectMatchesTokenizer(Tokenizer(EnglishStopwords()),
                           RandomTexts(seed, 200));
  }
}

// Texts heavy in duplicates: each repeats a few words many times in mixed
// case, many texts share one word set, some texts are identical, and the
// vocabulary is large enough that the term table grows several times. A
// term must join a document once however often the document repeats it.
std::vector<StoredObject> DuplicateHeavyTexts(uint64_t seed, size_t n) {
  std::vector<std::string> vocab;
  for (int w = 0; w < 3000; ++w) {
    std::string word;
    for (int v = w; ; v /= 26) {
      word.push_back(static_cast<char>('a' + v % 26));
      if (v < 26) break;
    }
    vocab.push_back(word + "q");
  }
  Rng rng(seed);
  std::vector<StoredObject> objects(n);
  for (size_t i = 0; i < n; ++i) {
    objects[i].id = static_cast<uint32_t>(i);
    if (i % 5 == 4) {
      objects[i].text = objects[i - 1].text;  // An identical text.
      continue;
    }
    // A shared hot set, then a few of this text's own, each repeated.
    std::vector<std::string> words = {"pool", "Pool", "POOL", "spa"};
    for (int w = 0; w < 6; ++w) {
      words.push_back(vocab[rng.NextUint64(vocab.size())]);
    }
    const size_t repeats = 1 + rng.NextUint64(40);
    for (size_t r = 0; r < repeats; ++r) {
      for (const std::string& word : words) {
        objects[i].text += word;
        objects[i].text += rng.NextUint64(3) == 0 ? ", " : " ";
      }
    }
  }
  return objects;
}

TEST(CorpusTermsTest, MatchesTokenizerOnDuplicateHeavyTexts) {
  for (uint64_t seed : {6, 7}) {
    SCOPED_TRACE(seed);
    ExpectMatchesTokenizer(Tokenizer(), DuplicateHeavyTexts(seed, 400));
    ExpectMatchesTokenizer(Tokenizer(EnglishStopwords()),
                           DuplicateHeavyTexts(seed, 400));
  }
}

TEST(CorpusTermsTest, FoldsCaseAndCountsRepeats) {
  std::vector<StoredObject> objects(4);
  objects[0].text = "Pool pool POOL spa";
  objects[1].text = "the spa and the gym";
  objects[2].text = "";
  objects[3].text = "caf\xc3\xa9 wifi";
  const CorpusTerms corpus =
      CorpusTerms::Build(Tokenizer(EnglishStopwords()), objects);
  ASSERT_EQ(corpus.num_terms(), 5u);
  const std::vector<std::string> expected = {"caf", "gym", "pool", "spa",
                                             "wifi"};
  for (size_t t = 0; t < expected.size(); ++t) {
    EXPECT_EQ(corpus.terms()[t].word, expected[t]);
  }
  EXPECT_EQ(corpus.terms()[3].df, 2u);  // spa
  EXPECT_EQ(corpus.TokenCount(0), 4u);
  EXPECT_EQ(corpus.TokenCount(1), 2u);  // "the" and "and" are stopwords.
  EXPECT_EQ(corpus.TokenCount(2), 0u);
  EXPECT_TRUE(corpus.DocTerms(2).empty());
  EXPECT_EQ(corpus.TokenCount(3), 2u);  // 0xc3 0xa9 separates words.
  EXPECT_EQ(corpus.num_pairs(), 2u + 2u + 0u + 2u);
}

TEST(CorpusTermsTest, EmptyCorpus) {
  const CorpusTerms corpus = CorpusTerms::Build(Tokenizer(), {});
  EXPECT_EQ(corpus.num_docs(), 0u);
  EXPECT_EQ(corpus.num_terms(), 0u);
  EXPECT_EQ(corpus.total_tokens(), 0u);
  EXPECT_TRUE(corpus.Invert().docs.empty());
}

}  // namespace
}  // namespace ir2
