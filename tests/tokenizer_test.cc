#include "text/tokenizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

TEST(TokenizerTest, SplitsOnNonAlnumAndLowercases) {
  Tokenizer tokenizer;
  EXPECT_EQ(tokenizer.Tokenize("wireless Internet, pool"),
            (std::vector<std::string>{"wireless", "internet", "pool"}));
  EXPECT_EQ(tokenizer.Tokenize("Wi-Fi  24/7!"),
            (std::vector<std::string>{"wi", "fi", "24", "7"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  Tokenizer tokenizer;
  EXPECT_TRUE(tokenizer.Tokenize("").empty());
  EXPECT_TRUE(tokenizer.Tokenize(" ,;-! ").empty());
}

TEST(TokenizerTest, DistinctTokensDeduplicates) {
  Tokenizer tokenizer;
  std::vector<std::string> distinct =
      tokenizer.DistinctTokens("pool spa POOL Spa pool");
  EXPECT_EQ(distinct, (std::vector<std::string>{"pool", "spa"}));
}

TEST(TokenizerTest, NormalizeMatchesTokenization) {
  EXPECT_EQ(Tokenizer::Normalize("Internet"), "internet");
  EXPECT_EQ(Tokenizer::Normalize("Wi-Fi"), "wifi");
  EXPECT_EQ(Tokenizer::Normalize("POOL!"), "pool");
}

TEST(TokenizerTest, CountTerms) {
  Tokenizer tokenizer;
  TermCounts counts = CountTerms(tokenizer, "pool spa pool pool");
  EXPECT_EQ(counts.total_tokens, 4u);
  ASSERT_EQ(counts.counts.size(), 2u);
  uint32_t pool_count = 0, spa_count = 0;
  for (const auto& [word, count] : counts.counts) {
    if (word == "pool") pool_count = count;
    if (word == "spa") spa_count = count;
  }
  EXPECT_EQ(pool_count, 3u);
  EXPECT_EQ(spa_count, 1u);
}

TEST(TokenizerTest, ContainsAllKeywordsIsCaseInsensitiveBooleanAnd) {
  Tokenizer tokenizer;
  std::string text = "wireless Internet, pool, golf course";  // H2.
  EXPECT_TRUE(ContainsAllKeywords(tokenizer, text, {"internet", "pool"}));
  EXPECT_TRUE(ContainsAllKeywords(tokenizer, text, {"Internet", "POOL"}));
  EXPECT_FALSE(ContainsAllKeywords(tokenizer, text, {"internet", "spa"}));
  EXPECT_TRUE(ContainsAllKeywords(tokenizer, text, {}));  // Vacuous.
}

TEST(TokenizerTest, SubstringIsNotAMatch) {
  Tokenizer tokenizer;
  // "pool" must not match inside "whirlpool".
  EXPECT_FALSE(ContainsAllKeywords(tokenizer, "whirlpool suite", {"pool"}));
  EXPECT_TRUE(ContainsAllKeywords(tokenizer, "whirlpool suite", {"whirlpool"}));
}

TEST(TokenizerTest, ContainsAllNormalizedKeywordsMatchesTokenizedForm) {
  // The allocation-free form assumes normalized keywords and must agree
  // with ContainsAllKeywords on every text (it is the query hot path's
  // verification step).
  Tokenizer tokenizer;
  std::vector<std::string> kw = tokenizer.NormalizeKeywords(
      {"Internet", "pool"});
  EXPECT_TRUE(ContainsAllNormalizedKeywords("wireless Internet, pool", kw));
  EXPECT_TRUE(ContainsAllNormalizedKeywords("POOL then internet", kw));
  EXPECT_FALSE(ContainsAllNormalizedKeywords("internet only", kw));
  EXPECT_FALSE(ContainsAllNormalizedKeywords("whirlpool internet", kw));
  EXPECT_FALSE(ContainsAllNormalizedKeywords("", kw));
  EXPECT_TRUE(ContainsAllNormalizedKeywords("anything", {}));
  // Token at the very end of the text (no trailing separator).
  EXPECT_TRUE(ContainsAllNormalizedKeywords("internet pool", kw));
}

TEST(TokenizerTest, ContainsAllNormalizedKeywordsPastMaskWidth) {
  // More than 64 keywords (one machine word of per-keyword flags).
  std::vector<std::string> kw;
  std::string text;
  for (int i = 0; i < 70; ++i) {
    kw.push_back("w" + std::to_string(i));
    text += " w" + std::to_string(i);
  }
  EXPECT_TRUE(ContainsAllNormalizedKeywords(text, kw));
  kw.push_back("missing");
  EXPECT_FALSE(ContainsAllNormalizedKeywords(text, kw));
}

TEST(TokenizerTest, PaperFigure1BooleanQuery) {
  // Example 2: {internet, pool} matches exactly H2 and H7 of Figure 1.
  Tokenizer tokenizer;
  std::vector<std::pair<int, std::string>> hotels = {
      {1, "tennis court, gift shop, spa, Internet"},
      {2, "wireless Internet, pool, golf course"},
      {3, "spa, continental suites, pool"},
      {4, "sauna, pool, conference rooms"},
      {5, "dry cleaning, free lunch, pets"},
      {6, "safe box, concierge, internet, pets"},
      {7, "Internet, airport transportation, pool"},
      {8, "wake up service, no pets, pool"},
  };
  std::vector<int> matches;
  for (const auto& [id, text] : hotels) {
    if (ContainsAllKeywords(tokenizer, text, {"internet", "pool"})) {
      matches.push_back(id);
    }
  }
  EXPECT_EQ(matches, (std::vector<int>{2, 7}));
}

// Every SIMD tier verifies exactly what the tokenizer indexes:
// ContainsAllNormalizedKeywords(text, kws) holds iff every keyword is one
// of DistinctTokens(text). Texts carry the lane filter's false friends
// (0x10-0x19, bytes >= 0x80, NUL, '@' '[' '`' '{') and vocabulary words
// glued into longer tokens; keyword lists have 0, 1, 3, 65 and 70 entries
// drawn with duplicates from the text's own tokens and from absent words.
TEST(TokenizerTest, VerificationMatchesDistinctTokensOnEveryTier) {
  Tokenizer tokenizer;
  std::vector<std::string> vocab;
  for (int i = 0; i < 90; ++i) {
    vocab.push_back(std::string("w").append(std::to_string(i)));
  }
  for (const char* word : {"pool", "spa", "a", "1", "poolside", "wifi"}) {
    vocab.push_back(word);
  }
  const std::vector<std::string> absent = {"zz", "w90", "pools", "b", "w"};
  Rng rng(7);
  size_t positives = 0;
  size_t cases = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const std::string text = testing_util::AdversarialText(
        rng, rng.NextUint64(iter % 4 == 0 ? 2500 : 200), vocab);
    const std::vector<std::string> tokens = tokenizer.DistinctTokens(text);
    for (size_t n : {0, 1, 3, 65, 70}) {
      std::vector<std::string> kws;
      const bool want_absent = rng.NextBool(0.5) || tokens.empty();
      for (size_t i = 0; i < n; ++i) {
        kws.push_back(want_absent && i + 1 == n
                          ? absent[rng.NextUint64(absent.size())]
                          : (tokens.empty()
                                 ? vocab[rng.NextUint64(vocab.size())]
                                 : tokens[rng.NextUint64(tokens.size())]));
      }
      const bool expected = std::all_of(
          kws.begin(), kws.end(), [&tokens](const std::string& kw) {
            return std::binary_search(tokens.begin(), tokens.end(), kw);
          });
      for (simd::Level level : testing_util::AvailableSimdLevels()) {
        simd::ForceLevelForTest(level);
        ASSERT_EQ(ContainsAllNormalizedKeywords(text, kws), expected)
            << simd::LevelName(level) << " iter=" << iter << " n=" << n;
      }
      ++cases;
      positives += expected;
    }
  }
  EXPECT_GT(positives, cases / 4);
  EXPECT_LT(positives, cases * 3 / 4);
}

}  // namespace
}  // namespace ir2
