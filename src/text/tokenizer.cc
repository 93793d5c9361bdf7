#include "text/tokenizer.h"

#include <algorithm>
#include <unordered_map>

#include "common/simd.h"

namespace ir2 {

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::vector<std::string> tokens;
  ForEachToken(text,
               [&](std::string_view token) { tokens.emplace_back(token); });
  return tokens;
}

std::vector<std::string> Tokenizer::DistinctTokens(
    std::string_view text) const {
  std::vector<std::string> tokens = Tokenize(text);
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

std::string Tokenizer::Normalize(std::string_view word) {
  std::string out;
  out.reserve(word.size());
  for (unsigned char c : word) {
    if (const char folded = simd::kWordFold[c]) {
      out.push_back(folded);
    }
  }
  return out;
}

std::vector<std::string> Tokenizer::NormalizeKeywords(
    const std::vector<std::string>& keywords) const {
  std::vector<std::string> normalized;
  normalized.reserve(keywords.size());
  for (const std::string& keyword : keywords) {
    std::string word = Normalize(keyword);
    if (word.empty() || IsStopword(word)) {
      continue;
    }
    if (std::find(normalized.begin(), normalized.end(), word) ==
        normalized.end()) {
      normalized.push_back(std::move(word));
    }
  }
  return normalized;
}

std::unordered_set<std::string> EnglishStopwords() {
  return {"a",    "an",   "and",  "are", "as",   "at",   "be",   "but",
          "by",   "for",  "from", "has", "have", "he",   "her",  "his",
          "if",   "in",   "is",   "it",  "its",  "no",   "not",  "of",
          "on",   "or",   "our",  "she", "so",   "that", "the",  "their",
          "them", "then", "they", "this", "to",  "was",  "we",   "were",
          "will", "with", "you",  "your"};
}

TermCounts CountTerms(const Tokenizer& tokenizer, std::string_view text) {
  TermCounts result;
  std::unordered_map<std::string, uint32_t> counts;
  tokenizer.ForEachToken(text, [&](std::string_view token) {
    ++counts[std::string(token)];
    ++result.total_tokens;
  });
  result.counts.assign(counts.begin(), counts.end());
  return result;
}

bool ContainsAllKeywords(const Tokenizer& tokenizer, std::string_view text,
                         const std::vector<std::string>& keywords) {
  if (keywords.empty()) {
    return true;
  }
  // NormalizeKeywords drops stopwords/empties; finding all of nothing is
  // vacuously true (a query for only stopwords excludes nothing).
  return ContainsAllNormalizedKeywords(text,
                                       tokenizer.NormalizeKeywords(keywords));
}

bool ContainsAllNormalizedKeywords(std::string_view text,
                                   std::span<const std::string> keywords) {
  // One dispatched whole-token search per keyword; the first keyword the
  // text lacks decides (most candidates are signature false positives).
  for (const std::string& keyword : keywords) {
    if (simd::FindToken(text.data(), text.size(), keyword) ==
        simd::kTokenNotFound) {
      return false;
    }
  }
  return true;
}

}  // namespace ir2
