#ifndef IR2TREE_TEXT_TOKENIZER_H_
#define IR2TREE_TEXT_TOKENIZER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/simd.h"

namespace ir2 {

// Splits text into case-folded alphanumeric words. "wireless Internet,
// pool" -> {"wireless", "internet", "pool"}. The same tokenizer is used
// when indexing and when parsing queries, so keyword matching is consistent
// across every algorithm in the library.
//
// Word classification is ASCII / C-locale by construction: word characters
// are exactly [0-9A-Za-z], bytes >= 0x80 always separate words, and
// nothing depends on setlocale. Tokenize, Normalize and the query-time
// verification (ContainsAllNormalizedKeywords) share one table,
// simd::kWordFold.
//
// An optional stopword set drops high-frequency function words at indexing
// time; the query side drops them symmetrically (NormalizeKeywords), so a
// stopword keyword neither matches nor excludes anything.
class Tokenizer {
 public:
  Tokenizer() = default;
  explicit Tokenizer(std::unordered_set<std::string> stopwords)
      : stopwords_(std::move(stopwords)) {}

  // The one scan loop behind every tokenizing entry point: calls
  // `fn(std::string_view token)` for each non-stopword token of `text`, in
  // order of appearance (with duplicates). The view is valid only for the
  // duration of the call.
  template <typename Fn>
  void ForEachToken(std::string_view text, Fn&& fn) const {
    std::string current;
    auto flush = [&]() {
      if (!current.empty()) {
        if (!IsStopword(current)) {
          fn(std::string_view(current));
        }
        current.clear();
      }
    };
    for (unsigned char c : text) {
      if (const char folded = simd::kWordFold[c]) {
        current.push_back(folded);
      } else {
        flush();
      }
    }
    flush();
  }

  // All non-stopword tokens in order of appearance (with duplicates).
  std::vector<std::string> Tokenize(std::string_view text) const;

  // Distinct tokens (sorted). This is the word set used for signatures and
  // for Boolean containment checks.
  std::vector<std::string> DistinctTokens(std::string_view text) const;

  // Lowercases a single keyword the same way Tokenize lowercases words.
  static std::string Normalize(std::string_view word);

  // True iff the (already normalized) word is a stopword.
  bool IsStopword(const std::string& normalized) const {
    return stopwords_.contains(normalized);
  }

  // Query-side preparation: normalizes each keyword, drops empties and
  // stopwords, and deduplicates (order preserved). Every query algorithm
  // funnels its keywords through this so their semantics agree.
  std::vector<std::string> NormalizeKeywords(
      const std::vector<std::string>& keywords) const;

  bool has_stopwords() const { return !stopwords_.empty(); }

 private:
  std::unordered_set<std::string> stopwords_;
};

// A compact English stopword list (the usual suspects: articles,
// conjunctions, pronouns, auxiliaries).
std::unordered_set<std::string> EnglishStopwords();

// Term frequencies of a document: distinct token -> occurrence count.
// Used by the tf-idf scorer for general (non-Boolean) queries.
struct TermCounts {
  std::vector<std::pair<std::string, uint32_t>> counts;
  uint32_t total_tokens = 0;
};

TermCounts CountTerms(const Tokenizer& tokenizer, std::string_view text);

// True iff every keyword in NormalizeKeywords(keywords) occurs in `text`
// (the Boolean keyword filter of distance-first queries, applied to
// candidate objects to remove signature false positives).
bool ContainsAllKeywords(const Tokenizer& tokenizer, std::string_view text,
                         const std::vector<std::string>& keywords);

// Allocation-free form for callers that already hold normalized keywords
// (the output of NormalizeKeywords): one simd::FindToken whole-token
// search per keyword, stopping at the first keyword the text lacks. This
// runs once per candidate object on the query hot path — with short
// signatures most candidates are false positives, so verification cost is
// the serving floor. Equivalent to "every keyword is in
// Tokenizer().DistinctTokens(text)".
bool ContainsAllNormalizedKeywords(std::string_view text,
                                   std::span<const std::string> keywords);

}  // namespace ir2

#endif  // IR2TREE_TEXT_TOKENIZER_H_
