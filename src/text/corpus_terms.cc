#include "text/corpus_terms.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "text/signature.h"

namespace ir2 {

CorpusTerms CorpusTerms::Build(const Tokenizer& tokenizer,
                               std::span<const StoredObject> objects) {
  CorpusTerms corpus;
  // Provisional ids in first-seen order. The deque keeps every word at a
  // stable address, so the lookup map keys on views into it.
  std::deque<std::string> words;
  std::unordered_map<std::string_view, uint32_t> lookup;
  std::vector<uint32_t> df;
  std::vector<uint32_t> doc_ids;
  corpus.offsets_.reserve(objects.size() + 1);
  corpus.token_counts_.reserve(objects.size());
  for (const StoredObject& object : objects) {
    doc_ids.clear();
    tokenizer.ForEachToken(object.text, [&](std::string_view token) {
      auto it = lookup.find(token);
      if (it == lookup.end()) {
        words.emplace_back(token);
        df.push_back(0);
        it = lookup
                 .emplace(words.back(), static_cast<uint32_t>(words.size() - 1))
                 .first;
      }
      doc_ids.push_back(it->second);
    });
    const auto tokens = static_cast<uint32_t>(doc_ids.size());
    std::sort(doc_ids.begin(), doc_ids.end());
    doc_ids.erase(std::unique(doc_ids.begin(), doc_ids.end()), doc_ids.end());
    for (uint32_t id : doc_ids) ++df[id];
    corpus.ids_.insert(corpus.ids_.end(), doc_ids.begin(), doc_ids.end());
    corpus.offsets_.push_back(corpus.ids_.size());
    corpus.token_counts_.push_back(tokens);
    corpus.total_tokens_ += tokens;
  }
  corpus.ids_.shrink_to_fit();

  // Renumber the terms to their lexicographic ranks; the map's views die
  // with the moves below.
  lookup.clear();
  std::vector<uint32_t> order(words.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return words[a] < words[b]; });
  std::vector<uint32_t> rank(words.size());
  corpus.terms_.resize(words.size());
  for (uint32_t r = 0; r < order.size(); ++r) {
    const uint32_t old = order[r];
    rank[old] = r;
    Term& term = corpus.terms_[r];
    term.word = std::move(words[old]);
    term.hash = HashWord(term.word);
    term.df = df[old];
  }
  for (uint32_t& id : corpus.ids_) id = rank[id];
  for (size_t doc = 0; doc < corpus.num_docs(); ++doc) {
    std::sort(corpus.ids_.begin() + corpus.offsets_[doc],
              corpus.ids_.begin() + corpus.offsets_[doc + 1]);
  }
  return corpus;
}

void CorpusTerms::DocHashes(size_t doc, std::vector<uint64_t>* out) const {
  out->clear();
  for (uint32_t id : DocTerms(doc)) out->push_back(terms_[id].hash);
}

std::vector<uint64_t> CorpusTerms::AllDocHashes() const {
  std::vector<uint64_t> all(ids_.size());
  for (size_t i = 0; i < ids_.size(); ++i) all[i] = terms_[ids_[i]].hash;
  return all;
}

CorpusTerms::Postings CorpusTerms::Invert() const {
  Postings postings;
  postings.offsets.resize(num_terms() + 1, 0);
  for (size_t t = 0; t < num_terms(); ++t) {
    postings.offsets[t + 1] = postings.offsets[t] + terms_[t].df;
  }
  postings.docs.resize(ids_.size());
  std::vector<uint64_t> next(postings.offsets.begin(),
                             postings.offsets.end() - 1);
  for (size_t doc = 0; doc < num_docs(); ++doc) {
    for (uint32_t id : DocTerms(doc)) {
      postings.docs[next[id]++] = static_cast<uint32_t>(doc);
    }
  }
  return postings;
}

}  // namespace ir2
