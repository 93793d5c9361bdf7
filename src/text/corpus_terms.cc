#include "text/corpus_terms.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string_view>

#include "common/hash.h"
#include "text/signature.h"

namespace ir2 {

namespace {

// Open addressing with linear probing over a power-of-two array of
// (HashWord, term id) slots, kept at most half full. Ids index the
// caller's term list, which holds the strings, so a probe compares a
// stored string only when the full 64-bit hashes agree.
class TermTable {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  TermTable() : slots_(1024) {}

  // The id of `word` among `terms` (its HashWord is `hash`); a word not
  // yet there is appended to `terms` with df 0 and gets the next id.
  uint32_t FindOrAdd(std::string_view word, uint64_t hash,
                     std::vector<CorpusTerms::Term>* terms) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(hash) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id == kNone) {
        slot = Slot{hash, static_cast<uint32_t>(terms->size())};
        terms->push_back(CorpusTerms::Term{std::string(word), hash, 0});
        if (2 * terms->size() > slots_.size()) Grow();
        return static_cast<uint32_t>(terms->size() - 1);
      }
      if (slot.hash == hash && (*terms)[slot.id].word == word) return slot.id;
    }
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t id = kNone;
  };

  static size_t Home(uint64_t hash) { return static_cast<size_t>(Mix64(hash)); }

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kNone) continue;
      size_t i = Home(slot.hash) & mask;
      while (slots_[i].id != kNone) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
};

}  // namespace

CorpusTerms CorpusTerms::Build(const Tokenizer& tokenizer,
                               std::span<const StoredObject> objects) {
  CorpusTerms corpus;
  // Provisional ids in first-seen order. A term joins a document's run the
  // first time the document mentions it: `last_doc` holds, per term, one
  // plus the last document that did.
  TermTable table;
  std::vector<Term> found;
  std::vector<uint32_t> last_doc;
  std::vector<uint32_t> provisional;
  corpus.offsets_.reserve(objects.size() + 1);
  corpus.token_counts_.reserve(objects.size());
  for (size_t doc = 0; doc < objects.size(); ++doc) {
    const auto stamp = static_cast<uint32_t>(doc + 1);
    uint32_t tokens = 0;
    tokenizer.ForEachToken(objects[doc].text, [&](std::string_view token) {
      ++tokens;
      const uint32_t id = table.FindOrAdd(token, HashWord(token), &found);
      if (id == last_doc.size()) last_doc.push_back(0);
      if (last_doc[id] != stamp) {
        last_doc[id] = stamp;
        ++found[id].df;
        provisional.push_back(id);
      }
    });
    corpus.offsets_.push_back(provisional.size());
    corpus.token_counts_.push_back(tokens);
    corpus.total_tokens_ += tokens;
  }
  provisional.shrink_to_fit();

  // Renumber the terms to their lexicographic ranks.
  std::vector<uint32_t> order(found.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return found[a].word < found[b].word;
  });
  std::vector<uint32_t> rank(found.size());
  corpus.terms_.resize(found.size());
  for (uint32_t r = 0; r < order.size(); ++r) {
    rank[order[r]] = r;
    corpus.terms_[r] = std::move(found[order[r]]);
  }

  // Two counting sorts leave every document's run ascending in rank:
  // bucket the (document, term) pairs by rank, documents ascending within
  // a bucket (the inverse CSR), then walk the buckets in rank order back
  // into the documents' runs, which reuse the provisional array.
  std::vector<uint64_t> next(corpus.num_terms() + 1, 0);
  for (size_t t = 0; t < corpus.num_terms(); ++t) {
    next[t + 1] = next[t] + corpus.terms_[t].df;
  }
  std::vector<uint32_t> by_term(provisional.size());
  for (size_t doc = 0; doc < corpus.num_docs(); ++doc) {
    for (uint64_t i = corpus.offsets_[doc]; i < corpus.offsets_[doc + 1];
         ++i) {
      by_term[next[rank[provisional[i]]]++] = static_cast<uint32_t>(doc);
    }
  }
  corpus.ids_ = std::move(provisional);
  std::vector<uint64_t> doc_next(corpus.offsets_.begin(),
                                 corpus.offsets_.end() - 1);
  uint64_t pair = 0;
  for (uint32_t t = 0; t < corpus.num_terms(); ++t) {
    for (const uint64_t end = pair + corpus.terms_[t].df; pair < end; ++pair) {
      corpus.ids_[doc_next[by_term[pair]]++] = t;
    }
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
