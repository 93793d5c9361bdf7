#ifndef IR2TREE_TEXT_CORPUS_TERMS_H_
#define IR2TREE_TEXT_CORPUS_TERMS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "storage/object_store.h"
#include "text/tokenizer.h"

namespace ir2 {

// The corpus an index build reads, tokenized once into term ids: every
// distinct term stored once (its string, document frequency and HashWord),
// and every document's sorted distinct term ids plus its token count in one
// flat CSR array. Term ids are the terms' lexicographic ranks, so a
// document's id list is its DistinctTokens in the same order, and walking
// ids 0..num_terms()-1 visits the vocabulary in sorted order.
//
// This is the only input of every build consumer (the signature and KC
// payloads of the trees, KcVocabulary::Build, InvertedIndexBuilder and the
// MIR2 fix-up pass): a Hotels-shaped corpus holds ~349 distinct words per
// object, so one 4-byte id per (object, word) pair replaces a std::string.
class CorpusTerms {
 public:
  struct Term {
    std::string word;   // Normalized form (tokenizer output).
    uint64_t hash = 0;  // HashWord(word).
    uint32_t df = 0;    // Documents containing the term.
  };

  // The inverse CSR: for each term id, the ascending indices of the
  // documents that contain it (term t's run has exactly terms()[t].df
  // entries).
  struct Postings {
    std::vector<uint64_t> offsets;  // num_terms() + 1 entries.
    std::vector<uint32_t> docs;

    std::span<const uint32_t> Docs(uint32_t term) const {
      return std::span<const uint32_t>(docs).subspan(
          offsets[term], offsets[term + 1] - offsets[term]);
    }
  };

  CorpusTerms() = default;

  // Tokenizes every object's text in one pass over
  // Tokenizer::ForEachToken; document i is objects[i].
  static CorpusTerms Build(const Tokenizer& tokenizer,
                           std::span<const StoredObject> objects);

  size_t num_docs() const { return token_counts_.size(); }
  size_t num_terms() const { return terms_.size(); }
  // (document, distinct term) pairs: the summed distinct-word counts.
  uint64_t num_pairs() const { return ids_.size(); }
  uint64_t total_tokens() const { return total_tokens_; }

  // Indexed by term id.
  const std::vector<Term>& terms() const { return terms_; }

  // Document `doc`'s distinct term ids, ascending.
  std::span<const uint32_t> DocTerms(size_t doc) const {
    return std::span<const uint32_t>(ids_).subspan(
        offsets_[doc], offsets_[doc + 1] - offsets_[doc]);
  }
  // Document `doc`'s tokens, duplicates included (Tokenize().size()).
  uint32_t TokenCount(size_t doc) const { return token_counts_[doc]; }

  // Document `doc`'s word hashes in term-id order, replacing `*out`.
  void DocHashes(size_t doc, std::vector<uint64_t>* out) const;

  // Every document's word hashes, laid out like the CSR: document `doc`'s
  // run is DocSlice(all, doc).
  std::vector<uint64_t> AllDocHashes() const;
  std::span<const uint64_t> DocSlice(std::span<const uint64_t> all,
                                     size_t doc) const {
    return all.subspan(offsets_[doc], offsets_[doc + 1] - offsets_[doc]);
  }

  // Inverts the CSR into exact-size postings (a counting sort by term id).
  Postings Invert() const;

 private:
  std::vector<Term> terms_;
  std::vector<uint64_t> offsets_{0};  // num_docs() + 1 entries.
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> token_counts_;
  uint64_t total_tokens_ = 0;
};

}  // namespace ir2

#endif  // IR2TREE_TEXT_CORPUS_TERMS_H_
