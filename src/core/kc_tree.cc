#include "core/kc_tree.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ir2 {
namespace {

// log2 frequency tier of a document frequency — the initial clustering:
// words within a factor of two of each other in df start in the same
// cluster, so a cluster's bits saturate (or stay sparse) together.
uint32_t DfTier(uint64_t df) {
  return static_cast<uint32_t>(std::bit_width(df));
}

}  // namespace

KcVocabulary KcVocabulary::Build(const CorpusTerms& corpus,
                                 const KcVocabularyOptions& options,
                                 const SignatureConfig& fallback_cold) {
  KcVocabulary vocab;
  vocab.cold_ = options.cold_signature;
  if (vocab.cold_.bits == 0) vocab.cold_.bits = fallback_cold.bits;
  if (vocab.cold_.hashes_per_word == 0) {
    vocab.cold_.hashes_per_word = fallback_cold.hashes_per_word;
  }

  // The hot set: the top max_hot_words by (df desc, word asc) at or above
  // min_hot_df; term ids are lexicographic ranks, so "word asc" is "id
  // asc". `index` below means position in this frequency order.
  struct Hot {
    uint32_t term;
    uint64_t df;
  };
  std::vector<Hot> hot;
  const uint64_t min_df = std::max<uint64_t>(1, options.min_hot_df);
  for (uint32_t term = 0; term < corpus.num_terms(); ++term) {
    const uint64_t df = corpus.terms()[term].df;
    if (df >= min_df) hot.push_back(Hot{term, df});
  }
  std::sort(hot.begin(), hot.end(), [](const Hot& a, const Hot& b) {
    return a.df != b.df ? a.df > b.df : a.term < b.term;
  });
  if (hot.size() > options.max_hot_words) hot.resize(options.max_hot_words);
  if (hot.empty() || options.max_hot_words == 0) {
    hot.clear();
    vocab.RebuildLookup();
    return vocab;  // Degenerate KC: cold signature only (an IR2 clone).
  }

  // Pairwise co-occurrence among hot words (a pass over the documents' term
  // ids). With at most 64 hot words this is a dense H*H counter array,
  // filled per document from the sorted list of hot indices present.
  const size_t n = hot.size();
  constexpr uint32_t kNotHot = UINT32_MAX;
  std::vector<uint32_t> hot_index(corpus.num_terms(), kNotHot);
  for (size_t i = 0; i < n; ++i) {
    hot_index[hot[i].term] = static_cast<uint32_t>(i);
  }
  std::vector<uint64_t> cooc(n * n, 0);
  std::vector<uint32_t> present;
  for (size_t doc = 0; doc < corpus.num_docs(); ++doc) {
    present.clear();
    for (uint32_t term : corpus.DocTerms(doc)) {
      if (hot_index[term] != kNotHot) present.push_back(hot_index[term]);
    }
    std::sort(present.begin(), present.end());
    for (size_t a = 0; a < present.size(); ++a) {
      for (size_t b = a + 1; b < present.size(); ++b) {
        ++cooc[present[a] * n + present[b]];
      }
    }
  }

  // Initial clusters: df tiers, numbered in frequency order.
  std::vector<std::vector<uint32_t>> members;  // cluster -> hot indices.
  {
    uint32_t last_tier = 0;
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t tier = DfTier(hot[i].df);
      if (members.empty() || tier != last_tier) {
        members.emplace_back();
        last_tier = tier;
      }
      members.back().push_back(i);
    }
  }

  // Greedy co-occurrence merge: affinity of two clusters is the strongest
  // normalized cross pair, cooc(a, b) / min(df_a, df_b) — "when the rarer
  // word appears, how often does the other ride along". Merge the best
  // pair while it clears the threshold and the merged size fits; ties
  // break on the lower cluster-id pair, so the result is deterministic.
  auto affinity = [&](const std::vector<uint32_t>& a,
                      const std::vector<uint32_t>& b) {
    double best = 0.0;
    for (uint32_t x : a) {
      for (uint32_t y : b) {
        const uint32_t lo = std::min(x, y), hi = std::max(x, y);
        const uint64_t both = cooc[lo * n + hi];
        const uint64_t rarer = std::min(hot[x].df, hot[y].df);
        if (rarer > 0) best = std::max(best, double(both) / double(rarer));
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

  // Cluster-major bit layout: clusters in order of their most frequent
  // word, words within a cluster in frequency order.
  std::sort(members.begin(), members.end(),
            [](const std::vector<uint32_t>& a, const std::vector<uint32_t>& b) {
              return a.front() < b.front();
            });
  for (uint32_t c = 0; c < members.size(); ++c) {
    Cluster cluster;
    cluster.first_bit = static_cast<uint32_t>(vocab.words_.size());
    for (uint32_t index : members[c]) {
      const CorpusTerms::Term& term = corpus.terms()[hot[index].term];
      vocab.words_.push_back(Word{term.word, term.hash, hot[index].df, c});
      cluster.max_df = std::max(cluster.max_df, hot[index].df);
    }
    cluster.num_bits =
        static_cast<uint32_t>(vocab.words_.size()) - cluster.first_bit;
    vocab.clusters_.push_back(cluster);
  }
  vocab.RebuildLookup();
  return vocab;
}

StatusOr<KcVocabulary> KcVocabulary::FromWords(std::vector<Word> words,
                                               SignatureConfig cold) {
  KcVocabulary vocab;
  vocab.cold_ = cold;
  vocab.words_ = std::move(words);
  for (size_t i = 0; i < vocab.words_.size(); ++i) {
    Word& word = vocab.words_[i];
    word.hash = HashWord(word.word);
    if (word.cluster > vocab.clusters_.size()) {
      return Status::Corruption("kc vocabulary: non-contiguous cluster ids");
    }
    if (word.cluster == vocab.clusters_.size()) {
      Cluster cluster;
      cluster.first_bit = static_cast<uint32_t>(i);
      vocab.clusters_.push_back(cluster);
    }
    Cluster& cluster = vocab.clusters_[word.cluster];
    if (word.cluster + 1 != vocab.clusters_.size()) {
      return Status::Corruption("kc vocabulary: cluster bits not contiguous");
    }
    ++cluster.num_bits;
    cluster.max_df = std::max(cluster.max_df, word.df);
  }
  vocab.RebuildLookup();
  return vocab;
}

void KcVocabulary::RebuildLookup() {
  bit_cluster_.resize(words_.size());
  hash_to_bit_.clear();
  hash_to_bit_.reserve(words_.size());
  for (uint32_t bit = 0; bit < words_.size(); ++bit) {
    bit_cluster_[bit] = words_[bit].cluster;
    hash_to_bit_.emplace_back(words_[bit].hash, bit);
  }
  std::sort(hash_to_bit_.begin(), hash_to_bit_.end());
}

int32_t KcVocabulary::HotBit(uint64_t word_hash) const {
  auto it = std::lower_bound(
      hash_to_bit_.begin(), hash_to_bit_.end(), word_hash,
      [](const std::pair<uint64_t, uint32_t>& entry, uint64_t hash) {
        return entry.first < hash;
      });
  if (it == hash_to_bit_.end() || it->first != word_hash) return -1;
  return static_cast<int32_t>(it->second);
}

void KcTree::FillObjectPayload(std::span<const uint64_t> word_hashes,
                               uint32_t /*level*/,
                               std::span<uint8_t> out) const {
  IR2_CHECK_EQ(out.size(), vocab_->payload_bytes());
  std::fill(out.begin(), out.end(), uint8_t{0});
  std::vector<uint64_t> cold_hashes;
  cold_hashes.reserve(word_hashes.size());
  for (uint64_t hash : word_hashes) {
    const int32_t bit = vocab_->HotBit(hash);
    if (bit >= 0) {
      out[bit >> 3] |= static_cast<uint8_t>(1u << (bit & 7));
    } else {
      cold_hashes.push_back(hash);
    }
  }
  // Only the tail reaches the superimposed region — the hot words (the
  // density pressure in a plain IR2 signature) are already exact above.
  Signature cold = MakeSignatureFromHashes(cold_hashes, vocab_->cold_config());
  std::memcpy(out.data() + vocab_->hot_bytes(), cold.bytes().data(),
              vocab_->cold_bytes());
}

void KcTree::QueryBitsInto(std::span<const uint64_t> keyword_hashes,
                           Signature* out, Signature* cold_scratch) const {
  out->Reset(vocab_->payload_bytes() * 8);
  Signature own_cold;
  Signature* cold = cold_scratch != nullptr ? cold_scratch : &own_cold;
  cold->Reset(vocab_->cold_config().bits);
  bool any_cold = false;
  for (uint64_t hash : keyword_hashes) {
    const int32_t bit = vocab_->HotBit(hash);
    if (bit >= 0) {
      out->SetBit(static_cast<uint32_t>(bit));
    } else {
      AddWordHash(hash, vocab_->cold_config(), cold);
      any_cold = true;
    }
  }
  if (any_cold) {
    std::memcpy(out->mutable_bytes().data() + vocab_->hot_bytes(),
                cold->bytes().data(), vocab_->cold_bytes());
  }
}

bool KcEntryFilter::operator()(const Node& node, const Entry& entry) const {
  obs::TraceSpan span(obs::SpanKind::kSignatureTest, entry.ref);
  obs::DefaultMetrics().kctree_bitmap_tests->Add();
  if (stats != nullptr) ++stats->kc_bitmap_tests;
  if (PayloadContainsSignature(entry.payload, *query_bits)) {
    return true;
  }
  // Attribute the prune, on the prune path only: the first hot-bitmap byte
  // with a query bit the payload lacks names the pruning cluster; no
  // missing hot bit means the cold-tail signature did it.
  int32_t missing_bit = -1;
  if (entry.payload.size() == query_bits->num_bytes()) {
    const std::span<const uint8_t> query_bytes = query_bits->bytes();
    const uint32_t hot_bytes = vocab->hot_bytes();
    for (uint32_t b = 0; b < hot_bytes; ++b) {
      const uint8_t missing =
          static_cast<uint8_t>(query_bytes[b] & ~entry.payload[b]);
      if (missing != 0) {
        missing_bit = static_cast<int32_t>(b * 8 + std::countr_zero(missing));
        break;
      }
    }
  }
  if (missing_bit >= 0) {
    obs::DefaultMetrics().kctree_bitmap_prunes->Add();
  } else {
    obs::DefaultMetrics().kctree_signature_prunes->Add();
  }
  if (stats != nullptr) {
    if (missing_bit >= 0) {
      ++stats->kc_bitmap_prunes;
      const uint32_t cluster =
          vocab->ClusterOfBit(static_cast<uint32_t>(missing_bit));
      if (stats->kc_cluster_prunes.size() <= cluster) {
        stats->kc_cluster_prunes.resize(cluster + 1);
      }
      ++stats->kc_cluster_prunes[cluster];
    } else {
      ++stats->kc_signature_prunes;
    }
    ++stats->entries_pruned;
    const size_t level = node.level;
    if (stats->entries_pruned_per_level.size() <= level) {
      stats->entries_pruned_per_level.resize(level + 1);
    }
    ++stats->entries_pruned_per_level[level];
  }
  return false;
}

StatusOr<std::vector<QueryResult>> KcTopK(const KcTree& tree,
                                          const ObjectStore& objects,
                                          const Tokenizer& tokenizer,
                                          const DistanceFirstQuery& query,
                                          QueryStats* stats,
                                          Ir2QueryScratch* scratch,
                                          IoScheduler* node_scheduler,
                                          BufferPool* read_pool) {
  VerifiedNNCursor<KcEntryFilter> cursor(
      &tree, &objects, tokenizer, query.Target(), query.keywords, scratch,
      node_scheduler, read_pool, query.max_distance,
      [&tree](Ir2QueryScratch& s, QueryStats* stats) {
        // The query bits live in level_signatures[0], the cold-region temp
        // in [1].
        s.level_signatures.resize(2);
        tree.QueryBitsInto(s.keyword_hashes, &s.level_signatures[0],
                           &s.level_signatures[1]);
        return KcEntryFilter{&tree.vocabulary(), &s.level_signatures[0],
                             stats};
      });
  return CollectTopK(cursor, query.k, stats);
}

}  // namespace ir2
