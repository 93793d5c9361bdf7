#ifndef IR2TREE_CORE_KC_TREE_H_
#define IR2TREE_CORE_KC_TREE_H_

// The Keyword-Clustered Tree (KC-Tree): the fifth planner candidate, built
// for exactly the regime where IR2's superimposed signatures collapse —
// high-frequency keywords. A signature is a lossy OR of *every* word, so a
// word that appears in most subtrees saturates the shared bits and the
// "S matches W" test stops pruning (planner data: IIO beats IR2 on 52/84
// Hotels queries, all keyword-frequency driven).
//
// The KC-Tree splits the vocabulary offline (KcVocabulary):
//
//   hot set    the highest-document-frequency words (bounded by
//              max_hot_words), clustered by frequency tier and then greedily
//              merged by co-occurrence. Each hot word owns one dedicated bit
//              of a per-entry posting bitmap, laid out cluster-major so a
//              cluster is a contiguous bit range. Bit i of an entry is set
//              iff the subtree actually contains word i — exact containment,
//              zero false positives, immune to saturation by construction.
//   cold tail  everything else keeps the classic IR2 superimposed-coding
//              signature, at a width tuned for the tail alone (the hot
//              words, the main density pressure, are excluded from it).
//
// A KC entry payload is [hot bitmap (byte-padded) | cold signature], a plain
// byte string ORed up the tree like any IR2 payload — so the whole
// BufferPool / NodeCache / IoScheduler / DiskModel stack, the R-tree node
// layout, and the word-wide containment loop (PayloadContainsSignature)
// work unchanged. Query bits put hot keywords in their exact bits and cold
// keywords in the cold signature; one containment test prunes on both at
// once. See docs/performance.md (KC-Tree chapter) and docs/planner.md.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "core/query.h"
#include "core/verified_nn_cursor.h"
#include "rtree/incremental_nn.h"
#include "rtree/rtree_base.h"
#include "storage/object_store.h"
#include "text/corpus_terms.h"
#include "text/signature.h"
#include "text/tokenizer.h"

namespace ir2 {

// Offline vocabulary clustering knobs (DatabaseOptions::kc_vocabulary).
struct KcVocabularyOptions {
  // At most this many words get dedicated bitmap bits; the bitmap adds
  // (max_hot_words + 7) / 8 bytes to every entry payload, so the default
  // costs 8 bytes next to IR2's 189-byte Hotels signature.
  uint32_t max_hot_words = 64;
  // A word must appear in at least this many documents to qualify as hot —
  // rare words prune fine through the cold signature already.
  uint64_t min_hot_df = 8;
  // Greedy cluster merge: two clusters merge while some cross pair of their
  // words has cooccurrence(a, b) / min(df_a, df_b) at or above this.
  // Co-occurring hot words are queried together, so keeping their bits in
  // one cluster makes the per-cluster EXPLAIN attribution line up with real
  // workloads. 1.1 (unreachable) disables merging, leaving pure df tiers.
  double cooc_merge_threshold = 0.5;
  // Cap on merged cluster size (bits), so one aggressive merge chain cannot
  // collapse the layout into a single cluster.
  uint32_t max_cluster_words = 16;
  // Cold-tail signature scheme. bits == 0 inherits the database's
  // ir2_signature width — same per-entry budget as IR2, spent only on the
  // words that still need the lossy encoding.
  SignatureConfig cold_signature{/*bits=*/0, /*hashes_per_word=*/3};
};

// The clustered vocabulary: the hot words, their cluster assignment and bit
// layout, and the cold-tail signature scheme. Immutable once built; shared
// by the tree, the query path, the planner snapshot, and EXPLAIN.
class KcVocabulary {
 public:
  struct Word {
    std::string word;     // Normalized form (tokenizer output).
    uint64_t hash = 0;    // HashWord(word).
    uint64_t df = 0;      // Document frequency at build time.
    uint32_t cluster = 0;
  };
  struct Cluster {
    uint32_t first_bit = 0;  // Clusters are contiguous bit ranges
    uint32_t num_bits = 0;   // (cluster-major layout).
    uint64_t max_df = 0;     // Highest df among the cluster's words.
  };

  KcVocabulary() = default;

  // Builds the clustering from the tokenized corpus (the one tokenize pass
  // of the database build): the terms' document frequencies select and
  // tier the hot set, a pass over the documents' term ids counts pairwise
  // co-occurrence among hot words, and clusters merge greedily while the
  // strongest cross-pair affinity clears the threshold. Deterministic:
  // every ordering ties on (df desc, word asc).
  static KcVocabulary Build(const CorpusTerms& corpus,
                            const KcVocabularyOptions& options,
                            const SignatureConfig& fallback_cold);

  // Reconstructs a vocabulary from its serialized form: `words` in bit
  // order with cluster ids exactly as Words() returned them (the manifest
  // round-trip).
  static StatusOr<KcVocabulary> FromWords(std::vector<Word> words,
                                          SignatureConfig cold);

  // Dedicated bit of a hot word, or -1 when the word rides the cold tail.
  int32_t HotBit(uint64_t word_hash) const;
  // Cluster owning bit `bit` (< hot_bits()).
  uint32_t ClusterOfBit(uint32_t bit) const { return bit_cluster_[bit]; }

  uint32_t hot_bits() const { return static_cast<uint32_t>(words_.size()); }
  // The bitmap region is byte-padded so the cold signature starts on a byte
  // boundary and its bytes copy in without shifting.
  uint32_t hot_bytes() const { return (hot_bits() + 7) / 8; }
  const SignatureConfig& cold_config() const { return cold_; }
  uint32_t cold_bytes() const { return cold_.bytes(); }
  uint32_t payload_bytes() const { return hot_bytes() + cold_bytes(); }

  const std::vector<Word>& words() const { return words_; }
  const std::vector<Cluster>& clusters() const { return clusters_; }

 private:
  void RebuildLookup();

  std::vector<Word> words_;        // In bit order (bit i = words_[i]).
  std::vector<Cluster> clusters_;  // In first_bit order.
  std::vector<uint32_t> bit_cluster_;
  SignatureConfig cold_{64, 3};
  // (hash, bit) sorted by hash, for the query-time lookup.
  std::vector<std::pair<uint64_t, uint32_t>> hash_to_bit_;
};

// The tree itself: RTreeBase with KC payloads. Parents OR their children's
// payloads (the RTreeBase default), which is exactly right for both
// regions: a hot bit ORs up to "some object below contains word i" and the
// cold region superimposes like any IR2 signature.
class KcTree : public RTreeBase {
 public:
  // `vocab` must outlive the tree.
  KcTree(BufferPool* pool, RTreeOptions options, const KcVocabulary* vocab)
      : RTreeBase(pool, options), vocab_(vocab) {}

  uint32_t PayloadBytes(uint32_t /*level*/) const override {
    return vocab_->payload_bytes();
  }

  // [hot bitmap | cold signature], the same at every level: each hot word
  // sets its exact bit, the cold tail superimposes into the cold region.
  void FillObjectPayload(std::span<const uint64_t> word_hashes, uint32_t level,
                         std::span<uint8_t> out) const override;

  // The containment test spans the whole payload (hot bitmap + cold tail);
  // only cold words hash, at the cold signature's rate.
  PayloadFilter PayloadFilterAt(uint32_t /*level*/) const override {
    return {vocab_->payload_bytes() * 8, vocab_->cold_config().hashes_per_word};
  }

  // Query bits at the payload width: each hot keyword sets its exact bit,
  // the cold keywords superimpose into the cold region. The containment
  // test "payload contains query" then checks both regions in one pass.
  // `cold_scratch` (optional) donates storage for the intermediate
  // cold-region signature so a warm worker stops allocating.
  void QueryBitsInto(std::span<const uint64_t> keyword_hashes, Signature* out,
                     Signature* cold_scratch = nullptr) const;

  const KcVocabulary& vocabulary() const { return *vocab_; }

 private:
  const KcVocabulary* vocab_;
};

// Entry filter for the incremental NN traversal, the KC analogue of
// SignatureEntryFilter: one containment test of the entry payload against
// the query bits, counted per entry, and on a prune an attribution to the
// first hot cluster with a missing bit, or to the cold signature when the
// whole bitmap was contained.
struct KcEntryFilter {
  const KcVocabulary* vocab = nullptr;
  const Signature* query_bits = nullptr;  // One width for all levels.
  QueryStats* stats = nullptr;

  bool operator()(const Node& node, const Entry& entry) const;
};

// The distance-first KC-Tree algorithm: the shared VerifiedNNCursor with
// the KC filter, candidates verified against the object text exactly like
// IR2TopK (hot bits are exact, but cold-tail keywords can still
// false-positive).
// `scratch` donates the same reusable buffers as the IR2 path — a
// BatchExecutor worker shares one Ir2QueryScratch across all tree
// algorithms. Honors query.max_distance (the bounded-cursor form): the NN
// stream is distance-ordered, so the first neighbor past the bound ends
// the search. `node_scheduler` and `read_pool` as for Ir2TopK.
StatusOr<std::vector<QueryResult>> KcTopK(
    const KcTree& tree, const ObjectStore& objects, const Tokenizer& tokenizer,
    const DistanceFirstQuery& query, QueryStats* stats = nullptr,
    Ir2QueryScratch* scratch = nullptr, IoScheduler* node_scheduler = nullptr,
    BufferPool* read_pool = nullptr);

}  // namespace ir2

#endif  // IR2TREE_CORE_KC_TREE_H_
