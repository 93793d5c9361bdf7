#ifndef IR2TREE_CORE_HYBRID_INDEX_H_
#define IR2TREE_CORE_HYBRID_INDEX_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status_or.h"
#include "core/query.h"
#include "geo/point.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/object_store.h"
#include "text/corpus_terms.h"
#include "text/inverted_index.h"
#include "text/tokenizer.h"

namespace ir2 {

// The "separate text and spatial indexes" family the paper's Related Work
// compares against (Vaid et al. [VJJS05], Zhou et al. [ZXW+05]: inverted
// lists organized as per-keyword R*-trees): instead of one combined
// structure, each sufficiently frequent term gets its own R-Tree over the
// objects containing it, while rare terms keep plain posting lists.
//
// A distance-first query runs incremental NN on the *rarest* keyword's
// tree (or scans its posting list) and verifies the remaining keywords on
// each candidate object — the natural combining algorithm the paper notes
// is missing from [ZXW+05]. The paper's critique, which
// bench_related_hybrid quantifies: with multiple keywords the driver term
// still enumerates all of its objects near the query point, most of which
// fail the other keywords, so it cannot match the IR2-Tree's conjunctive
// subtree pruning.
class HybridKeywordIndex {
 public:
  struct Options {
    // Terms with document frequency >= this get an R-Tree; the rest are
    // served from the inverted index ("hybrid index structures" [ZXW+05]).
    uint32_t tree_threshold = 64;
    RTreeOptions tree_options;  // manage_superblock is forced off.
    size_t pool_blocks = 1 << 14;
  };

  // Materializes the index of a tokenized corpus.
  class Builder {
   public:
    // `tree_device` hosts every per-term tree; `postings_device` the
    // inverted index. Both must be empty and outlive the built index.
    Builder(BlockDevice* tree_device, BlockDevice* postings_device,
            Options options);

    // Document i of `corpus` is the object stored under refs[i] (strictly
    // ascending) at locations[i]. Per-term trees are built in term-id
    // (lexicographic) order on the shared tree device.
    StatusOr<std::unique_ptr<HybridKeywordIndex>> Finish(
        const CorpusTerms& corpus, std::span<const ObjectRef> refs,
        std::span<const Point> locations);

   private:
    BlockDevice* tree_device_;
    BlockDevice* postings_device_;
    Options options_;
    InvertedIndexBuilder inverted_builder_;
    bool finished_ = false;
  };

  // The distance-first top-k spatial keyword query over the separate
  // indexes. Returns results ordered by distance, exactly like the other
  // algorithms (so benches can cross-check them).
  StatusOr<std::vector<QueryResult>> TopK(const ObjectStore& objects,
                                          const Tokenizer& tokenizer,
                                          const DistanceFirstQuery& query,
                                          QueryStats* stats = nullptr) const;

  uint64_t num_term_trees() const { return trees_.size(); }
  uint64_t SizeBytes() const;

  // Drops cached tree pages (cold-query measurement).
  Status DropCaches() { return pool_->Clear(); }

 private:
  HybridKeywordIndex() = default;

  BlockDevice* tree_device_ = nullptr;
  BlockDevice* postings_device_ = nullptr;
  std::unique_ptr<BufferPool> pool_;
  std::unordered_map<std::string, std::unique_ptr<RTree>> trees_;
  std::unique_ptr<InvertedIndex> inverted_;
};

}  // namespace ir2

#endif  // IR2TREE_CORE_HYBRID_INDEX_H_
