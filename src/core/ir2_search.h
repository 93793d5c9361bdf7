#ifndef IR2TREE_CORE_IR2_SEARCH_H_
#define IR2TREE_CORE_IR2_SEARCH_H_

#include <algorithm>
#include <optional>
#include <vector>

#include "common/simd.h"
#include "common/status_or.h"
#include "core/ir2_tree.h"
#include "core/query.h"
#include "rtree/incremental_nn.h"
#include "storage/object_store.h"
#include "text/tokenizer.h"

namespace ir2 {

// Per-node buffer for the batched signature test: PrepareNode fills one
// match flag per entry in a single kernel pass over the node's payloads.
// Owned by the query scratch (or the cursor impl's fallback) so steady-state
// queries stop allocating once the flag vector has grown to the tree's
// fan-out.
struct SignatureBatchScratch {
  std::vector<uint8_t> flags;
  const Entry* entries_base = nullptr;  // Identifies the prepared node.
  size_t count = 0;
};

// The "S matches W" pruning test of IR2NearestNeighbor in concrete form:
// handed to IncrementalNNCursor as a statically-dispatched filter, so the
// per-entry check is a direct (inlinable) call. Holds pointers only — the
// cursor copies the filter by value.
//
// When `batch` is set, the cursor's PrepareNode hook precomputes the whole
// node's match flags with one resolution of the dispatched kernel — the
// batched multi-signature test — and operator() just reads its entry's
// flag. All counting (metrics, QueryStats) stays in operator(), so the
// per-entry accounting is bit-identical to the unbatched path.
struct SignatureEntryFilter {
  const std::vector<Signature>* level_signatures = nullptr;
  QueryStats* stats = nullptr;
  SignatureBatchScratch* batch = nullptr;

  void PrepareNode(const Node& node) {
    if (batch == nullptr) return;
    const size_t level =
        std::min<size_t>(node.level, level_signatures->size() - 1);
    const Signature& query_sig = (*level_signatures)[level];
    const simd::BytesContainFn contains = simd::ActiveBytesContainFn();
    const uint64_t* query_words = query_sig.words().data();
    const size_t query_bytes = query_sig.num_bytes();
    batch->entries_base = node.entries.data();
    batch->count = node.entries.size();
    batch->flags.resize(node.entries.size());
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const std::vector<uint8_t>& payload = node.entries[i].payload;
      // A width mismatch (corrupted node) never prunes — the same contract
      // as PayloadContainsSignature.
      batch->flags[i] =
          payload.size() != query_bytes ||
                  contains(payload.data(), payload.size(), query_words)
              ? 1
              : 0;
    }
  }

  bool operator()(const Node& node, const Entry& entry) const {
    obs::TraceSpan span(obs::SpanKind::kSignatureTest, entry.ref);
    obs::DefaultMetrics().signature_tests->Add();
    // Clamp defensively: a corrupted node's level byte must not index
    // past the signatures prepared for the tree's real height.
    const size_t level =
        std::min<size_t>(node.level, level_signatures->size() - 1);
    const Signature& query_sig = (*level_signatures)[level];
    bool matches;
    const size_t index = static_cast<size_t>(&entry - node.entries.data());
    if (batch != nullptr && batch->entries_base == node.entries.data() &&
        index < batch->count) {
      matches = batch->flags[index] != 0;
    } else {
      matches = PayloadContainsSignature(entry.payload, query_sig);
    }
    if (matches) {
      return true;
    }
    obs::DefaultMetrics().signature_prunes->Add();
    if (stats != nullptr) {
      ++stats->entries_pruned;
      if (stats->entries_pruned_per_level.size() <= level) {
        stats->entries_pruned_per_level.resize(level + 1);
      }
      ++stats->entries_pruned_per_level[level];
    }
    return false;
  }
};

// Reusable per-worker buffers for the query path: the NN priority queue's
// storage, the keyword-hash and per-level query-signature vectors, and the
// candidate-verification buffers (the loaded object and its raw record
// line). A worker that runs many queries through one scratch stops
// allocating per query once capacities have grown. A scratch must back at
// most one live cursor at a time.
struct Ir2QueryScratch {
  NNScratch nn;
  std::vector<uint64_t> keyword_hashes;
  std::vector<Signature> level_signatures;
  SignatureBatchScratch signature_batch;
  StoredObject candidate;
  std::string record_line;
};

// The distance-first IR2-Tree algorithm (Figure 8, IR2TopK): incremental NN
// over the IR2-Tree with the signature filter — entries (nodes or objects)
// whose signature does not contain the query signature are dropped from the
// search queue — followed by a false-positive check on each candidate
// object. Operates unchanged on a Mir2Tree (the per-level query signatures
// come from the tree's LevelConfig). `scratch` (optional) donates reusable
// buffers; it must not back another live query. `prefetch` (optional)
// enables speculative node/object reads; see NNPrefetchOptions — results
// and pool-level demand accounting are invariant to it.
StatusOr<std::vector<QueryResult>> Ir2TopK(const Ir2Tree& tree,
                                           const ObjectStore& objects,
                                           const Tokenizer& tokenizer,
                                           const DistanceFirstQuery& query,
                                           QueryStats* stats = nullptr,
                                           Ir2QueryScratch* scratch = nullptr,
                                           NNPrefetchOptions prefetch = {});

// Incremental cursor form of the same algorithm, for callers that consume
// results lazily (e.g. "next matching hotel" pagination). `max_distance`
// (inclusive) is the bounded-cursor form: the first neighbor strictly past
// the bound ends the stream, since neighbors arrive in ascending distance.
class Ir2TopKCursor {
 public:
  Ir2TopKCursor(const Ir2Tree* tree, const ObjectStore* objects,
                const Tokenizer* tokenizer, Point point,
                std::vector<std::string> keywords,
                Ir2QueryScratch* scratch = nullptr,
                NNPrefetchOptions prefetch = {},
                std::optional<double> max_distance = {});

  // Area-target variant: results ordered by MINDIST to `target`.
  Ir2TopKCursor(const Ir2Tree* tree, const ObjectStore* objects,
                const Tokenizer* tokenizer, Rect target,
                std::vector<std::string> keywords,
                Ir2QueryScratch* scratch = nullptr,
                NNPrefetchOptions prefetch = {},
                std::optional<double> max_distance = {});
  ~Ir2TopKCursor();

  Ir2TopKCursor(const Ir2TopKCursor&) = delete;
  Ir2TopKCursor& operator=(const Ir2TopKCursor&) = delete;

  // Next verified result, or nullopt when exhausted.
  StatusOr<std::optional<QueryResult>> Next();

  const QueryStats& stats() const { return stats_; }

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
  QueryStats stats_;
};

}  // namespace ir2

#endif  // IR2TREE_CORE_IR2_SEARCH_H_
