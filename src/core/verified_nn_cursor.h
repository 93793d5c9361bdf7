#ifndef IR2TREE_CORE_VERIFIED_NN_CURSOR_H_
#define IR2TREE_CORE_VERIFIED_NN_CURSOR_H_

// The one distance-first search loop behind every tree algorithm: the
// R-Tree baseline, IR2TopK over the IR2- and MIR2-Trees (Figure 8), the
// KC-Tree and the hybrid index's per-term trees. They differ only in the
// per-entry filter handed to the incremental NN traversal; everything after
// it — keyword normalization, the inclusive max_distance stop, loading each
// candidate object and the false-positive check on its text, with their
// metrics, trace spans and QueryStats — lives here once.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "core/ir2_tree.h"
#include "core/query.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtree/incremental_nn.h"
#include "storage/object_store.h"
#include "text/signature.h"
#include "text/tokenizer.h"

namespace ir2 {

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
  StoredObject candidate;
  std::string record_line;
};

// Incremental distance-first search with candidate verification: streams
// the objects containing every query keyword in ascending distance to the
// target. `Filter` prunes tree entries inside the NN traversal (statically
// dispatched, see IncrementalNNCursor); each object that survives it is
// loaded and its text checked against the normalized keywords, because
// superimposed signatures — and the unfiltered R-Tree — yield false
// positives.
//
// Construction normalizes the keywords, hashes them into
// scratch.keyword_hashes, and then calls `make_filter(scratch, stats)` to
// build the filter: it may derive query signatures into the scratch and
// keep pointers into both, which outlive the traversal. `scratch`
// (optional) donates reusable buffers and must not back another live
// cursor; without one the cursor owns its own. `node_scheduler` and
// `read_pool` (both optional) are IncrementalNNCursor's. `max_distance`
// (inclusive) is the bounded form: the first neighbor strictly past it ends
// the stream.
// Once ended the cursor stays ended — further Next() calls do no work.
// Not movable: the traversal holds pointers into the cursor's scratch.
template <typename Filter>
class VerifiedNNCursor {
 public:
  template <typename MakeFilter>
  VerifiedNNCursor(const RTreeBase* tree, const ObjectStore* objects,
                   const Tokenizer& tokenizer, const Rect& target,
                   const std::vector<std::string>& keywords,
                   Ir2QueryScratch* scratch, IoScheduler* node_scheduler,
                   BufferPool* read_pool, std::optional<double> max_distance,
                   MakeFilter&& make_filter)
      : objects_(objects),
        keywords_(tokenizer.NormalizeKeywords(keywords)),
        max_distance_(max_distance),
        scratch_(scratch != nullptr ? scratch : &own_scratch_.emplace()) {
    std::vector<uint64_t>& hashes = scratch_->keyword_hashes;
    hashes.clear();
    hashes.reserve(keywords_.size());
    for (const std::string& keyword : keywords_) {
      hashes.push_back(HashWord(keyword));
    }
    nn_.emplace(tree, target, make_filter(*scratch_, &stats_), &scratch_->nn,
                node_scheduler, read_pool);
  }

  VerifiedNNCursor(const VerifiedNNCursor&) = delete;
  VerifiedNNCursor& operator=(const VerifiedNNCursor&) = delete;

  // Next verified result, or nullopt once the stream has ended.
  StatusOr<std::optional<QueryResult>> Next() {
    while (!ended_) {
      IR2_ASSIGN_OR_RETURN(std::optional<Neighbor> neighbor, nn_->Next());
      if (!neighbor.has_value() ||
          (max_distance_.has_value() && neighbor->distance > *max_distance_)) {
        // Neighbors stream in ascending distance, so the first one strictly
        // past the (inclusive) bound proves everything farther is out too.
        ended_ = true;
        break;
      }
      // Candidate check (Figure 8 line 21) against the actual text. The
      // load recycles the scratch's candidate buffers and the containment
      // test matches the already-normalized keywords in place, so the
      // verification loop allocates nothing at steady state.
      obs::TraceSpan verify_span(obs::SpanKind::kObjectVerify, neighbor->ref);
      obs::DefaultMetrics().objects_verified->Add();
      StoredObject& candidate = scratch_->candidate;
      IR2_RETURN_IF_ERROR(objects_->LoadInto(neighbor->ref, &candidate,
                                             &scratch_->record_line));
      ++stats_.objects_loaded;
      stats_.nodes_visited = nn_->nodes_visited();
      if (ContainsAllNormalizedKeywords(candidate.text, keywords_)) {
        return std::optional<QueryResult>(
            QueryResult{neighbor->ref, candidate.id, neighbor->distance, 0.0,
                        -neighbor->distance, Point(candidate.coords)});
      }
      obs::DefaultMetrics().verification_false_positives->Add();
      ++stats_.false_positives;
    }
    stats_.nodes_visited = nn_->nodes_visited();
    return std::optional<QueryResult>();
  }

  // Counters of the search so far: the filter's prune accounting plus
  // objects_loaded, false_positives and nodes_visited.
  const QueryStats& stats() const { return stats_; }

 private:
  const ObjectStore* objects_;
  std::vector<std::string> keywords_;  // Normalized.
  std::optional<double> max_distance_;
  std::optional<Ir2QueryScratch> own_scratch_;  // When none is donated.
  Ir2QueryScratch* scratch_;
  QueryStats stats_;
  std::optional<IncrementalNNCursor<Filter>> nn_;
  bool ended_ = false;
};

// Filter factory of the unfiltered traversal (the R-Tree baseline and the
// hybrid index's per-term trees).
inline AcceptAllEntries NoEntryFilter(Ir2QueryScratch&, QueryStats*) {
  return {};
}

// The one-shot top-k form: drains `cursor` until it holds k results or the
// stream ends, then adds the cursor's counters to `stats`.
template <typename Filter>
StatusOr<std::vector<QueryResult>> CollectTopK(VerifiedNNCursor<Filter>& cursor,
                                               uint32_t k, QueryStats* stats) {
  std::vector<QueryResult> results;
  results.reserve(AnswerReserve(k));
  while (results.size() < k) {
    IR2_ASSIGN_OR_RETURN(std::optional<QueryResult> result, cursor.Next());
    if (!result.has_value()) {
      break;
    }
    results.push_back(*result);
  }
  if (stats != nullptr) {
    *stats += cursor.stats();
  }
  return results;
}

}  // namespace ir2

#endif  // IR2TREE_CORE_VERIFIED_NN_CURSOR_H_
