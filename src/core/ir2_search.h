#ifndef IR2TREE_CORE_IR2_SEARCH_H_
#define IR2TREE_CORE_IR2_SEARCH_H_

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "core/ir2_tree.h"
#include "core/query.h"
#include "core/verified_nn_cursor.h"
#include "rtree/incremental_nn.h"
#include "storage/object_store.h"
#include "text/tokenizer.h"

namespace ir2 {

// The "S matches W" pruning test of IR2NearestNeighbor in concrete form:
// handed to IncrementalNNCursor as a statically-dispatched filter, so the
// per-entry check is a direct (inlinable) call. Holds pointers only — the
// cursor copies the filter by value.
struct SignatureEntryFilter {
  const std::vector<Signature>* level_signatures = nullptr;
  QueryStats* stats = nullptr;

  bool operator()(const Node& node, const Entry& entry) const {
    obs::TraceSpan span(obs::SpanKind::kSignatureTest, entry.ref);
    obs::DefaultMetrics().signature_tests->Add();
    if (PayloadContainsSignature(entry.payload, QuerySignature(node))) {
      return true;
    }
    obs::DefaultMetrics().signature_prunes->Add();
    if (stats != nullptr) {
      const size_t level = Level(node);
      ++stats->entries_pruned;
      if (stats->entries_pruned_per_level.size() <= level) {
        stats->entries_pruned_per_level.resize(level + 1);
      }
      ++stats->entries_pruned_per_level[level];
    }
    return false;
  }

  // Clamped defensively: a corrupted node's level byte must not index past
  // the signatures prepared for the tree's real height.
  size_t Level(const Node& node) const {
    return std::min<size_t>(node.level, level_signatures->size() - 1);
  }
  const Signature& QuerySignature(const Node& node) const {
    return (*level_signatures)[Level(node)];
  }
};

// The distance-first IR2-Tree algorithm (Figure 8, IR2TopK): incremental NN
// over the IR2-Tree with the signature filter — entries (nodes or objects)
// whose signature does not contain the query signature are dropped from the
// search queue — followed by a false-positive check on each candidate
// object. Operates unchanged on a Mir2Tree (the per-level query signatures
// come from the tree's LevelConfig). `scratch` (optional) donates reusable
// buffers; it must not back another live query. `node_scheduler`
// (optional) prefetches the traversal's frontier; see IncrementalNNCursor —
// results and pool-level demand accounting are invariant to it.
// `read_pool` (optional) is the pool node reads go through (null: the
// tree's own).
StatusOr<std::vector<QueryResult>> Ir2TopK(
    const Ir2Tree& tree, const ObjectStore& objects, const Tokenizer& tokenizer,
    const DistanceFirstQuery& query, QueryStats* stats = nullptr,
    Ir2QueryScratch* scratch = nullptr, IoScheduler* node_scheduler = nullptr,
    BufferPool* read_pool = nullptr);

// Incremental cursor form of the same algorithm, for callers that consume
// results lazily (e.g. "next matching hotel" pagination): the shared
// VerifiedNNCursor with the signature filter. `max_distance` (inclusive) is
// the bounded-cursor form: the first neighbor strictly past the bound ends
// the stream, since neighbors arrive in ascending distance.
class Ir2TopKCursor : public VerifiedNNCursor<SignatureEntryFilter> {
 public:
  Ir2TopKCursor(const Ir2Tree* tree, const ObjectStore* objects,
                const Tokenizer* tokenizer, Point point,
                const std::vector<std::string>& keywords,
                Ir2QueryScratch* scratch = nullptr,
                IoScheduler* node_scheduler = nullptr,
                std::optional<double> max_distance = {},
                BufferPool* read_pool = nullptr)
      : Ir2TopKCursor(tree, objects, tokenizer, Rect::ForPoint(point),
                      keywords, scratch, node_scheduler, max_distance,
                      read_pool) {}

  // Area-target variant: results ordered by MINDIST to `target`.
  Ir2TopKCursor(const Ir2Tree* tree, const ObjectStore* objects,
                const Tokenizer* tokenizer, const Rect& target,
                const std::vector<std::string>& keywords,
                Ir2QueryScratch* scratch = nullptr,
                IoScheduler* node_scheduler = nullptr,
                std::optional<double> max_distance = {},
                BufferPool* read_pool = nullptr);
};

}  // namespace ir2

#endif  // IR2TREE_CORE_IR2_SEARCH_H_
