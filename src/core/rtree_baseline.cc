#include "core/rtree_baseline.h"

#include "rtree/incremental_nn.h"

namespace ir2 {

StatusOr<std::vector<QueryResult>> RTreeTopK(const RTreeBase& tree,
                                             const ObjectStore& objects,
                                             const Tokenizer& tokenizer,
                                             const DistanceFirstQuery& query,
                                             QueryStats* stats,
                                             NNPrefetchOptions prefetch) {
  IncrementalNNCursor cursor(&tree, query.Target(), {}, nullptr, prefetch);
  // Keywords are normalized once per query, and one record plus one line
  // buffer are recycled across candidates (LoadInto: the same device reads
  // as Load, without a fresh allocation per object).
  const std::vector<std::string> keywords =
      tokenizer.NormalizeKeywords(query.keywords);
  StoredObject object;
  std::string line;
  std::vector<QueryResult> results;
  results.reserve(query.k);
  while (results.size() < query.k) {
    IR2_ASSIGN_OR_RETURN(std::optional<Neighbor> neighbor, cursor.Next());
    if (!neighbor.has_value()) {
      break;  // Dataset exhausted before k matches.
    }
    if (query.max_distance.has_value() &&
        neighbor->distance > *query.max_distance) {
      // Neighbors stream in ascending distance: the first one strictly
      // past the (inclusive) bound proves everything farther is out too.
      break;
    }
    obs::TraceSpan verify_span(obs::SpanKind::kObjectVerify, neighbor->ref);
    obs::DefaultMetrics().objects_verified->Add();
    IR2_RETURN_IF_ERROR(objects.LoadInto(neighbor->ref, &object, &line));
    if (stats != nullptr) {
      ++stats->objects_loaded;
    }
    if (ContainsAllNormalizedKeywords(object.text, keywords)) {
      results.push_back(QueryResult{neighbor->ref, object.id,
                                    neighbor->distance, 0.0,
                                    -neighbor->distance,
                                    Point(object.coords)});
    } else {
      obs::DefaultMetrics().verification_false_positives->Add();
      if (stats != nullptr) {
        ++stats->false_positives;
      }
    }
  }
  if (stats != nullptr) {
    stats->nodes_visited += cursor.nodes_visited();
  }
  return results;
}

}  // namespace ir2
