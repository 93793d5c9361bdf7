#include "core/rtree_baseline.h"

#include "core/verified_nn_cursor.h"

namespace ir2 {

StatusOr<std::vector<QueryResult>> RTreeTopK(const RTreeBase& tree,
                                             const ObjectStore& objects,
                                             const Tokenizer& tokenizer,
                                             const DistanceFirstQuery& query,
                                             QueryStats* stats,
                                             NNPrefetchOptions prefetch) {
  VerifiedNNCursor<AcceptAllEntries> cursor(
      &tree, &objects, tokenizer, query.Target(), query.keywords,
      /*scratch=*/nullptr, prefetch, query.max_distance, NoEntryFilter);
  return CollectTopK(cursor, query.k, stats);
}

}  // namespace ir2
