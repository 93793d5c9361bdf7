#include "core/rtree_baseline.h"

#include "core/verified_nn_cursor.h"

namespace ir2 {

StatusOr<std::vector<QueryResult>> RTreeTopK(const RTreeBase& tree,
                                             const ObjectStore& objects,
                                             const Tokenizer& tokenizer,
                                             const DistanceFirstQuery& query,
                                             QueryStats* stats,
                                             IoScheduler* node_scheduler,
                                             BufferPool* read_pool) {
  VerifiedNNCursor<AcceptAllEntries> cursor(
      &tree, &objects, tokenizer, query.Target(), query.keywords,
      /*scratch=*/nullptr, node_scheduler, read_pool, query.max_distance,
      NoEntryFilter);
  return CollectTopK(cursor, query.k, stats);
}

}  // namespace ir2
