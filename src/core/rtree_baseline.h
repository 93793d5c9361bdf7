#ifndef IR2TREE_CORE_RTREE_BASELINE_H_
#define IR2TREE_CORE_RTREE_BASELINE_H_

#include <vector>

#include "common/status_or.h"
#include "core/query.h"
#include "rtree/incremental_nn.h"
#include "rtree/rtree.h"
#include "storage/object_store.h"
#include "text/tokenizer.h"

namespace ir2 {

// The paper's first baseline (Section V-A): incremental NN over a plain
// R-Tree; every returned neighbor's object is fetched and its text checked
// against the query keywords until k objects pass. Potentially retrieves
// many "useless" objects — in the worst case the whole dataset.
// `node_scheduler` (optional) prefetches the traversal's frontier; results
// and pool-level demand accounting are invariant to it. `read_pool`
// (optional) is the pool node reads go through (null: the tree's own).
StatusOr<std::vector<QueryResult>> RTreeTopK(
    const RTreeBase& tree, const ObjectStore& objects,
    const Tokenizer& tokenizer, const DistanceFirstQuery& query,
    QueryStats* stats = nullptr, IoScheduler* node_scheduler = nullptr,
    BufferPool* read_pool = nullptr);

}  // namespace ir2

#endif  // IR2TREE_CORE_RTREE_BASELINE_H_
