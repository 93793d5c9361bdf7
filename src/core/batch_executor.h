#ifndef IR2TREE_CORE_BATCH_EXECUTOR_H_
#define IR2TREE_CORE_BATCH_EXECUTOR_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/status_or.h"
#include "core/ir2_tree.h"
#include "core/ir2_search.h"
#include "core/planner.h"
#include "core/query.h"
#include "storage/buffer_pool.h"
#include "storage/object_store.h"
#include "text/tokenizer.h"

namespace ir2 {

class SpatialKeywordDatabase;

struct BatchExecutorOptions {
  // Worker threads; 0 picks std::thread::hardware_concurrency(). Capped at
  // the number of queries.
  size_t num_threads = 1;

  // Clear the worker's private pool and reset its device cursors before
  // every query, so each query is measured from a cold disk — the same
  // regime as DatabaseOptions::cold_queries. With this set, a query's
  // QueryStats (including its IoStats) are a pure function of the query and
  // the index, independent of batch order and thread count.
  bool cold_queries = true;

  // Capacity (blocks) of each worker's private node cache. Matches
  // DatabaseOptions::pool_blocks so batch and serial runs cache alike.
  size_t pool_blocks = 1 << 16;

  // Algorithm executed by the database-mode constructor (ignored in tree
  // mode). kAuto plans per query: workers read corrections from the
  // planner's feedback — effectively frozen for the batch, keeping
  // decisions independent of thread count and arrival order — and record
  // outcomes into worker-private PlannerFeedback instances merged into the
  // planner once on drain, exactly like the private metrics registries.
  Algorithm algorithm = Algorithm::kAuto;
};

// Everything a Run produces: results[i] and per_query[i] answer queries[i],
// in the order the queries were given, whatever order they executed in.
struct BatchResults {
  std::vector<std::vector<QueryResult>> results;
  std::vector<QueryStats> per_query;

  // Page-cache counters summed over every worker's private pool for the
  // whole batch (across cold-query Clear() epochs, which reset the pools'
  // own counters).
  BufferPoolStats pool_stats;

  // Sum over per_query. `seconds` is summed per-query work time (CPU-side
  // wall clock of each query), not batch elapsed time.
  QueryStats Aggregate() const;
};

// Runs a batch of distance-first queries against one IR2-Tree (or
// MIR2-Tree) with a fixed pool of worker threads.
//
// The tree, object store and tokenizer are shared read-only. Each worker
// opens a *private* BufferPool on the tree's device and routes its node
// reads through it with a ScopedReadPool, so workers never contend on a
// shared cache and — with cold_queries — every query sees exactly the cache
// state a serial cold run would give it. Per-query I/O is attributed
// through the devices' per-thread counters (BlockDevice::thread_stats), so
// concurrent workers never bleed into each other's IoStats.
//
// Queries are claimed from a shared atomic index (dynamic load balancing);
// results land at the query's original position. The first query error
// aborts the batch and is returned.
class BatchExecutor {
 public:
  // All pointees must outlive the executor. Pass a Mir2Tree as `tree` to
  // batch over the multilevel variant (Ir2TopK is polymorphic over both).
  BatchExecutor(const Ir2Tree* tree, const ObjectStore* objects,
                const Tokenizer* tokenizer, BatchExecutorOptions options = {});

  // Database mode: runs options.algorithm (kAuto by default, planned per
  // query by db->planner()) over every structure the database holds,
  // through the database's own algorithm dispatch and QueryStats
  // accounting — the code SpatialKeywordDatabase::Query runs — with a
  // per-worker traversal scratch. Workers open private pools over each
  // tree's device (ScopedReadPool) so node reads never contend; object and posting reads go through the
  // database's bypass pools, which is why this mode requires
  // db->options().prefetch == false (a shared caching pool would break
  // per-query cold isolation across workers). `db` must outlive the
  // executor; its planner receives the merged feedback after Run.
  BatchExecutor(SpatialKeywordDatabase* db, BatchExecutorOptions options = {});

  StatusOr<BatchResults> Run(std::span<const DistanceFirstQuery> queries) const;

  const BatchExecutorOptions& options() const { return options_; }

 private:
  StatusOr<BatchResults> RunDatabase(
      std::span<const DistanceFirstQuery> queries) const;

  const Ir2Tree* tree_ = nullptr;
  const ObjectStore* objects_ = nullptr;
  const Tokenizer* tokenizer_ = nullptr;
  SpatialKeywordDatabase* db_ = nullptr;
  BatchExecutorOptions options_;
};

}  // namespace ir2

#endif  // IR2TREE_CORE_BATCH_EXECUTOR_H_
