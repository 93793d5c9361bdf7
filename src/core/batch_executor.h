#ifndef IR2TREE_CORE_BATCH_EXECUTOR_H_
#define IR2TREE_CORE_BATCH_EXECUTOR_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/status_or.h"
#include "core/planner.h"
#include "core/query.h"
#include "storage/buffer_pool.h"

namespace ir2 {

class SpatialKeywordDatabase;

struct BatchExecutorOptions {
  // Worker threads; 0 picks std::thread::hardware_concurrency(). Capped at
  // the number of queries.
  size_t num_threads = 1;

  // Algorithm every query runs; kIr2 / kMir2 batch over one tree. kAuto
  // plans per query: workers read corrections from the planner's feedback
  // — effectively frozen for the batch, keeping decisions independent of
  // thread count and arrival order — and record outcomes into
  // worker-private PlannerFeedback instances merged into the planner once
  // on drain.
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

// Runs a batch of distance-first queries against one SpatialKeywordDatabase
// with a fixed pool of worker threads.
//
// Every query runs the database's own per-query step — the code
// SpatialKeywordDatabase::Query runs after its cache drop: planning,
// dispatch, QueryStats accounting, core metrics and planner feedback — with
// a per-worker traversal scratch. The regime and pool size come from
// db->options(): under cold_queries each worker clears its private pools
// and forgets its pool and device cursors before every query, as
// DropCaches does for Query, so a query's QueryStats (including io and
// simulated_disk_ms) are a pure function of the query and the index,
// independent of batch order and thread count.
//
// Each worker opens a *private* BufferPool (pool_blocks) over every tree's
// device and puts it in its QueryContext as that tree's read pool, so
// workers never contend on a shared cache. Object and posting reads go
// through the database's bypass pools. Per-query I/O is attributed through
// the devices' per-thread counters, so concurrent workers never bleed into
// each other's IoStats.
//
// Run rejects a database with prefetch on, and explicit read pools do not
// lift that. The IoSchedulers prefetch into each slot's shared pool, which
// a worker's private read pools never read, so tree prefetches would cost
// disk time and save none. And prefetch turns the object and IIO pools
// from bypass into shared caches, through which one worker's reads would
// leak into another's cold profile; cold per-query isolation needs them
// in bypass mode.
//
// Queries are claimed from a shared atomic index (dynamic load balancing);
// results land at the query's original position. The first query error
// aborts the batch and is returned.
class BatchExecutor {
 public:
  // `db` must outlive the executor; its planner receives the merged
  // feedback after Run.
  BatchExecutor(SpatialKeywordDatabase* db, BatchExecutorOptions options = {});

  StatusOr<BatchResults> Run(std::span<const DistanceFirstQuery> queries) const;

  const BatchExecutorOptions& options() const { return options_; }

 private:
  SpatialKeywordDatabase* db_;
  BatchExecutorOptions options_;
};

}  // namespace ir2

#endif  // IR2TREE_CORE_BATCH_EXECUTOR_H_
