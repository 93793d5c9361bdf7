#include "core/batch_executor.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "core/database.h"
#include "rtree/rtree_base.h"

namespace ir2 {

QueryStats BatchResults::Aggregate() const {
  QueryStats total;
  for (const QueryStats& stats : per_query) {
    total += stats;
  }
  return total;
}

BatchExecutor::BatchExecutor(SpatialKeywordDatabase* db,
                             BatchExecutorOptions options)
    : db_(db), options_(options) {
  IR2_CHECK(db != nullptr);
}

StatusOr<BatchResults> BatchExecutor::Run(
    std::span<const DistanceFirstQuery> queries) const {
  BatchResults out;
  out.results.resize(queries.size());
  out.per_query.resize(queries.size());
  if (queries.empty()) {
    return out;
  }
  const DatabaseOptions& db_options = db_->options();
  if (db_options.prefetch) {
    // A shared caching object/IIO pool would leak one worker's reads into
    // another's cold profile; the executor needs the bypass pools.
    return Status::InvalidArgument("BatchExecutor requires prefetch off");
  }

  // Trees get worker-private pools (node reads are the contended hot
  // path); object and posting reads go through the database's bypass
  // pools, which forward per-thread counts 1:1 to their devices.
  const std::vector<RTreeBase*> trees = db_->trees();
  size_t num_threads = options_.num_threads;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads = std::min(num_threads, queries.size());

  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  Status first_error = Status::Ok();
  std::mutex stats_mu;

  auto worker = [&]() {
    // One private pool per tree, routed via ScopedReadPool for the life of
    // the worker (the scopes unwind LIFO at worker exit).
    std::vector<std::unique_ptr<BufferPool>> local_pools;
    std::vector<std::unique_ptr<ScopedReadPool>> scopes;
    local_pools.reserve(trees.size());
    scopes.reserve(trees.size());
    for (RTreeBase* tree : trees) {
      local_pools.push_back(std::make_unique<BufferPool>(
          tree->pool()->device(), db_options.pool_blocks));
      scopes.push_back(
          std::make_unique<ScopedReadPool>(tree, local_pools.back().get()));
    }
    // Reusable traversal buffers: the NN priority queue, keyword hashes and
    // query signatures stop allocating once their capacities have grown.
    Ir2QueryScratch scratch;
    BufferPoolStats pool_accum;
    // Worker-private planner feedback, merged once on drain.
    PlannerFeedback local_feedback;

    auto run_one = [&](const DistanceFirstQuery& query,
                       std::vector<QueryResult>* results,
                       QueryStats* stats) -> Status {
      if (db_options.cold_queries) {
        // Clear() resets a pool's counters (a new cold epoch), so bank the
        // closing epoch's counts first.
        for (const auto& pool : local_pools) {
          pool_accum += pool->Stats();
          IR2_RETURN_IF_ERROR(pool->Clear());
        }
        for (RTreeBase* tree : trees) {
          if (NodeCache* cache = tree->node_cache()) {
            cache->Clear();
          }
        }
        // Every device a query of any algorithm can touch.
        for (const auto& slot : db_->slots_) {
          if (slot.device != nullptr) slot.device->ResetThreadCursor();
        }
      }
      IR2_ASSIGN_OR_RETURN(
          *results, db_->ExecuteQuery(query, options_.algorithm, stats,
                                      /*plan_out=*/nullptr, &scratch,
                                      &local_feedback));
      return Status::Ok();
    };

    while (!failed.load(std::memory_order_relaxed)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= queries.size()) {
        break;
      }
      Status status = run_one(queries[i], &out.results[i], &out.per_query[i]);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) {
          first_error = std::move(status);
        }
        failed.store(true, std::memory_order_relaxed);
        break;
      }
    }
    for (const auto& pool : local_pools) {
      pool_accum += pool->Stats();
    }
    db_->planner()->feedback().MergeFrom(local_feedback);
    // The ScopedReadPool overrides must unwind LIFO; a vector destroys
    // front-to-back, so pop them explicitly.
    while (!scopes.empty()) {
      scopes.pop_back();
    }
    std::lock_guard<std::mutex> lock(stats_mu);
    out.pool_stats += pool_accum;
  };

  if (num_threads == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (size_t t = 0; t < num_threads; ++t) {
      threads.emplace_back(worker);
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }

  if (!first_error.ok()) {
    return first_error;
  }
  return out;
}

}  // namespace ir2
