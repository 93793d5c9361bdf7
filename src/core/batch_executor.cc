#include "core/batch_executor.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "core/database.h"

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
    // The worker's query context. Trees get worker-private read pools
    // (node reads are the contended hot path); object and posting reads go
    // through the database's bypass pools, which forward per-thread counts
    // 1:1 to their devices. The traversal scratch (NN priority queue,
    // keyword hashes, query signatures) stops allocating once its
    // capacities have grown; planner feedback is worker-private, merged
    // once on drain.
    std::vector<std::unique_ptr<BufferPool>> local_pools;
    Ir2QueryScratch scratch;
    PlannerFeedback local_feedback;
    QueryContext ctx;
    ctx.scratch = &scratch;
    ctx.feedback = &local_feedback;
    for (size_t s = 0; s < kNumStructures; ++s) {
      const auto& slot = db_->slots_[s];
      if (slot.tree == nullptr) continue;
      local_pools.push_back(std::make_unique<BufferPool>(
          slot.device.get(), db_options.pool_blocks));
      ctx.read_pools[s] = local_pools.back().get();
    }
    BufferPoolStats pool_accum;

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
        // Then every tree's decoded-node cache, and then the thread's
        // cursors, as DropCaches does.
        for (const auto& slot : db_->slots_) {
          if (slot.tree != nullptr && slot.tree->node_cache() != nullptr) {
            slot.tree->node_cache()->Clear();
          }
        }
        db_->ForgetThreadCursors(ctx);
      }
      ctx.stats = QueryStats();
      IR2_ASSIGN_OR_RETURN(*results,
                           db_->ExecuteQuery(query, options_.algorithm, ctx));
      *stats = std::move(ctx.stats);
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
