#include "core/batch_executor.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/database.h"
#include "obs/metrics.h"
#include "rtree/rtree_base.h"
#include "storage/buffer_pool.h"

namespace ir2 {

QueryStats BatchResults::Aggregate() const {
  QueryStats total;
  for (const QueryStats& stats : per_query) {
    total += stats;
  }
  return total;
}

BatchExecutor::BatchExecutor(const Ir2Tree* tree, const ObjectStore* objects,
                             const Tokenizer* tokenizer,
                             BatchExecutorOptions options)
    : tree_(tree),
      objects_(objects),
      tokenizer_(tokenizer),
      options_(options) {
  IR2_CHECK(tree != nullptr);
  IR2_CHECK(objects != nullptr);
  IR2_CHECK(tokenizer != nullptr);
}

BatchExecutor::BatchExecutor(SpatialKeywordDatabase* db,
                             BatchExecutorOptions options)
    : db_(db), options_(options) {
  IR2_CHECK(db != nullptr);
}

StatusOr<BatchResults> BatchExecutor::RunDatabase(
    std::span<const DistanceFirstQuery> queries) const {
  BatchResults out;
  out.results.resize(queries.size());
  out.per_query.resize(queries.size());
  if (queries.empty()) {
    return out;
  }
  if (db_->options().prefetch) {
    // A shared caching object/IIO pool would leak one worker's reads into
    // another's cold profile; this mode needs the bypass pools.
    return Status::InvalidArgument(
        "Database-mode BatchExecutor requires prefetch off");
  }
  QueryPlanner* planner = db_->planner();
  if (options_.algorithm == Algorithm::kAuto && planner == nullptr) {
    return Status::FailedPrecondition("Planner was not built");
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
          tree->pool()->device(), options_.pool_blocks));
      scopes.push_back(
          std::make_unique<ScopedReadPool>(tree, local_pools.back().get()));
    }
    Ir2QueryScratch scratch;
    BufferPoolStats pool_accum;
    // Worker-private feedback and metrics, merged once on drain.
    PlannerFeedback local_feedback;
    obs::MetricsRegistry local_metrics;
    obs::Counter* batch_queries = local_metrics.GetCounter(
        "ir2_batch_queries_total", "Queries completed by batch workers.");
    obs::Histogram* batch_latency = local_metrics.GetHistogram(
        "ir2_batch_query_latency_ms",
        "Per-query wall-clock latency inside batch workers (ms).");

    auto run_one = [&](const DistanceFirstQuery& query,
                       std::vector<QueryResult>* results,
                       QueryStats* stats) -> Status {
      if (options_.cold_queries) {
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
      Algorithm algo = options_.algorithm;
      QueryPlan plan;
      if (algo == Algorithm::kAuto) {
        // Zero-I/O planning; corrections come from the planner's (shared,
        // effectively frozen) feedback so every worker prices alike.
        plan = planner->Plan(query);
        if (!plan.has_choice) {
          return Status::FailedPrecondition(
              "No structure available to answer the query");
        }
        algo = plan.chosen;
      }
      // The facade's dispatch and accounting; only the scratch and the
      // read pools are the worker's own.
      const SpatialKeywordDatabase::ThreadCounters before =
          db_->CurrentThreadCounters();
      Stopwatch watch;
      QueryStats local;
      IR2_ASSIGN_OR_RETURN(*results,
                           db_->RunAlgorithm(algo, query, &local, &scratch));
      local.seconds = watch.ElapsedSeconds();
      db_->AccountSince(before, &local);
      if (options_.algorithm == Algorithm::kAuto) {
        planner->RecordOutcome(plan, local.simulated_disk_ms,
                               &local_feedback);
      }
      *stats = local;
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
      batch_queries->Add();
      batch_latency->Record(out.per_query[i].seconds * 1000.0);
    }
    for (const auto& pool : local_pools) {
      pool_accum += pool->Stats();
    }
    obs::MetricsRegistry::Global().MergeFrom(local_metrics);
    if (options_.algorithm == Algorithm::kAuto) {
      planner->feedback().MergeFrom(local_feedback);
    }
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

StatusOr<BatchResults> BatchExecutor::Run(
    std::span<const DistanceFirstQuery> queries) const {
  if (db_ != nullptr) {
    return RunDatabase(queries);
  }
  BatchResults out;
  out.results.resize(queries.size());
  out.per_query.resize(queries.size());
  if (queries.empty()) {
    return out;
  }

  size_t num_threads = options_.num_threads;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads = std::min(num_threads, queries.size());

  BlockDevice* tree_device = tree_->pool()->device();
  BlockDevice* object_device = objects_->device();

  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  Status first_error = Status::Ok();

  auto thread_io = [&]() {
    // The tree and object file usually live on distinct devices (the
    // database gives every structure its own); when they share one, count
    // it once.
    IoStats io = tree_device->thread_stats();
    if (object_device != tree_device) {
      io += object_device->thread_stats();
    }
    return io;
  };

  std::mutex stats_mu;

  auto run_one = [&](BufferPool* local_pool, Ir2QueryScratch* scratch,
                     BufferPoolStats* pool_accum,
                     const DistanceFirstQuery& query,
                     std::vector<QueryResult>* results,
                     QueryStats* stats) -> Status {
    if (options_.cold_queries) {
      // Clear() resets the pool's counters (a new cold epoch), so bank the
      // closing epoch's counts first.
      *pool_accum += local_pool->Stats();
      IR2_RETURN_IF_ERROR(local_pool->Clear());
      if (NodeCache* cache = tree_->node_cache()) {
        // A decoded-node cache would also short-circuit the cold device
        // reads; drop it so each query's disk counts stay a pure function
        // of the query.
        cache->Clear();
      }
      tree_device->ResetThreadCursor();
      if (object_device != tree_device) {
        object_device->ResetThreadCursor();
      }
    }
    const IoStats before = thread_io();
    Stopwatch watch;
    QueryStats local;
    IR2_ASSIGN_OR_RETURN(*results,
                         Ir2TopK(*tree_, *objects_, *tokenizer_, query,
                                 &local, scratch));
    local.seconds = watch.ElapsedSeconds();
    local.io = thread_io() - before;
    *stats = local;
    return Status::Ok();
  };

  auto worker = [&]() {
    // Private node cache over the shared device for the life of the worker;
    // every LoadNode this thread issues against the tree reads through it.
    BufferPool local_pool(tree_device, options_.pool_blocks);
    ScopedReadPool scope(tree_, &local_pool);
    // Reusable traversal buffers: the NN priority queue, keyword hashes and
    // query signatures stop allocating once their capacities have grown.
    Ir2QueryScratch scratch;
    BufferPoolStats pool_accum;
    // Private registry so the batch counters cost no cross-worker
    // coordination while queries run; merged into the global registry once
    // when the worker drains.
    obs::MetricsRegistry local_metrics;
    obs::Counter* batch_queries = local_metrics.GetCounter(
        "ir2_batch_queries_total", "Queries completed by batch workers.");
    obs::Histogram* batch_latency = local_metrics.GetHistogram(
        "ir2_batch_query_latency_ms",
        "Per-query wall-clock latency inside batch workers (ms).");
    while (!failed.load(std::memory_order_relaxed)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= queries.size()) {
        break;
      }
      Status status = run_one(&local_pool, &scratch, &pool_accum, queries[i],
                              &out.results[i], &out.per_query[i]);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) {
          first_error = std::move(status);
        }
        failed.store(true, std::memory_order_relaxed);
        break;
      }
      batch_queries->Add();
      batch_latency->Record(out.per_query[i].seconds * 1000.0);
    }
    pool_accum += local_pool.Stats();
    obs::MetricsRegistry::Global().MergeFrom(local_metrics);
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
