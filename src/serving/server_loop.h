#ifndef IR2TREE_SERVING_SERVER_LOOP_H_
#define IR2TREE_SERVING_SERVER_LOOP_H_

// Long-lived serving front end over a ShardedDatabase: a bounded admission
// queue feeding a fixed worker pool, per-tenant token-bucket quotas, and
// graceful overload shedding — a request that cannot be admitted is
// rejected immediately with a retry-after hint instead of queueing without
// bound and collapsing tail latency for everyone (docs/serving.md).
//
// The worker discipline extends BatchExecutor's from one batch to a
// continuous stream: workers claim requests from the shared queue, execute
// the scatter-gather query, and report per-request QueryStats through the
// completion callback. Workers require the warm serving regime
// (cold_queries off, prefetch off on every shard): queries then only read,
// so concurrent execution is safe without per-worker pool plumbing.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status_or.h"
#include "core/planner.h"
#include "core/query.h"
#include "obs/query_log.h"
#include "obs/windowed.h"
#include "serving/sharded_database.h"

namespace ir2 {
namespace serving {

struct TokenBucketOptions {
  // Sustained request rate allowed per tenant; <= 0 disables quotas.
  double tokens_per_second = 0.0;
  // Bucket capacity: how far a tenant can burst above the sustained rate.
  double burst = 8.0;
};

struct ServerLoopOptions {
  size_t num_workers = 2;
  // Admission queue bound. A full queue sheds new requests — the server
  // keeps its latency promise by refusing work it cannot start soon.
  size_t queue_capacity = 64;
  Algorithm algorithm = Algorithm::kAuto;
  TokenBucketOptions quota;
  // Live telemetry: the windowed latency quantiles, SLO tracker, sampled
  // query log, per-tenant labelled registry counters and the planner audit
  // are always recorded. The SLO's latency_threshold_ms is also the query
  // log's "slow" line: one threshold for both surfaces.
  obs::SloOptions slo;
  obs::QueryLogOptions query_log;
};

struct ServerStats {
  uint64_t admitted = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t rejected_quota = 0;
  uint64_t completed = 0;
};

// One tenant's RED row for /statusz — this loop's counts, not the global
// registry's (which accumulates across every loop in the process).
struct TenantRow {
  std::string tenant;
  uint64_t admitted = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t rejected_quota = 0;
  uint64_t completed = 0;
  // Semantic result-cache outcomes for this tenant's completed queries
  // (serving/result_cache.h); all zero when the tier runs without a cache.
  uint64_t cache_hits = 0;
  uint64_t cache_near_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidations = 0;
};

class ServerLoop {
 public:
  // Completion callback: runs on a worker thread, after the query.
  using Callback =
      std::function<void(StatusOr<std::vector<QueryResult>>, const QueryStats&)>;

  struct Admission {
    enum class Outcome {
      kAdmitted = 0,
      kQueueFull,  // Shed by backpressure; retry after `retry_after_ms`.
      kOverQuota,  // Shed by the tenant's token bucket.
    };
    Outcome outcome = Outcome::kAdmitted;
    // How long the client should wait before retrying (the bucket's refill
    // time, or the queue's expected drain time). 0 when admitted.
    double retry_after_ms = 0.0;
    uint64_t ticket = 0;  // Admission sequence number (admitted only).
  };

  // `db` must outlive the loop and be SafeForConcurrentQueries() when
  // num_workers > 1. Workers start immediately.
  ServerLoop(ShardedDatabase* db, ServerLoopOptions options);
  ~ServerLoop();  // Stop(): drains queued work, then joins the workers.

  ServerLoop(const ServerLoop&) = delete;
  ServerLoop& operator=(const ServerLoop&) = delete;

  // Non-blocking admission: either enqueues the request (callback fires
  // later from a worker) or sheds it with a retry-after hint. Never blocks
  // on query execution.
  Admission Submit(const std::string& tenant, DistanceFirstQuery query,
                   Callback done);

  // Blocks until every admitted request has completed.
  void Drain();

  // Stops admissions, finishes the queued requests, joins the workers.
  // Idempotent; the destructor calls it.
  void Stop();

  ServerStats stats() const;
  const ServerLoopOptions& options() const { return options_; }
  size_t queue_depth() const;

  // Per-tenant RED rows, sorted by tenant name.
  std::vector<TenantRow> TenantTable() const;
  // Last-60s (configurable) latency quantiles over end-to-end request
  // latency (queue wait + service).
  obs::WindowedHistogram::Snapshot LatencyWindow() const {
    return latency_window_.Snap();
  }
  obs::SloTracker::Report SloReport() const { return slo_.GetReport(); }
  obs::QueryLog* query_log() { return &query_log_; }
  const obs::QueryLog& query_log() const { return query_log_; }

 private:
  struct Request {
    std::string tenant;
    uint64_t ticket = 0;
    DistanceFirstQuery query;
    Callback done;
    std::chrono::steady_clock::time_point enqueued;
  };
  struct TokenBucket {
    double tokens = 0.0;
    std::chrono::steady_clock::time_point last_refill;
  };
  // Per-tenant accounting: this loop's RED row plus the cached global
  // labelled counters (ir2_server_*_total{tenant="..."}).
  struct TenantCells {
    TenantRow row;
    obs::Counter* admitted = nullptr;
    obs::Counter* rejected_queue_full = nullptr;
    obs::Counter* rejected_quota = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_near_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* cache_invalidations = nullptr;
  };

  void WorkerMain();
  // Finds or creates the tenant's cells, folding overflow tenants into
  // "other" past the first 64 distinct tenants. Caller holds mu_.
  TenantCells& CellsFor(const std::string& tenant);
  // Expected milliseconds until a queue slot frees up, from the service-time
  // EWMA. Caller holds mu_.
  double EstimateQueueDrainMs() const;

  ShardedDatabase* db_;
  ServerLoopOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // Queue non-empty or stopping.
  std::condition_variable drain_cv_;  // Queue empty and nothing in flight.
  std::deque<Request> queue_;
  std::map<std::string, TokenBucket> buckets_;
  std::map<std::string, TenantCells> tenants_;
  ServerStats stats_;
  uint64_t next_ticket_ = 1;
  size_t in_flight_ = 0;
  bool stopping_ = false;
  // EWMA of per-request service time, for queue-full retry-after hints.
  double service_ewma_ms_ = 1.0;

  // Live telemetry.
  obs::WindowedHistogram latency_window_;
  obs::SloTracker slo_;
  obs::QueryLog query_log_;

  std::vector<std::thread> workers_;
};

}  // namespace serving
}  // namespace ir2

#endif  // IR2TREE_SERVING_SERVER_LOOP_H_
