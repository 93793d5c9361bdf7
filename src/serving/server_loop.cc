#include "serving/server_loop.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace ir2 {
namespace serving {

namespace {

using Clock = std::chrono::steady_clock;

// Distinct tenants beyond this many fold into the tenant="other" row and
// label, bounding registry cardinality against hostile tenant churn.
constexpr size_t kMaxLabelledTenants = 64;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

ServerLoop::ServerLoop(ShardedDatabase* db, ServerLoopOptions options)
    : db_(db),
      options_(options),
      slo_(options.slo),
      query_log_(options.query_log) {
  IR2_CHECK(db_ != nullptr);
  if (options_.num_workers == 0) options_.num_workers = 1;
  IR2_CHECK(options_.queue_capacity >= 1);
  // Concurrent workers share the shards' pools and planners; that is only
  // a read-only workload in the warm regime.
  IR2_CHECK(options_.num_workers == 1 || db_->SafeForConcurrentQueries())
      << "ServerLoop with >1 worker requires warm shards "
         "(cold_queries=false, prefetch=false)";
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

ServerLoop::~ServerLoop() { Stop(); }

ServerLoop::TenantCells& ServerLoop::CellsFor(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() && tenants_.size() >= kMaxLabelledTenants) {
    it = tenants_.find("other");
  }
  if (it == tenants_.end()) {
    const std::string label =
        tenants_.size() >= kMaxLabelledTenants ? "other" : tenant;
    TenantCells cells;
    cells.row.tenant = label;
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    // The bare families carry the HELP text (DefaultServingMetrics); these
    // labelled series render grouped under them.
    cells.admitted = registry.GetCounter(obs::MetricsRegistry::LabelledName(
        "ir2_server_admitted_total", "tenant", label));
    cells.rejected_queue_full =
        registry.GetCounter(obs::MetricsRegistry::LabelledName(
            "ir2_server_rejected_queue_total", "tenant", label));
    cells.rejected_quota =
        registry.GetCounter(obs::MetricsRegistry::LabelledName(
            "ir2_server_rejected_quota_total", "tenant", label));
    cells.completed = registry.GetCounter(obs::MetricsRegistry::LabelledName(
        "ir2_server_completed_total", "tenant", label));
    cells.cache_hits = registry.GetCounter(obs::MetricsRegistry::LabelledName(
        "ir2_result_cache_hits_total", "tenant", label));
    cells.cache_near_hits =
        registry.GetCounter(obs::MetricsRegistry::LabelledName(
            "ir2_result_cache_near_hits_total", "tenant", label));
    cells.cache_misses = registry.GetCounter(obs::MetricsRegistry::LabelledName(
        "ir2_result_cache_misses_total", "tenant", label));
    cells.cache_invalidations =
        registry.GetCounter(obs::MetricsRegistry::LabelledName(
            "ir2_result_cache_invalidations_total", "tenant", label));
    it = tenants_.emplace(label, std::move(cells)).first;
  }
  return it->second;
}

double ServerLoop::EstimateQueueDrainMs() const {
  // Work ahead of a hypothetical new request, spread over the workers.
  const double backlog =
      static_cast<double>(queue_.size() + in_flight_) + 1.0;
  return service_ewma_ms_ * backlog /
         static_cast<double>(options_.num_workers);
}

ServerLoop::Admission ServerLoop::Submit(const std::string& tenant,
                                         DistanceFirstQuery query,
                                         Callback done) {
  const ServingMetrics& metrics = DefaultServingMetrics();
  Admission admission;
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_ || queue_.size() >= options_.queue_capacity) {
    admission.outcome = Admission::Outcome::kQueueFull;
    admission.retry_after_ms = EstimateQueueDrainMs();
    ++stats_.rejected_queue_full;
    metrics.server_rejected_queue_total->Add();
    TenantCells& cells = CellsFor(tenant);
    ++cells.row.rejected_queue_full;
    cells.rejected_queue_full->Add();
    return admission;
  }
  if (options_.quota.tokens_per_second > 0.0) {
    const Clock::time_point now = Clock::now();
    TokenBucket& bucket = buckets_[tenant];
    if (bucket.last_refill == Clock::time_point{}) {
      bucket.tokens = options_.quota.burst;  // New tenant starts full.
    } else {
      const double elapsed_s =
          std::chrono::duration<double>(now - bucket.last_refill).count();
      bucket.tokens =
          std::min(options_.quota.burst,
                   bucket.tokens + elapsed_s * options_.quota.tokens_per_second);
    }
    bucket.last_refill = now;
    if (bucket.tokens < 1.0) {
      admission.outcome = Admission::Outcome::kOverQuota;
      admission.retry_after_ms = (1.0 - bucket.tokens) /
                                 options_.quota.tokens_per_second * 1000.0;
      ++stats_.rejected_quota;
      metrics.server_rejected_quota_total->Add();
      TenantCells& cells = CellsFor(tenant);
      ++cells.row.rejected_quota;
      cells.rejected_quota->Add();
      return admission;
    }
    bucket.tokens -= 1.0;
  }
  admission.outcome = Admission::Outcome::kAdmitted;
  admission.ticket = next_ticket_++;
  ++stats_.admitted;
  metrics.server_admitted_total->Add();
  TenantCells& cells = CellsFor(tenant);
  ++cells.row.admitted;
  cells.admitted->Add();
  queue_.push_back(Request{tenant, admission.ticket, std::move(query),
                           std::move(done), Clock::now()});
  metrics.server_queue_depth->Set(static_cast<int64_t>(queue_.size()));
  lock.unlock();
  work_cv_.notify_one();
  return admission;
}

void ServerLoop::WorkerMain() {
  const ServingMetrics& metrics = DefaultServingMetrics();
  for (;;) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained.
      request = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      metrics.server_queue_depth->Set(static_cast<int64_t>(queue_.size()));
    }
    const double queue_ms = MsBetween(request.enqueued, Clock::now());
    metrics.server_queue_wait_ms->Record(queue_ms);

    Stopwatch watch;
    // One context per request: the tier adds every executed shard leg's
    // plan to its audit.
    QueryContext ctx;
    StatusOr<std::vector<QueryResult>> results =
        db_->Query(request.query, options_.algorithm, ctx);
    const QueryStats& stats = ctx.stats;
    const QueryContext::PlanAudit& audit = ctx.audit;
    const double service_ms = watch.ElapsedSeconds() * 1000.0;

    const double latency_ms = queue_ms + service_ms;
    const bool ok = results.ok();
    latency_window_.Record(latency_ms);
    slo_.Record(ok, latency_ms);
    const bool slow = latency_ms > options_.slo.latency_threshold_ms;
    if (!ok || slow || query_log_.ShouldSample(request.ticket)) {
      obs::QueryLogRecord record;
      record.ts_ms = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count());
      record.ticket = request.ticket;
      record.tenant = request.tenant;
      record.k = request.query.k;
      record.num_keywords =
          static_cast<uint32_t>(request.query.keywords.size());
      record.area = request.query.area.has_value();
      if (audit.plans > 0) record.algo = AlgorithmName(audit.algo);
      record.predicted_ms = audit.predicted_ms;
      record.observed_ms = audit.observed_ms;
      record.plans = audit.plans;
      record.ok = ok;
      if (!ok) record.error = results.status().ToString();
      record.slow = slow;
      record.latency_ms = latency_ms;
      record.queue_ms = queue_ms;
      record.results =
          ok ? static_cast<uint32_t>(results.value().size()) : 0;
      record.stats.objects_loaded = stats.objects_loaded;
      record.stats.false_positives = stats.false_positives;
      record.stats.nodes_visited = stats.nodes_visited;
      record.stats.node_decodes = stats.node_decodes;
      record.stats.entries_pruned = stats.entries_pruned;
      record.stats.demand_random_reads = stats.demand_io.random_reads;
      record.stats.demand_sequential_reads = stats.demand_io.sequential_reads;
      record.stats.speculative_random_reads =
          stats.speculative_io.random_reads;
      record.stats.speculative_sequential_reads =
          stats.speculative_io.sequential_reads;
      record.stats.simulated_disk_ms = stats.simulated_disk_ms;
      record.stats.shards_queried = stats.shards_queried;
      record.stats.shards_pruned = stats.shards_pruned;
      query_log_.Record(std::move(record));
    }

    if (request.done) request.done(std::move(results), stats);

    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.completed;
      --in_flight_;
      service_ewma_ms_ = 0.8 * service_ewma_ms_ + 0.2 * service_ms;
      TenantCells& cells = CellsFor(request.tenant);
      ++cells.row.completed;
      cells.completed->Add();
      // Result-cache outcome of this query (the bare families are fed by
      // the cache itself; these are the per-tenant labelled series).
      cells.row.cache_hits += stats.result_cache_hits;
      cells.row.cache_near_hits += stats.result_cache_near_hits;
      cells.row.cache_misses += stats.result_cache_misses;
      cells.row.cache_invalidations += stats.result_cache_invalidations;
      if (stats.result_cache_hits > 0) {
        cells.cache_hits->Add(stats.result_cache_hits);
      }
      if (stats.result_cache_near_hits > 0) {
        cells.cache_near_hits->Add(stats.result_cache_near_hits);
      }
      if (stats.result_cache_misses > 0) {
        cells.cache_misses->Add(stats.result_cache_misses);
      }
      if (stats.result_cache_invalidations > 0) {
        cells.cache_invalidations->Add(stats.result_cache_invalidations);
      }
      if (queue_.empty() && in_flight_ == 0) drain_cv_.notify_all();
    }
    metrics.server_completed_total->Add();
  }
}

void ServerLoop::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ServerLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

ServerStats ServerLoop::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ServerLoop::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::vector<TenantRow> ServerLoop::TenantTable() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TenantRow> rows;
  rows.reserve(tenants_.size());
  for (const auto& [tenant, cells] : tenants_) {
    rows.push_back(cells.row);
  }
  return rows;
}

}  // namespace serving
}  // namespace ir2
