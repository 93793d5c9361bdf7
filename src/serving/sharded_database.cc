#include "serving/sharded_database.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "obs/trace.h"
#include "serving/space_filling.h"

namespace ir2 {
namespace serving {

const ServingMetrics& DefaultServingMetrics() {
  static const ServingMetrics metrics = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
    ServingMetrics m;
    m.shard_queries_total = r.GetCounter(
        "ir2_shard_queries_total", "Scatter-gather queries executed");
    m.shard_fanout_legs_total = r.GetCounter(
        "ir2_shard_fanout_legs_total", "Shard legs executed (fan-out)");
    m.shard_pruned_total = r.GetCounter(
        "ir2_shard_pruned_total",
        "Shard legs skipped by the MBR lower-bound test");
    m.shard_fanout_width = r.GetHistogram(
        "ir2_shard_fanout_width", "Shard legs executed per query");
    m.server_admitted_total = r.GetCounter(
        "ir2_server_admitted_total", "Requests admitted to the server queue");
    m.server_rejected_queue_total = r.GetCounter(
        "ir2_server_rejected_queue_total",
        "Requests shed because the admission queue was full");
    m.server_rejected_quota_total = r.GetCounter(
        "ir2_server_rejected_quota_total",
        "Requests shed by a tenant token-bucket quota");
    m.server_completed_total = r.GetCounter(
        "ir2_server_completed_total", "Requests completed by server workers");
    m.server_queue_depth = r.GetGauge(
        "ir2_server_queue_depth", "Requests waiting in the admission queue");
    m.server_queue_wait_ms = r.GetHistogram(
        "ir2_server_queue_wait_ms", "Admission-to-dispatch wait per request");
    return m;
  }();
  return metrics;
}

namespace {

// The global merge order: ascending distance, ties by object id (then the
// shard-local ref, unreachable for datasets with unique ids). Total and
// shard-count-independent, which is what makes N-shard answers identical
// to the single-database answer.
bool MergeLess(const QueryResult& a, const QueryResult& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  if (a.object_id != b.object_id) return a.object_id < b.object_id;
  return a.ref < b.ref;
}

}  // namespace

StatusOr<std::unique_ptr<ShardedDatabase>> ShardedDatabase::Build(
    std::span<const StoredObject> objects, const DatabaseOptions& options,
    const ShardingOptions& sharding) {
  if (objects.empty()) {
    return Status::InvalidArgument("ShardedDatabase: no objects");
  }
  auto db = std::unique_ptr<ShardedDatabase>(new ShardedDatabase());
  db->sharding_ = sharding;
  db->sharding_.num_shards = std::max<uint64_t>(
      1, std::min<uint64_t>(sharding.num_shards, objects.size()));

  std::vector<ShardAssignment> assignment =
      PartitionBySpaceFillingCurve(objects, db->sharding_.num_shards);
  db->curve_ =
      CurveNameForDims(static_cast<uint32_t>(objects.front().coords.size()));

  DatabaseOptions shard_options = options;
  shard_options.structures = sharding.structures;
  // Shards share nothing, so they build concurrently: each worker takes
  // the next shard index and builds that shard into its own slot. The
  // workers split the machine's threads among them, so with a worker per
  // core a shard builds its structures inline rather than nesting its own
  // structure workers inside the tier's.
  std::vector<std::unique_ptr<SpatialKeywordDatabase>> built(
      assignment.size());
  std::vector<Status> status(assignment.size());
  const size_t num_workers = std::min(assignment.size(), HardwareWorkers());
  const size_t structure_workers =
      std::max<size_t>(1, HardwareWorkers() / num_workers);
  RunTasks(assignment.size(), num_workers, [&](size_t s) {
    std::vector<StoredObject> members;
    members.reserve(assignment[s].members.size());
    for (uint32_t index : assignment[s].members) {
      members.push_back(objects[index]);
    }
    auto shard = SpatialKeywordDatabase::Build(members, shard_options,
                                               structure_workers);
    if (shard.ok()) {
      built[s] = std::move(shard).value();
    } else {
      status[s] = shard.status();
    }
  });
  for (const Status& shard_status : status) {
    IR2_RETURN_IF_ERROR(shard_status);
  }
  db->shards_ = std::move(built);
  db->info_.reserve(assignment.size());
  for (const ShardAssignment& shard : assignment) {
    db->info_.push_back(ShardInfo{shard.bounds, shard.members.size()});
  }
  db->AttachNodeCaches();
  return db;
}

StatusOr<std::unique_ptr<ShardedDatabase>> ShardedDatabase::WrapSingle(
    std::unique_ptr<SpatialKeywordDatabase> single) {
  if (single == nullptr) {
    return Status::InvalidArgument("WrapSingle: null database");
  }
  ShardInfo info;
  info.num_objects = single->stats().num_objects;
  bool first = true;
  Status scan = single->object_store().ForEach(
      [&](ObjectRef, const StoredObject& object) {
        const Rect point = Rect::ForPoint(Point(object.coords));
        info.bounds = first ? point : info.bounds.UnionWith(point);
        first = false;
        return Status::Ok();
      });
  IR2_RETURN_IF_ERROR(scan);
  if (first) {
    return Status::InvalidArgument("WrapSingle: empty database");
  }
  auto db = std::unique_ptr<ShardedDatabase>(new ShardedDatabase());
  db->sharding_.num_shards = 1;
  db->sharding_.structures = single->options().structures;
  db->shards_.push_back(std::move(single));
  db->info_.push_back(std::move(info));
  db->AttachNodeCaches();
  return db;
}

void ShardedDatabase::AttachNodeCaches() {
  for (const auto& shard : shards_) {
    // Cold shards drop every cache before each query, so a decoded-node
    // cache would only add Clear() work to each DropCaches.
    if (shard->options().cold_queries) continue;
    for (RTreeBase* tree : shard->trees()) {
      node_caches_.push_back(std::make_unique<NodeCache>());
      tree->SetNodeCache(node_caches_.back().get());
    }
  }
}

bool ShardedDatabase::SafeForConcurrentQueries() const {
  for (const auto& shard : shards_) {
    if (shard->options().cold_queries || shard->options().prefetch) {
      return false;
    }
  }
  return true;
}

void ShardedDatabase::EnableResultCache(ResultCacheOptions options) {
  cache_ = std::make_unique<ResultCache>(options);
}

uint64_t ShardedDatabase::MutationEpoch() const {
  uint64_t epoch = 0;
  for (const auto& shard : shards_) epoch += shard->MutationEpoch();
  return epoch;
}

StatusOr<std::vector<QueryResult>> ShardedDatabase::Query(
    const DistanceFirstQuery& q, Algorithm algo, QueryContext& ctx) {
  return QueryCached(q, algo, ctx, nullptr, nullptr);
}

StatusOr<std::vector<QueryResult>> ShardedDatabase::Query(
    const DistanceFirstQuery& q, Algorithm algo, QueryStats* stats) {
  QueryContext ctx;
  StatusOr<std::vector<QueryResult>> results = Query(q, algo, ctx);
  if (stats != nullptr) *stats += ctx.stats;
  return results;
}

StatusOr<std::vector<QueryResult>> ShardedDatabase::QueryCached(
    const DistanceFirstQuery& q, Algorithm algo, QueryContext& ctx,
    std::vector<ShardLeg>* legs, CacheReuseCheck* check_out) {
  // One canonical normalization at the facade: the cache key and every
  // shard leg share it (shard-side normalization is idempotent, so legs do
  // no extra semantic work).
  DistanceFirstQuery canonical = q;
  canonical.keywords = shards_[0]->tokenizer().NormalizeKeywords(q.keywords);
  if (cache_ == nullptr || algo != Algorithm::kAuto ||
      canonical.area.has_value() || canonical.max_distance.has_value() ||
      canonical.k == 0) {
    // Fixed-algorithm, windowed, and bounded queries never consult the
    // cache: their stats and answers are identical with the cache on or
    // off, which the cold-regime goldens pin.
    return QueryImpl(canonical, algo, ctx, legs);
  }
  const uint64_t epoch = MutationEpoch();
  const std::string key = ResultCache::Key(canonical.keywords);
  CacheReuseCheck check;
  std::vector<QueryResult> cached;
  if (cache_->TryServe(key, canonical, epoch, &cached, &check)) {
    if (check.exact || check.exhaustive) {
      ++ctx.stats.result_cache_hits;
    } else {
      ++ctx.stats.result_cache_near_hits;
    }
    if (check_out != nullptr) *check_out = check;
    return cached;
  }
  ++ctx.stats.result_cache_misses;
  if (check.stale) ++ctx.stats.result_cache_invalidations;
  const uint32_t fetch_k =
      cache_->OverfetchK(key, canonical, &check.admission);
  if (check_out != nullptr) *check_out = check;
  // Every executed miss prices the admission rule with its simulated disk
  // time: a plain-k miss prices c_k, an over-fetched fill c_K.
  const double disk_ms_before = ctx.stats.simulated_disk_ms;
  if (fetch_k <= canonical.k) {
    auto plain = QueryImpl(canonical, algo, ctx, legs);
    IR2_RETURN_IF_ERROR(plain.status());
    cache_->RecordMissCost(/*overfetched=*/false,
                           ctx.stats.simulated_disk_ms - disk_ms_before);
    return plain;
  }
  // Over-fetched fill: the top-K global merge's first k entries are the
  // plain top-k answer (one total order), and the extra K - k tail widens
  // the reusable ball r_K - dist(p, p') for later perturbed repeats.
  DistanceFirstQuery overfetch = canonical;
  overfetch.k = fetch_k;
  auto fetched = QueryImpl(overfetch, algo, ctx, legs);
  IR2_RETURN_IF_ERROR(fetched.status());
  cache_->RecordMissCost(/*overfetched=*/true,
                         ctx.stats.simulated_disk_ms - disk_ms_before);
  cache_->Admit(key, canonical, fetch_k, epoch, fetched.value());
  std::vector<QueryResult> top = std::move(fetched).value();
  if (top.size() > canonical.k) top.resize(canonical.k);
  return top;
}

StatusOr<std::vector<QueryResult>> ShardedDatabase::QueryImpl(
    const DistanceFirstQuery& q, Algorithm algo, QueryContext& ctx,
    std::vector<ShardLeg>* legs) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const ServingMetrics& metrics = DefaultServingMetrics();
  metrics.shard_queries_total->Add();

  const Rect target = q.Target();
  struct Ordered {
    double lower_bound;
    uint32_t shard;
  };
  std::vector<Ordered> order;
  order.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    order.push_back(Ordered{target.MinDist(info_[s].bounds),
                            static_cast<uint32_t>(s)});
  }
  // Nearest shards first: the global k-th distance tightens as early as
  // possible, which is what lets later (farther) shards prune.
  std::sort(order.begin(), order.end(), [](const Ordered& a, const Ordered& b) {
    return a.lower_bound != b.lower_bound ? a.lower_bound < b.lower_bound
                                          : a.shard < b.shard;
  });

  std::vector<QueryResult> merged;
  merged.reserve(AnswerReserve(uint64_t{q.k} + 1));
  // object id -> index into *legs, for results_in_final attribution.
  std::unordered_map<uint32_t, size_t> owner;
  uint64_t queried = 0;
  uint64_t pruned = 0;
  for (const Ordered& entry : order) {
    const double kth =
        merged.size() >= q.k && q.k > 0 ? merged.back().distance : kInf;
    ShardLeg leg;
    leg.shard = entry.shard;
    leg.lower_bound = entry.lower_bound;
    if ((sharding_.prune_shards && entry.lower_bound > kth) || q.k == 0) {
      // Every object in the shard lies inside its MBR, so each one is at
      // least lower_bound away — strictly farther than the k results we
      // already hold. Skipping the shard cannot change the answer.
      leg.pruned = true;
      ++pruned;
      if (sharding_.verify_pruning && q.k > 0) {
        // Guard mode: execute the skipped leg anyway and prove the claim.
        QueryStats guard_stats;
        auto guarded =
            shards_[entry.shard]->Query(q, algo, &guard_stats);
        IR2_RETURN_IF_ERROR(guarded.status());
        for (const QueryResult& r : guarded.value()) {
          IR2_CHECK_GE(r.distance, leg.lower_bound)
              << "shard " << entry.shard
              << " returned a result below its MBR lower bound";
          IR2_CHECK_GT(r.distance, kth)
              << "pruned shard " << entry.shard
              << " held a result that beats the global k-th";
        }
      }
      if (legs != nullptr) legs->push_back(std::move(leg));
      continue;
    }

    ++queried;
    // Bounded-cursor leg: once the global top-k is full, no result strictly
    // past the running k-th distance can survive the merge, so the leg may
    // stop its distance-ordered traversal there (inclusive — a tie at the
    // k-th can still win on object id). The guard legs above keep the
    // uncapped query so verify_pruning proves the claim it always has.
    DistanceFirstQuery leg_query = q;
    if (sharding_.cap_leg_radius && kth < kInf &&
        (!leg_query.max_distance.has_value() ||
         kth < *leg_query.max_distance)) {
      leg_query.max_distance = kth;
    }
    QueryContext leg_ctx;
    auto shard_results = [&] {
      obs::TraceSpan span(obs::SpanKind::kShardFanout, entry.shard);
      return shards_[entry.shard]->Query(leg_query, algo, leg_ctx);
    }();
    IR2_RETURN_IF_ERROR(shard_results.status());
    leg.executed = leg_ctx.plan.has_choice ? leg_ctx.plan.chosen : algo;
    ctx.audit.Add(leg_ctx.plan, leg_ctx.stats.simulated_disk_ms);
    ctx.stats += leg_ctx.stats;
    leg.stats = std::move(leg_ctx.stats);
    leg.results_returned = shard_results.value().size();
    if (legs != nullptr) {
      for (const QueryResult& r : shard_results.value()) {
        owner[r.object_id] = legs->size();
      }
    }
    {
      obs::TraceSpan span(obs::SpanKind::kShardMerge,
                          shard_results.value().size());
      merged.insert(merged.end(), shard_results.value().begin(),
                    shard_results.value().end());
      std::sort(merged.begin(), merged.end(), MergeLess);
      if (merged.size() > q.k) merged.resize(q.k);
    }
    if (legs != nullptr) legs->push_back(std::move(leg));
  }

  metrics.shard_fanout_legs_total->Add(queried);
  metrics.shard_pruned_total->Add(pruned);
  metrics.shard_fanout_width->Record(static_cast<double>(queried));

  if (legs != nullptr) {
    for (const QueryResult& r : merged) {
      auto it = owner.find(r.object_id);
      if (it != owner.end()) ++(*legs)[it->second].results_in_final;
    }
  }

  ctx.stats.shards_queried += queried;
  ctx.stats.shards_pruned += pruned;
  return merged;
}

StatusOr<ShardedDatabase::ExplainResult> ShardedDatabase::Explain(
    const DistanceFirstQuery& q, Algorithm algo) {
  ExplainResult out;
  QueryContext ctx;
  auto results = QueryCached(q, algo, ctx, &out.legs, &out.cache_check);
  IR2_RETURN_IF_ERROR(results.status());
  out.results = std::move(results).value();
  out.stats = std::move(ctx.stats);

  obs::ExplainReport& report = out.report;
  report.title = "SHARDED EXPLAIN";

  char buf[64];
  obs::ExplainSection* query = report.AddSection("Sharded query");
  query->AddRow("shards", obs::FormatCount(shards_.size()));
  query->AddRow("curve", curve_);
  query->AddRow("algorithm", out.cache_check.hit
                                 ? "auto -> result cache (no fan-out)"
                                 : AlgorithmName(algo));
  query->AddRow("k", obs::FormatCount(q.k));
  std::string keywords;
  for (const std::string& keyword : q.keywords) {
    if (!keywords.empty()) keywords += " ";
    keywords += keyword;
  }
  query->AddRow("keywords", keywords);

  if (cache_ != nullptr && algo == Algorithm::kAuto) {
    AddCacheReuseSection(&report, out.cache_check);
  }
  if (out.cache_check.hit) {
    // The cache answered; there was no fan-out or merge to report.
    return out;
  }

  obs::ExplainSection* fanout = report.AddSection("Shard fan-out");
  fanout->columns = {"shard",    "objects",       "lower_bound",
                     "status",   "algo",          "returned",
                     "in_final", "nodes/decoded", "demand_blocks",
                     "sim_ms"};
  for (const ShardLeg& leg : out.legs) {
    std::snprintf(buf, sizeof(buf), "%.3f", leg.lower_bound);
    std::string lower_bound = buf;
    fanout->AddRow(
        {obs::FormatCount(leg.shard),
         obs::FormatCount(info_[leg.shard].num_objects), lower_bound,
         leg.pruned ? "pruned" : "executed",
         leg.pruned ? "-" : AlgorithmName(leg.executed),
         obs::FormatCount(leg.results_returned),
         obs::FormatCount(leg.results_in_final),
         obs::FormatCount(leg.stats.nodes_visited) + "/" +
             obs::FormatCount(leg.stats.node_decodes),
         obs::FormatCount(leg.stats.demand_io.TotalReads()),
         obs::FormatMs(leg.stats.simulated_disk_ms)});
  }

  obs::ExplainSection* merge = report.AddSection("Merge");
  merge->AddRow("shards executed", obs::FormatCount(out.stats.shards_queried));
  merge->AddRow("shards pruned", obs::FormatCount(out.stats.shards_pruned));
  uint64_t candidates = 0;
  for (const ShardLeg& leg : out.legs) candidates += leg.results_returned;
  merge->AddRow("candidates merged", obs::FormatCount(candidates));
  merge->AddRow("results", obs::FormatCount(out.results.size()));
  if (!out.results.empty()) {
    std::snprintf(buf, sizeof(buf), "%.3f", out.results.back().distance);
    merge->AddRow("k-th distance", buf);
  }
  merge->AddRow("order", "(distance, object id) ascending");
  return out;
}

}  // namespace serving
}  // namespace ir2
