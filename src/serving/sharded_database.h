#ifndef IR2TREE_SERVING_SHARDED_DATABASE_H_
#define IR2TREE_SERVING_SHARDED_DATABASE_H_

// Horizontally partitioned serving tier (docs/serving.md): one dataset split
// across N SpatialKeywordDatabase shards by space-filling-curve cell of the
// object location, with a scatter-gather executor on top. Each shard is its
// own database — its own devices, pools, trees, and cost planner — so
// per-shard plans adapt to that shard's tree shape and term frequencies.
// A built tier's shards hold only ShardingOptions::structures (by default
// the serving set kAuto runs: the inverted index and the KC-Tree).
//
// Scatter-gather visits shards in ascending order of the lower-bound
// distance from the query target to the shard's MBR and maintains the
// global top-k as it goes; once k results are in hand, any shard whose
// lower bound exceeds the current k-th distance is provably unable to
// contribute and is skipped (counted in QueryStats::shards_pruned). Results
// merge by (distance, object id), so the answer is deterministic and
// independent of the shard count — byte-identical to a single database over
// the same objects, modulo the shard-local ObjectRef values.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "core/database.h"
#include "core/planner.h"
#include "core/query.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "rtree/node_cache.h"
#include "serving/result_cache.h"

namespace ir2 {
namespace serving {

// Serving-tier metrics, registered once in MetricsRegistry::Global() and
// cached here (the CoreMetrics pattern; see docs/observability.md).
struct ServingMetrics {
  obs::Counter* shard_queries_total;      // Sharded (front-end) queries.
  obs::Counter* shard_fanout_legs_total;  // Shard legs actually executed.
  obs::Counter* shard_pruned_total;       // Shard legs skipped by the bound.
  obs::Histogram* shard_fanout_width;     // Legs executed per query.
  obs::Counter* server_admitted_total;
  obs::Counter* server_rejected_queue_total;  // Shed: admission queue full.
  obs::Counter* server_rejected_quota_total;  // Shed: tenant out of tokens.
  obs::Counter* server_completed_total;
  obs::Gauge* server_queue_depth;
  obs::Histogram* server_queue_wait_ms;
};

const ServingMetrics& DefaultServingMetrics();

// The structures kAuto runs on a serving workload: the inverted index for
// selective keyword sets and the KC-Tree for the rest. bench_planner's
// leave-one-out keeps kAuto over this set within its 15% bound of the
// five-way oracle (docs/serving.md, "What each shard builds").
inline constexpr StructureSet kServingStructures{Structure::kKcTree,
                                                 Structure::kIio};

struct ShardingOptions {
  // Effective shard count is clamped to [1, num_objects].
  uint64_t num_shards = 4;
  // The index structures every shard builds; Build uses this set in place
  // of the DatabaseOptions' own. A fixed-algorithm query whose structure is
  // left out returns FailedPrecondition. Tiers that run fixed R-Tree, IR2
  // or MIR2 queries set kAllIndexes.
  StructureSet structures = kServingStructures;
  // Skip shards whose MBR lower bound cannot beat the current global k-th
  // distance. Always sound; turned off only by tests, as the unpruned
  // reference the pruned tier must match.
  bool prune_shards = true;
  // Correctness guard (tests): execute pruned shards anyway and CHECK that
  // every result they return sits at or above the lower bound that justified
  // the skip — and strictly above the k-th distance it was compared against.
  // The guarded run's results and stats are identical to a pruned run.
  bool verify_pruning = false;
  // Push the running global k-th distance into executed legs as an inclusive
  // DistanceFirstQuery::max_distance bound: a result strictly past the
  // current k-th cannot survive the merge, so a later (farther) leg's
  // distance-ordered traversal may stop there instead of expanding to its
  // own k-th match. Inclusive because a tie at the k-th distance can still
  // win the merge on object id. Results are byte-identical with the cap on
  // or off; only later legs' work (and therefore their stats) shrinks.
  bool cap_leg_radius = true;
};

// Per-shard leg of one scatter-gather query, for EXPLAIN and tests.
struct ShardLeg {
  uint32_t shard = 0;
  double lower_bound = 0.0;  // MINDIST(query target, shard MBR).
  bool pruned = false;
  Algorithm executed = Algorithm::kAuto;  // Resolved per shard under kAuto.
  QueryStats stats;                       // Zero when pruned.
  uint64_t results_returned = 0;
  uint64_t results_in_final = 0;  // Survivors of the global merge.
};

class ShardedDatabase {
 public:
  struct ShardInfo {
    Rect bounds;  // MBR of the shard's object locations.
    uint64_t num_objects = 0;
  };

  // Partitions `objects` along the space-filling curve and builds one
  // SpatialKeywordDatabase per shard with `options`, except that each shard
  // builds `sharding.structures` instead of `options.structures` (every
  // shard gets the same structural and runtime options, and its own
  // planner). The shards build concurrently on
  // min(shard count, hardware_concurrency()) workers, the calling thread
  // among them, and each shard builds its structures on its share of the
  // hardware threads (inline when there is a worker per core, so shard
  // and structure workers never nest); each shard is built exactly as a
  // lone Build of its members would build it. If any shard fails, returns
  // the lowest-index shard's error once every worker has finished.
  //
  // Both Build and WrapSingle give every tree of every warm shard
  // (cold_queries off) a tier-owned decoded-node cache (rtree/node_cache.h,
  // default NodeCacheOptions), so legs that revisit a node skip the pool
  // copy and the decode. Answers, physical I/O and simulated disk time are
  // identical with or without the caches as long as the pools hold the
  // whole tree, as the default pool_blocks does (a cache hit then only
  // skips a pool hit); cold shards get none, keeping the paper's per-query
  // disk counts.
  static StatusOr<std::unique_ptr<ShardedDatabase>> Build(
      std::span<const StoredObject> objects, const DatabaseOptions& options,
      const ShardingOptions& sharding);

  // Wraps an already-built (typically Open()ed) single database as a
  // one-shard serving tier, so ServerLoop and the admin server can front a
  // saved database (examples/serve --open). The shard keeps the structures
  // it was built with. The shard bounds are the MBR of the stored object
  // locations (one sequential scan here); pruning is moot at one shard.
  static StatusOr<std::unique_ptr<ShardedDatabase>> WrapSingle(
      std::unique_ptr<SpatialKeywordDatabase> single);

  ShardedDatabase(const ShardedDatabase&) = delete;
  ShardedDatabase& operator=(const ShardedDatabase&) = delete;

  // Scatter-gather top-k: fans `q` to the shards that can still beat the
  // running k-th result, merges by (distance, object id) and returns the
  // global top-k. `algo` kAuto lets every shard's planner choose
  // independently. Accumulates into ctx.stats, including shards_queried /
  // shards_pruned, and adds every executed leg's plan to ctx.audit (a
  // result-cache hit adds none). Each leg runs under its own context, so
  // ctx's read pools, scratch and feedback are not handed to the shards.
  // Thread-safe for concurrent callers when the shards run warm
  // (cold_queries off): legs only read.
  StatusOr<std::vector<QueryResult>> Query(const DistanceFirstQuery& q,
                                           Algorithm algo, QueryContext& ctx);

  // The same with a fresh context, accumulating into *stats.
  StatusOr<std::vector<QueryResult>> Query(const DistanceFirstQuery& q,
                                           Algorithm algo = Algorithm::kAuto,
                                           QueryStats* stats = nullptr);

  // EXPLAIN with the per-shard fan-out/merge breakdown: one row per shard
  // (lower bound, pruned/executed, the algorithm the shard's planner chose,
  // results contributed and surviving) plus the merge summary. Same
  // execution path as Query().
  struct ExplainResult {
    obs::ExplainReport report;
    QueryStats stats;
    std::vector<QueryResult> results;
    std::vector<ShardLeg> legs;  // Empty when the result cache served.
    CacheReuseCheck cache_check;
  };
  StatusOr<ExplainResult> Explain(const DistanceFirstQuery& q,
                                  Algorithm algo = Algorithm::kAuto);

  // Semantic result cache (serving/result_cache.h), installed *above* the
  // scatter-gather so a hit skips every shard leg. Only kAuto point top-k
  // queries consult it; fixed-algorithm Query() calls bypass it by
  // construction, which is what keeps the cold-regime QueryStats goldens
  // byte-identical whether or not a cache is enabled.
  void EnableResultCache(ResultCacheOptions options = ResultCacheOptions());
  void DisableResultCache() { cache_.reset(); }
  ResultCache* result_cache() const { return cache_.get(); }

  // Sum of every shard's tree mutation epoch (core RTreeBase version
  // counters). Captured before a cache fill and compared on every cache
  // read, so Insert/Delete anywhere in the tier invalidates cached answers.
  uint64_t MutationEpoch() const;

  size_t num_shards() const { return shards_.size(); }
  SpatialKeywordDatabase* shard(size_t i) { return shards_[i].get(); }
  const ShardInfo& shard_info(size_t i) const { return info_[i]; }
  const ShardingOptions& sharding() const { return sharding_; }
  // True when every shard runs warm with prefetching off — the regime in
  // which concurrent Query() calls are safe (ServerLoop requires it).
  bool SafeForConcurrentQueries() const;

 private:
  ShardedDatabase() = default;

  // Gives every tree of every warm shard a tier-owned NodeCache (see
  // Build).
  void AttachNodeCaches();

  StatusOr<std::vector<QueryResult>> QueryImpl(const DistanceFirstQuery& q,
                                               Algorithm algo,
                                               QueryContext& ctx,
                                               std::vector<ShardLeg>* legs);
  // Query() with the result cache consulted above the scatter-gather:
  // normalizes keywords and builds the cache key once at the facade (the
  // cache key and every shard leg share the canonical form), tries the
  // cache, and on a miss asks the cache's priced admission rule whether to
  // run the over-fetched QueryImpl and admit the answer or to run plain
  // QueryImpl at k. Either way the miss's simulated disk time prices the
  // rule.
  StatusOr<std::vector<QueryResult>> QueryCached(const DistanceFirstQuery& q,
                                                 Algorithm algo,
                                                 QueryContext& ctx,
                                                 std::vector<ShardLeg>* legs,
                                                 CacheReuseCheck* check_out);

  ShardingOptions sharding_;
  // The curve Build partitioned along (CurveNameForDims); "none" for a
  // WrapSingle tier, where no partition ran.
  const char* curve_ = "none";
  // One decoded-node cache per warm shard tree (NodeCache keys on BlockId,
  // which is per device, so trees cannot share one). Declared before
  // shards_ so the caches are destroyed after the trees that point at them.
  std::vector<std::unique_ptr<NodeCache>> node_caches_;
  std::vector<std::unique_ptr<SpatialKeywordDatabase>> shards_;
  std::vector<ShardInfo> info_;
  std::unique_ptr<ResultCache> cache_;
};

}  // namespace serving
}  // namespace ir2

#endif  // IR2TREE_SERVING_SHARDED_DATABASE_H_
