#ifndef IR2TREE_CORE_QUERY_H_
#define IR2TREE_CORE_QUERY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geo/point.h"
#include "geo/rect.h"
#include "storage/block_device.h"
#include "storage/object_store.h"

namespace ir2 {

// Distance-first top-k spatial keyword query (Section II): the k objects
// closest to the query target that contain every keyword (Boolean AND
// semantics). The target is `point`, or `area` when set ("a query area and
// a set of keywords"; distances are then MINDIST to the area).
struct DistanceFirstQuery {
  Point point;
  std::optional<Rect> area;
  std::vector<std::string> keywords;
  uint32_t k = 10;
  // Bounded-cursor form: results farther than this (strictly greater — the
  // bound itself is inclusive) are not wanted. The distance-ordered
  // algorithms stop at the first neighbor past the bound instead of
  // filling k, which is what lets a sharded scatter-gather cap far legs by
  // the running global k-th distance (docs/serving.md).
  std::optional<double> max_distance;

  Rect Target() const { return area.has_value() ? *area : Rect::ForPoint(point); }
};

// General top-k spatial keyword query (Section II / V-C): objects ranked by
// f(distance(T.p, Q.p), IRscore(T.t, Q.t)); an object need not contain all
// keywords.
struct GeneralQuery {
  Point point;
  std::optional<Rect> area;
  std::vector<std::string> keywords;
  uint32_t k = 10;

  Rect Target() const { return area.has_value() ? *area : Rect::ForPoint(point); }
  // Ranking function f = ir_weight * IRscore - distance_weight * distance:
  // increasing in IRscore, decreasing in distance, as Section V-C requires.
  double ir_weight = 1.0;
  double distance_weight = 1.0;
  // When false (default), objects with IRscore 0 are not returned (the
  // paper's "if Score > 0" check); when true, pure-NN results may fill up k.
  bool allow_zero_ir_score = false;
};

// One query answer.
struct QueryResult {
  ObjectRef ref = kInvalidObjectRef;
  uint32_t object_id = 0;
  double distance = 0.0;
  double ir_score = 0.0;  // 0 for distance-first queries.
  double score = 0.0;     // f(...) for general queries; -distance otherwise.
  // The object's coordinates, captured at verification time (the loaded
  // StoredObject is in hand, so this costs no extra I/O). The semantic
  // result cache re-ranks cached answers around a shifted query point, which
  // needs the locations after the fact (serving/result_cache.h).
  Point location;
};

// Capacity to reserve for a top-k answer. k is caller input and may dwarf
// the matches (UINT32_MAX asks for every match), so reserve at most a small
// cap and let the vector grow on demand past it.
inline size_t AnswerReserve(uint64_t k) {
  constexpr size_t kMaxReserve = 256;
  return static_cast<size_t>(std::min<uint64_t>(k, kMaxReserve));
}

// Per-query metrics in the units the paper's figures report.
struct QueryStats {
  // "Object accesses": LoadObject calls (candidates + results).
  uint64_t objects_loaded = 0;
  // Candidates that failed the keyword containment check — signature (or
  // distance-order) false positives.
  uint64_t false_positives = 0;
  // Tree nodes visited / entries pruned by the signature test.
  uint64_t nodes_visited = 0;
  uint64_t entries_pruned = 0;
  // Node deserializations the query thread performed (RTreeBase::LoadNode
  // decodes). A distance-first traversal with no decoded-node cache
  // attached decodes every node it visits; a warm serving tier's caches
  // hand already-decoded nodes out, so there it drops toward zero.
  uint64_t node_decodes = 0;
  // entries_pruned broken down by the level of the node whose entry was
  // pruned (index = level; 0 = leaf entries, i.e. objects skipped without
  // loading). Shows where the signatures work — the MIR2-Tree exists to
  // move pruning up from the leaves into the inner levels.
  std::vector<uint64_t> entries_pruned_per_level;
  // KC-Tree pruning breakdown (zero unless Algorithm::kKcTree ran). Every
  // entry test is one kc_bitmap_test; a prune is attributed either to the
  // hot-word posting bitmap (exact containment — kc_bitmap_prunes, with
  // the responsible vocabulary cluster in kc_cluster_prunes[cluster]) or
  // to the cold-tail superimposed signature (kc_signature_prunes).
  uint64_t kc_bitmap_tests = 0;
  uint64_t kc_bitmap_prunes = 0;
  uint64_t kc_signature_prunes = 0;
  std::vector<uint64_t> kc_cluster_prunes;
  // Wall-clock execution time.
  double seconds = 0.0;
  // Physical disk accesses the query (demand) thread performed across all
  // structures the algorithm touched — what actually reached the devices.
  // With prefetching off and caches cold this equals demand_io exactly;
  // with prefetching on it shrinks, because demand requests find
  // prefetched pages in the pools.
  IoStats io;
  // Logical block requests the query thread issued against the buffer
  // pools. This is the algorithm's intrinsic access pattern: invariant to
  // cache state and to speculation, which is what the prefetch-invariance
  // guarantee pins (see tests/prefetch_invariance_test).
  IoStats demand_io;
  // Physical disk accesses performed on the query's behalf by prefetch
  // threads (IoScheduler). Speculation is never free: simulated time
  // charges these too.
  IoStats speculative_io;
  // Simulated elapsed disk time of the query under the database's
  // DiskModel: model(io) + model(speculative_io). The paper-style query
  // *time* metric (seek + rotational latency per random access, transfer
  // per block).
  double simulated_disk_ms = 0.0;
  // Scatter-gather fan-out accounting (serving/ShardedDatabase; zero for
  // single-database queries). A pruned shard is one whose root-MBR
  // lower-bound distance exceeded the running global k-th result — provably
  // unable to contribute, so it was never queried (docs/serving.md).
  uint64_t shards_queried = 0;
  uint64_t shards_pruned = 0;
  // Semantic result-cache accounting (serving/result_cache.h; all zero
  // when no cache is installed). A hit answered an exact-repeat query (or
  // one covered by an exhaustive entry); a near hit answered a shifted
  // (p', k') query proved exact by the triangle inequality; an
  // invalidation is an entry rejected because the mutation epoch moved
  // (also counted as a miss).
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_near_hits = 0;
  uint64_t result_cache_misses = 0;
  uint64_t result_cache_invalidations = 0;

  QueryStats& operator+=(const QueryStats& other) {
    objects_loaded += other.objects_loaded;
    false_positives += other.false_positives;
    nodes_visited += other.nodes_visited;
    entries_pruned += other.entries_pruned;
    node_decodes += other.node_decodes;
    if (entries_pruned_per_level.size() <
        other.entries_pruned_per_level.size()) {
      entries_pruned_per_level.resize(other.entries_pruned_per_level.size());
    }
    for (size_t i = 0; i < other.entries_pruned_per_level.size(); ++i) {
      entries_pruned_per_level[i] += other.entries_pruned_per_level[i];
    }
    kc_bitmap_tests += other.kc_bitmap_tests;
    kc_bitmap_prunes += other.kc_bitmap_prunes;
    kc_signature_prunes += other.kc_signature_prunes;
    if (kc_cluster_prunes.size() < other.kc_cluster_prunes.size()) {
      kc_cluster_prunes.resize(other.kc_cluster_prunes.size());
    }
    for (size_t i = 0; i < other.kc_cluster_prunes.size(); ++i) {
      kc_cluster_prunes[i] += other.kc_cluster_prunes[i];
    }
    seconds += other.seconds;
    io += other.io;
    demand_io += other.demand_io;
    speculative_io += other.speculative_io;
    simulated_disk_ms += other.simulated_disk_ms;
    shards_queried += other.shards_queried;
    shards_pruned += other.shards_pruned;
    result_cache_hits += other.result_cache_hits;
    result_cache_near_hits += other.result_cache_near_hits;
    result_cache_misses += other.result_cache_misses;
    result_cache_invalidations += other.result_cache_invalidations;
    return *this;
  }
};

}  // namespace ir2

#endif  // IR2TREE_CORE_QUERY_H_
