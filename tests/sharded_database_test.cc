#include "serving/sharded_database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/database.h"
#include "core/kc_tree.h"
#include "datagen/workload.h"
#include "rtree/node_cache.h"
#include "serving/space_filling.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using serving::PartitionBySpaceFillingCurve;
using serving::ShardAssignment;
using serving::ShardedDatabase;
using serving::ShardingOptions;
using testing_util::RandomObjects;
using testing_util::SavedDigests;
using testing_util::ThreadCount;

TEST(SpaceFillingTest, HilbertIndexIsABijectionWithUnitSteps) {
  constexpr uint32_t kOrder = 3;
  constexpr uint32_t kSide = 1u << kOrder;
  std::vector<std::pair<uint32_t, uint32_t>> cell_of(kSide * kSide);
  std::set<uint64_t> seen;
  for (uint32_t x = 0; x < kSide; ++x) {
    for (uint32_t y = 0; y < kSide; ++y) {
      const uint64_t d = serving::HilbertIndex2D(x, y, kOrder);
      ASSERT_LT(d, kSide * kSide);
      ASSERT_TRUE(seen.insert(d).second) << "duplicate index " << d;
      cell_of[d] = {x, y};
    }
  }
  // The defining property: consecutive curve positions are grid neighbors,
  // so contiguous runs of the curve are spatially tight.
  for (uint64_t d = 1; d < kSide * kSide; ++d) {
    const auto [x0, y0] = cell_of[d - 1];
    const auto [x1, y1] = cell_of[d];
    const uint32_t manhattan = (x0 > x1 ? x0 - x1 : x1 - x0) +
                               (y0 > y1 ? y0 - y1 : y1 - y0);
    EXPECT_EQ(manhattan, 1u) << "jump at curve position " << d;
  }
}

TEST(SpaceFillingTest, MortonIndexInterleavesBits) {
  const uint32_t cell2[] = {1, 0};
  EXPECT_EQ(serving::MortonIndex(cell2, 3), 1u);
  const uint32_t cell2b[] = {0, 1};
  EXPECT_EQ(serving::MortonIndex(cell2b, 3), 2u);
  // x = 0b011, y = 0b101: bit b of dim d lands at position b*2 + d.
  const uint32_t cell2c[] = {3, 5};
  EXPECT_EQ(serving::MortonIndex(cell2c, 3), 39u);
  // Three dimensions interleave round-robin.
  const uint32_t cell3[] = {1, 1, 1};
  EXPECT_EQ(serving::MortonIndex(cell3, 2), 7u);
}

TEST(SpaceFillingTest, PartitionSplitsEvenlyAndBoundsContainMembers) {
  std::vector<StoredObject> objects = RandomObjects(11, 101, 20, 3);
  std::vector<ShardAssignment> shards =
      PartitionBySpaceFillingCurve(objects, 4);
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(shards[0].members.size(), 26u);
  EXPECT_EQ(shards[1].members.size(), 25u);

  std::set<uint32_t> all;
  for (const ShardAssignment& shard : shards) {
    for (uint32_t index : shard.members) {
      EXPECT_TRUE(all.insert(index).second);
      EXPECT_TRUE(shard.bounds.Contains(Point(objects[index].coords)));
    }
  }
  EXPECT_EQ(all.size(), objects.size());

  // Deterministic: same inputs, same partition.
  std::vector<ShardAssignment> again =
      PartitionBySpaceFillingCurve(objects, 4);
  for (size_t s = 0; s < shards.size(); ++s) {
    EXPECT_EQ(shards[s].members, again[s].members);
  }
}

// Canonical (distance, object id) order — the sharded merge order, applied
// to single-database results so tie order cannot differ.
void Canonicalize(std::vector<QueryResult>& results) {
  std::sort(results.begin(), results.end(),
            [](const QueryResult& a, const QueryResult& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.object_id < b.object_id;
            });
}

class ShardedDatabaseTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kNumObjects = 500;

  void SetUp() override {
    objects_ = RandomObjects(7, kNumObjects, 40, 5);
    DatabaseOptions options;
    options.ir2_signature = SignatureConfig{256, 3};
    single_ = SpatialKeywordDatabase::Build(objects_, options).value();

    WorkloadConfig config;
    config.seed = 3;
    config.num_queries = 10;
    config.num_keywords = 2;
    queries_ = GenerateWorkload(objects_, single_->tokenizer(), config);
  }

  // Every structure, not the serving set: these tests run each fixed
  // algorithm on the tier.
  std::unique_ptr<ShardedDatabase> BuildSharded(
      uint64_t num_shards, ShardingOptions sharding = {}) {
    sharding.num_shards = num_shards;
    sharding.structures = kAllIndexes;
    DatabaseOptions options;
    options.ir2_signature = SignatureConfig{256, 3};
    return ShardedDatabase::Build(objects_, options, sharding).value();
  }

  std::vector<StoredObject> objects_;
  std::unique_ptr<SpatialKeywordDatabase> single_;
  std::vector<DistanceFirstQuery> queries_;
};

TEST_F(ShardedDatabaseTest, MatchesSingleDatabaseGoldens) {
  // The acceptance pin: for every algorithm and k, N-shard scatter-gather
  // answers are identical to the single database's (object ids, distances
  // bit-for-bit) — sharding is invisible to correctness.
  const Algorithm algos[] = {Algorithm::kRTree, Algorithm::kIio,
                             Algorithm::kIr2, Algorithm::kMir2,
                             Algorithm::kKcTree};
  const uint32_t ks[] = {1, 20};
  for (uint64_t num_shards : {2ull, 4ull, 7ull}) {
    auto sharded = BuildSharded(num_shards);
    for (Algorithm algo : algos) {
      for (uint32_t k : ks) {
        for (const DistanceFirstQuery& base : queries_) {
          DistanceFirstQuery q = base;
          q.k = k;
          std::vector<QueryResult> expected =
              single_->Query(q, algo).value();
          Canonicalize(expected);
          std::vector<QueryResult> actual = sharded->Query(q, algo).value();
          ASSERT_EQ(actual.size(), expected.size())
              << num_shards << " shards, " << AlgorithmName(algo)
              << ", k=" << k;
          for (size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(actual[i].object_id, expected[i].object_id)
                << num_shards << " shards, " << AlgorithmName(algo)
                << ", k=" << k << ", result " << i;
            EXPECT_EQ(actual[i].distance, expected[i].distance);
          }
        }
      }
    }
  }
}

TEST_F(ShardedDatabaseTest, AutoModeMatchesGoldensViaPerShardPlanners) {
  auto sharded = BuildSharded(4);
  for (const DistanceFirstQuery& q : queries_) {
    std::vector<QueryResult> expected =
        single_->Query(q, Algorithm::kIr2).value();
    Canonicalize(expected);
    std::vector<QueryResult> actual =
        sharded->Query(q, Algorithm::kAuto).value();
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].object_id, expected[i].object_id);
      EXPECT_EQ(actual[i].distance, expected[i].distance);
    }
  }
}

TEST_F(ShardedDatabaseTest, PrunesFarShardsAndCountsThem) {
  auto sharded = BuildSharded(8);
  // A corner query with small k: the nearest shard satisfies it, distant
  // shards cannot beat the k-th distance and must be skipped.
  DistanceFirstQuery q = queries_.front();
  q.point = Point(1.0, 1.0);
  q.k = 1;
  QueryStats stats;
  auto results = sharded->Query(q, Algorithm::kIr2, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(stats.shards_queried + stats.shards_pruned, 8u);
  EXPECT_GT(stats.shards_pruned, 0u);

  // Pruning must not change the answer: a no-prune run is the oracle.
  ShardingOptions no_prune;
  no_prune.prune_shards = false;
  auto unpruned_db = BuildSharded(8, no_prune);
  QueryStats unpruned_stats;
  auto unpruned = unpruned_db->Query(q, Algorithm::kIr2, &unpruned_stats);
  ASSERT_TRUE(unpruned.ok());
  EXPECT_EQ(unpruned_stats.shards_pruned, 0u);
  ASSERT_EQ(results.value().size(), unpruned.value().size());
  for (size_t i = 0; i < results.value().size(); ++i) {
    EXPECT_EQ(results.value()[i].object_id, unpruned.value()[i].object_id);
    EXPECT_EQ(results.value()[i].distance, unpruned.value()[i].distance);
  }
}

TEST_F(ShardedDatabaseTest, PlanAuditSumsExecutedLegs) {
  // Cold shards and no result cache: every kAuto query fans out, and the
  // caller's context gets one audited plan per executed leg.
  auto sharded = BuildSharded(4);
  ASSERT_EQ(sharded->result_cache(), nullptr);
  auto reset_feedback = [&] {
    for (size_t s = 0; s < sharded->num_shards(); ++s) {
      sharded->shard(s)->planner()->feedback().Reset();
    }
  };
  for (const DistanceFirstQuery& q : queries_) {
    reset_feedback();
    QueryContext ctx;
    ASSERT_TRUE(sharded->Query(q, Algorithm::kAuto, ctx).ok());
    ASSERT_GT(ctx.stats.shards_queried, 0u);
    EXPECT_EQ(ctx.audit.plans, ctx.stats.shards_queried);
    EXPECT_EQ(ctx.audit.observed_ms, ctx.stats.simulated_disk_ms);
    EXPECT_GT(ctx.audit.predicted_ms, 0.0);

    // Replayed under the same feedback, the query executes the same legs;
    // the audit names the last executed leg's algorithm.
    reset_feedback();
    auto explain = sharded->Explain(q, Algorithm::kAuto);
    ASSERT_TRUE(explain.ok());
    EXPECT_EQ(explain.value().stats.shards_queried,
              ctx.stats.shards_queried);
    const serving::ShardLeg* last = nullptr;
    for (const serving::ShardLeg& leg : explain.value().legs) {
      if (!leg.pruned) last = &leg;
    }
    ASSERT_NE(last, nullptr);
    EXPECT_EQ(ctx.audit.algo, last->executed);
  }
}

TEST_F(ShardedDatabaseTest, VerifyPruningGuardHolds) {
  // Guard mode re-executes every pruned shard and CHECK-fails if any of
  // its results beats the k-th distance the skip was justified against —
  // "provably skippable", made executable. Passing means the lower bound
  // is sound on this workload.
  ShardingOptions verify;
  verify.verify_pruning = true;
  auto guarded = BuildSharded(8, verify);
  auto plain = BuildSharded(8);
  for (const DistanceFirstQuery& base : queries_) {
    DistanceFirstQuery q = base;
    q.k = 5;
    QueryStats guarded_stats;
    auto guarded_results = guarded->Query(q, Algorithm::kMir2, &guarded_stats);
    ASSERT_TRUE(guarded_results.ok());
    auto plain_results = plain->Query(q, Algorithm::kMir2);
    ASSERT_TRUE(plain_results.ok());
    // The guard must not perturb the served answer.
    ASSERT_EQ(guarded_results.value().size(), plain_results.value().size());
    for (size_t i = 0; i < plain_results.value().size(); ++i) {
      EXPECT_EQ(guarded_results.value()[i].object_id,
                plain_results.value()[i].object_id);
    }
  }
}

TEST_F(ShardedDatabaseTest, LegRadiusCapPreservesAnswersAndShrinksWork) {
  // cap_leg_radius pushes the running global k-th distance into later legs
  // as an inclusive max_distance. The served answer must be byte-identical
  // with the cap on (the default) or off; only the capped run's work — and
  // therefore its stats — may shrink.
  // Small node capacity: the default (113) makes each ~62-object shard a
  // single-node tree, leaving a radius cap nothing to save.
  DatabaseOptions options;
  options.ir2_signature = SignatureConfig{256, 3};
  options.tree_options.capacity_override = 8;
  ShardingOptions capped_opts;
  capped_opts.num_shards = 8;
  capped_opts.structures = kAllIndexes;
  ShardingOptions no_cap = capped_opts;
  no_cap.cap_leg_radius = false;
  auto capped_db =
      ShardedDatabase::Build(objects_, options, capped_opts).value();
  auto uncapped_db = ShardedDatabase::Build(objects_, options, no_cap).value();
  const Algorithm algos[] = {Algorithm::kIr2, Algorithm::kMir2,
                             Algorithm::kKcTree, Algorithm::kAuto};
  for (Algorithm algo : algos) {
    uint64_t capped_nodes = 0;
    uint64_t uncapped_nodes = 0;
    for (const DistanceFirstQuery& base : queries_) {
      DistanceFirstQuery q = base;
      q.k = 5;
      QueryStats capped_stats;
      auto capped = capped_db->Query(q, algo, &capped_stats);
      ASSERT_TRUE(capped.ok());
      QueryStats uncapped_stats;
      auto uncapped = uncapped_db->Query(q, algo, &uncapped_stats);
      ASSERT_TRUE(uncapped.ok());
      ASSERT_EQ(capped.value().size(), uncapped.value().size())
          << AlgorithmName(algo);
      for (size_t i = 0; i < capped.value().size(); ++i) {
        EXPECT_EQ(capped.value()[i].object_id, uncapped.value()[i].object_id)
            << AlgorithmName(algo) << " result " << i;
        EXPECT_EQ(capped.value()[i].distance, uncapped.value()[i].distance)
            << AlgorithmName(algo) << " result " << i;
      }
      EXPECT_LE(capped_stats.nodes_visited, uncapped_stats.nodes_visited)
          << AlgorithmName(algo);
      EXPECT_LE(capped_stats.objects_loaded, uncapped_stats.objects_loaded)
          << AlgorithmName(algo);
      capped_nodes += capped_stats.nodes_visited;
      uncapped_nodes += uncapped_stats.nodes_visited;
    }
    // Over the whole workload the cap must actually bind somewhere: eight
    // shards, k = 5, so later legs run with a tight radius. Under kAuto a
    // shard's planner may pick IIO, which post-filters instead of
    // traversing, so only the tree algorithms owe a strict saving.
    if (algo == Algorithm::kAuto) {
      EXPECT_LE(capped_nodes, uncapped_nodes) << AlgorithmName(algo);
    } else {
      EXPECT_LT(capped_nodes, uncapped_nodes) << AlgorithmName(algo);
    }
  }
}

TEST_F(ShardedDatabaseTest, ExplainReportsFanoutAndMerge) {
  auto sharded = BuildSharded(4);
  DistanceFirstQuery q = queries_.front();
  q.k = 3;
  auto explain = sharded->Explain(q, Algorithm::kAuto);
  ASSERT_TRUE(explain.ok());
  const auto& result = explain.value();
  EXPECT_EQ(result.legs.size(), 4u);

  uint64_t in_final = 0;
  for (const serving::ShardLeg& leg : result.legs) {
    if (!leg.pruned) {
      // Per-shard planning: kAuto resolved to a concrete algorithm.
      EXPECT_NE(leg.executed, Algorithm::kAuto);
    }
    in_final += leg.results_in_final;
  }
  EXPECT_EQ(in_final, result.results.size());

  const std::string report = result.report.ToString();
  EXPECT_NE(report.find("Shard fan-out"), std::string::npos);
  EXPECT_NE(report.find("Merge"), std::string::npos);
  EXPECT_NE(report.find("executed"), std::string::npos);
  EXPECT_NE(report.find("hilbert"), std::string::npos);
}

TEST(ShardedExplainTest, ThreeDimensionalTierReportsMorton) {
  // Non-2-D data is partitioned along the Morton curve; EXPLAIN must name
  // the curve that was actually used.
  Rng rng(12);
  std::vector<StoredObject> objects;
  for (uint32_t i = 0; i < 60; ++i) {
    StoredObject object;
    object.id = i;
    object.coords = {rng.NextDouble(0, 100), rng.NextDouble(0, 100),
                     rng.NextDouble(0, 100)};
    object.text = (i % 2 == 0) ? "alpha shared" : "beta shared";
    objects.push_back(std::move(object));
  }
  DatabaseOptions options;
  options.tree_options.dims = 3;
  ShardingOptions sharding;
  sharding.num_shards = 3;
  auto sharded = ShardedDatabase::Build(objects, options, sharding).value();

  DistanceFirstQuery q;
  q.point = Point(std::span<const double>(
      std::vector<double>{50.0, 50.0, 50.0}));
  q.keywords = {"alpha"};
  q.k = 4;
  auto explain = sharded->Explain(q, Algorithm::kAuto);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_EQ(explain.value().results.size(), 4u);
  const std::string report = explain.value().report.ToString();
  EXPECT_NE(report.find("morton"), std::string::npos) << report;
  EXPECT_EQ(report.find("hilbert"), std::string::npos) << report;
}

// The serving regime (ServerLoop requires it): warm shards, so the tier
// attaches its decoded-node caches. Every structure is built, so each
// fixed algorithm runs.
std::unique_ptr<ShardedDatabase> BuildWarmTier(
    const std::vector<StoredObject>& objects, uint64_t num_shards) {
  DatabaseOptions options;
  options.ir2_signature = SignatureConfig{256, 3};
  options.cold_queries = false;
  ShardingOptions sharding;
  sharding.num_shards = num_shards;
  sharding.structures = kAllIndexes;
  return ShardedDatabase::Build(objects, options, sharding).value();
}

TEST_F(ShardedDatabaseTest, WarmShardTreesGetNodeCachesColdOnesDoNot) {
  auto warm = BuildWarmTier(objects_, 4);
  std::set<const NodeCache*> caches;
  for (size_t s = 0; s < warm->num_shards(); ++s) {
    const std::vector<RTreeBase*> trees = warm->shard(s)->trees();
    EXPECT_EQ(trees.size(), 4u);
    for (const RTreeBase* tree : trees) {
      ASSERT_NE(tree->node_cache(), nullptr) << "shard " << s;
      caches.insert(tree->node_cache());
    }
  }
  // One cache per tree: block ids are per device, so sharing would alias.
  EXPECT_EQ(caches.size(), 4u * warm->num_shards());

  auto cold = BuildSharded(4);  // Default options: cold_queries on.
  for (size_t s = 0; s < cold->num_shards(); ++s) {
    for (const RTreeBase* tree : cold->shard(s)->trees()) {
      EXPECT_EQ(tree->node_cache(), nullptr) << "shard " << s;
    }
  }

  // WrapSingle follows the wrapped database's regime; the facade on its
  // own never attaches a cache.
  DatabaseOptions options;
  options.ir2_signature = SignatureConfig{256, 3};
  options.cold_queries = false;
  auto single = SpatialKeywordDatabase::Build(objects_, options).value();
  for (const RTreeBase* tree : single->trees()) {
    EXPECT_EQ(tree->node_cache(), nullptr);
  }
  auto wrapped = ShardedDatabase::WrapSingle(std::move(single)).value();
  for (const RTreeBase* tree : wrapped->shard(0)->trees()) {
    EXPECT_NE(tree->node_cache(), nullptr);
  }
  auto wrapped_cold = ShardedDatabase::WrapSingle(
      SpatialKeywordDatabase::Build(objects_, DatabaseOptions()).value());
  for (const RTreeBase* tree : wrapped_cold.value()->shard(0)->trees()) {
    EXPECT_EQ(tree->node_cache(), nullptr);
  }
}

TEST_F(ShardedDatabaseTest, WrappedTierExplainNamesNoCurve) {
  // WrapSingle runs no partition, so EXPLAIN's curve row names none.
  auto wrapped = ShardedDatabase::WrapSingle(
      SpatialKeywordDatabase::Build(objects_, DatabaseOptions()).value());
  ASSERT_TRUE(wrapped.ok()) << wrapped.status().ToString();
  auto explain = wrapped.value()->Explain(queries_.front(), Algorithm::kAuto);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  const std::string report = explain.value().report.ToString();
  EXPECT_EQ(report.find("hilbert"), std::string::npos) << report;
  EXPECT_EQ(report.find("morton"), std::string::npos) << report;
}

TEST_F(ShardedDatabaseTest, NodeCachesLeaveAnswersAndPhysicalIoUnchanged) {
  // Two identical warm tiers, one with its caches detached: every fixed
  // algorithm and kAuto must return the same answers with the same
  // physical I/O and simulated disk time. The caches only skip node reads
  // that would have hit the (tree-sized) warm pools, and kAuto's planner
  // feedback is the simulated time, so its choices cannot drift either.
  auto cached = BuildWarmTier(objects_, 4);
  auto uncached = BuildWarmTier(objects_, 4);
  for (size_t s = 0; s < uncached->num_shards(); ++s) {
    for (RTreeBase* tree : uncached->shard(s)->trees()) {
      tree->SetNodeCache(nullptr);
    }
  }
  const Algorithm algos[] = {Algorithm::kRTree, Algorithm::kIio,
                             Algorithm::kIr2,   Algorithm::kMir2,
                             Algorithm::kKcTree, Algorithm::kAuto};
  QueryStats cached_total;
  QueryStats uncached_total;
  // Two passes: the second runs against full caches.
  for (int pass = 0; pass < 2; ++pass) {
    for (Algorithm algo : algos) {
      for (size_t i = 0; i < queries_.size(); ++i) {
        QueryStats with_cache;
        auto a = cached->Query(queries_[i], algo, &with_cache);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        QueryStats without_cache;
        auto b = uncached->Query(queries_[i], algo, &without_cache);
        ASSERT_TRUE(b.ok()) << b.status().ToString();
        ASSERT_EQ(a.value().size(), b.value().size())
            << AlgorithmName(algo) << " query " << i;
        for (size_t r = 0; r < a.value().size(); ++r) {
          EXPECT_EQ(a.value()[r].object_id, b.value()[r].object_id)
              << AlgorithmName(algo) << " query " << i << " rank " << r;
          EXPECT_EQ(a.value()[r].distance, b.value()[r].distance);
        }
        EXPECT_EQ(with_cache.io, without_cache.io)
            << AlgorithmName(algo) << " query " << i;
        EXPECT_EQ(with_cache.simulated_disk_ms, without_cache.simulated_disk_ms)
            << AlgorithmName(algo) << " query " << i;
        EXPECT_EQ(with_cache.nodes_visited, without_cache.nodes_visited)
            << AlgorithmName(algo) << " query " << i;
        // Uncached, every visited node is decoded.
        EXPECT_EQ(without_cache.node_decodes, without_cache.nodes_visited)
            << AlgorithmName(algo) << " query " << i;
        cached_total += with_cache;
        uncached_total += without_cache;
      }
    }
  }
  ASSERT_GT(uncached_total.nodes_visited, 0u);
  // The cached tier decodes each shard-tree node at most once.
  EXPECT_LT(cached_total.node_decodes, uncached_total.node_decodes);
}

TEST_F(ShardedDatabaseTest, KcTreeInsertInvalidatesShardNodeCache) {
  auto tier = BuildWarmTier(objects_, 2);
  SpatialKeywordDatabase* shard = tier->shard(0);
  KcTree* kc = shard->kc_tree();
  ASSERT_NE(kc, nullptr);
  NodeCache* cache = kc->node_cache();
  ASSERT_NE(cache, nullptr);

  DistanceFirstQuery q = queries_.front();
  q.point = tier->shard_info(0).bounds.Center();
  // Warm the cache through the tier, then a repeat decodes nothing.
  ASSERT_TRUE(tier->Query(q, Algorithm::kKcTree).ok());
  QueryStats warm;
  auto before = shard->Query(q, Algorithm::kKcTree, &warm);
  ASSERT_TRUE(before.ok());
  ASSERT_GT(warm.nodes_visited, 0u);
  EXPECT_EQ(warm.node_decodes, 0u);
  const uint64_t invalidations = cache->Stats().invalidations;

  // A tree-level insert (no keywords, so the filter prunes it and the
  // answer stays put) bumps the tree version.
  const Rect rect = Rect::ForPoint(q.point);
  ASSERT_TRUE(kc->InsertObject(/*ref=*/0, rect, {}).ok());

  QueryStats fresh;
  auto after = shard->Query(q, Algorithm::kKcTree, &fresh);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(cache->Stats().invalidations, invalidations);
  EXPECT_GT(fresh.nodes_visited, 0u);
  EXPECT_EQ(fresh.node_decodes, fresh.nodes_visited);
  ASSERT_EQ(after.value().size(), before.value().size());
  for (size_t r = 0; r < after.value().size(); ++r) {
    EXPECT_EQ(after.value()[r].object_id, before.value()[r].object_id);
  }
}

// The default tier builds only the serving set on every shard, whatever
// the DatabaseOptions ask for; kAuto still returns the brute-force answer
// and a fixed algorithm outside the set fails cleanly.
TEST_F(ShardedDatabaseTest, DefaultTierBuildsOnlyTheServingSet) {
  DatabaseOptions options;
  options.ir2_signature = SignatureConfig{256, 3};
  options.cold_queries = false;
  ASSERT_EQ(options.structures, kAllIndexes);
  ShardingOptions sharding;
  ASSERT_EQ(sharding.structures, serving::kServingStructures);
  auto tier = ShardedDatabase::Build(objects_, options, sharding).value();
  ASSERT_EQ(tier->num_shards(), 4u);
  for (size_t s = 0; s < tier->num_shards(); ++s) {
    SpatialKeywordDatabase* shard = tier->shard(s);
    EXPECT_EQ(shard->options().structures, serving::kServingStructures);
    const std::vector<RTreeBase*> trees = shard->trees();
    ASSERT_EQ(trees.size(), 1u) << "shard " << s;
    EXPECT_EQ(trees[0], shard->kc_tree()) << "shard " << s;
    EXPECT_NE(shard->inverted_index(), nullptr) << "shard " << s;
    EXPECT_EQ(shard->RTreeBytes(), 0u) << "shard " << s;
    EXPECT_EQ(shard->Ir2TreeBytes(), 0u) << "shard " << s;
    EXPECT_EQ(shard->Mir2TreeBytes(), 0u) << "shard " << s;
    EXPECT_GT(shard->KcTreeBytes(), 0u) << "shard " << s;
    EXPECT_GT(shard->IioBytes(), 0u) << "shard " << s;
  }

  for (uint32_t k : {1u, 10u, 50u}) {
    for (const DistanceFirstQuery& base : queries_) {
      for (size_t n : {size_t{1}, base.keywords.size()}) {
        DistanceFirstQuery q = base;
        q.keywords.resize(n);
        q.k = k;
        auto results = tier->Query(q, Algorithm::kAuto);
        ASSERT_TRUE(results.ok()) << results.status().ToString();
        EXPECT_EQ(testing_util::ResultIds(results.value()),
                  testing_util::BruteForceDistanceFirst(objects_, q.point,
                                                        q.keywords, k))
            << "k=" << k << " keywords=" << n;
      }
    }
  }

  for (Algorithm algo :
       {Algorithm::kRTree, Algorithm::kIr2, Algorithm::kMir2}) {
    auto fixed = tier->Query(queries_.front(), algo);
    EXPECT_EQ(fixed.status().code(), StatusCode::kFailedPrecondition)
        << AlgorithmName(algo);
  }
  EXPECT_TRUE(tier->Query(queries_.front(), Algorithm::kIio).ok());
  EXPECT_TRUE(tier->Query(queries_.front(), Algorithm::kKcTree).ok());
}

// The build schedule is invisible: whichever worker built a shard, and in
// whatever order, each shard is the database a lone Build of its members
// on the calling thread produces (same bounds, object count and saved
// bytes), and the tier still answers like the single database. Seven
// shards outnumber the workers on a host with fewer cores, so workers
// build more than one shard each.
TEST_F(ShardedDatabaseTest, BuildScheduleCannotChangeTheTier) {
  DatabaseOptions options;
  options.ir2_signature = SignatureConfig{256, 3};
  options.structures = kAllIndexes;
  const std::string root = ::testing::TempDir() + "/ir2_shard_schedule";
  for (uint64_t num_shards : {1ull, 2ull, 4ull, 7ull}) {
    auto sharded = BuildSharded(num_shards);
    const std::vector<ShardAssignment> assignment =
        PartitionBySpaceFillingCurve(objects_, num_shards);
    ASSERT_EQ(sharded->num_shards(), assignment.size());
    for (size_t s = 0; s < assignment.size(); ++s) {
      const std::string where = std::to_string(num_shards) +
                                " shards, shard " + std::to_string(s);
      std::vector<StoredObject> members;
      for (uint32_t index : assignment[s].members) {
        members.push_back(objects_[index]);
      }
      auto lone = SpatialKeywordDatabase::Build(members, options).value();
      const ShardedDatabase::ShardInfo& info = sharded->shard_info(s);
      EXPECT_TRUE(info.bounds.lo() == assignment[s].bounds.lo()) << where;
      EXPECT_TRUE(info.bounds.hi() == assignment[s].bounds.hi()) << where;
      EXPECT_EQ(info.num_objects, members.size()) << where;
      EXPECT_EQ(sharded->shard(s)->stats().num_objects,
                lone->stats().num_objects)
          << where;
      EXPECT_EQ(SavedDigests(*sharded->shard(s), root + "/tier"),
                SavedDigests(*lone, root + "/lone"))
          << where;
    }
    for (Algorithm algo : {Algorithm::kIr2, Algorithm::kAuto}) {
      for (const DistanceFirstQuery& q : queries_) {
        std::vector<QueryResult> expected =
            single_->Query(q, Algorithm::kIr2).value();
        Canonicalize(expected);
        std::vector<QueryResult> actual = sharded->Query(q, algo).value();
        ASSERT_EQ(actual.size(), expected.size())
            << num_shards << " shards, " << AlgorithmName(algo);
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(actual[i].object_id, expected[i].object_id)
              << num_shards << " shards, " << AlgorithmName(algo)
              << ", result " << i;
          EXPECT_EQ(actual[i].distance, expected[i].distance);
        }
      }
    }
  }
}

// A shard whose build fails makes the tier's Build return that Status once
// every worker has finished: no crash, no hang, no thread left behind.
// Three-dimensional trees over two-dimensional objects fail every shard's
// first insert.
TEST_F(ShardedDatabaseTest, FailedShardBuildIsACleanStatus) {
  DatabaseOptions options;
  options.tree_options.dims = 3;
  for (uint64_t num_shards : {1ull, 4ull, 7ull}) {
    ShardingOptions sharding;
    sharding.num_shards = num_shards;
    const size_t threads_before = ThreadCount();
    auto tier = ShardedDatabase::Build(objects_, options, sharding);
    ASSERT_FALSE(tier.ok()) << num_shards << " shards";
    EXPECT_EQ(tier.status().code(), StatusCode::kInvalidArgument)
        << tier.status().ToString();
    EXPECT_EQ(ThreadCount(), threads_before) << num_shards << " shards";
  }
}

// A tier with one shard worker per hardware thread gives each shard a
// budget of one worker, so every shard builds its structures inline on its
// shard worker: while the tier builds, the process runs the calling
// thread, the other shard workers and the sampler, and nothing more.
TEST_F(ShardedDatabaseTest, TierBuildStartsNoStructureWorkers) {
  const size_t workers = HardwareWorkers();
  if (workers < 2) GTEST_SKIP() << "one hardware thread: no helper threads";
  const size_t threads_before = ThreadCount();
  if (threads_before == 0) GTEST_SKIP() << "/proc/self/task unavailable";
  std::unique_ptr<ShardedDatabase> tier;
  const size_t peak =
      testing_util::PeakThreadsDuring([&] { tier = BuildSharded(workers); });
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(tier->num_shards(), workers);
  EXPECT_LE(peak, threads_before + (workers - 1) + 1);
  EXPECT_EQ(ThreadCount(), threads_before);
}

TEST(QueryStatsTest, AccumulatesShardCounters) {
  QueryStats a;
  a.shards_queried = 3;
  a.shards_pruned = 5;
  QueryStats b;
  b.shards_queried = 2;
  b.shards_pruned = 1;
  a += b;
  EXPECT_EQ(a.shards_queried, 5u);
  EXPECT_EQ(a.shards_pruned, 6u);
}

}  // namespace
}  // namespace ir2
