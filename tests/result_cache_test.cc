#include "serving/result_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "datagen/zipf.h"
#include "serving/server_loop.h"
#include "serving/sharded_database.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using serving::RenderCachezJson;
using serving::ResultCache;
using serving::ResultCacheOptions;
using serving::ServerLoop;
using serving::ServerLoopOptions;
using serving::ShardedDatabase;
using serving::ShardingOptions;
using testing_util::BruteForceDistanceFirst;
using testing_util::RandomObjects;
using testing_util::ResultIds;

// ---------------------------------------------------------------- helpers

QueryResult MakeResult(uint32_t id, double x, double y, const Point& from) {
  QueryResult r;
  r.ref = id;
  r.object_id = id;
  r.location = Point(x, y);
  r.distance = Rect::ForPoint(from).MinDist(r.location);
  r.score = -r.distance;
  return r;
}

DistanceFirstQuery MakeQuery(double x, double y, uint32_t k,
                             std::vector<std::string> keywords) {
  DistanceFirstQuery q;
  q.point = Point(x, y);
  q.k = k;
  q.keywords = std::move(keywords);
  return q;
}

// A line of four objects east of the origin: distances 1, 2, 3, 4 from
// p = (0, 0). Admitted with fetched_k == 4, the entry is NOT exhaustive and
// its covering radius r_K is exactly 4.
void AdmitLineEntry(ResultCache* cache, uint64_t epoch) {
  const DistanceFirstQuery fill = MakeQuery(0, 0, 2, {"w"});
  const Point p = fill.point;
  std::vector<QueryResult> results = {
      MakeResult(1, 1, 0, p), MakeResult(2, 2, 0, p), MakeResult(3, 3, 0, p),
      MakeResult(4, 4, 0, p)};
  cache->Admit(fill, /*fetched_k=*/4, epoch, results);
}

// ------------------------------------------------------------- unit tests

TEST(ResultCacheTest, ExactRepeatServesVerbatimPrefix) {
  ResultCache cache;
  AdmitLineEntry(&cache, /*epoch=*/7);

  CacheReuseCheck check;
  std::vector<QueryResult> out;
  DistanceFirstQuery q = MakeQuery(0, 0, 3, {"w"});
  ASSERT_TRUE(cache.TryServe(q, /*epoch=*/7, &out, &check));
  EXPECT_TRUE(check.exact);
  EXPECT_FALSE(check.exhaustive);
  EXPECT_EQ(check.center_shift, 0.0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].object_id, 1u);
  EXPECT_EQ(out[1].object_id, 2u);
  EXPECT_EQ(out[2].object_id, 3u);
  // Stored distances come back bit-for-bit — no recomputation on the exact
  // path.
  EXPECT_EQ(out[0].distance, 1.0);
  EXPECT_EQ(out[2].distance, 3.0);

  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.near_hits, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.cached_results, 4u);
}

TEST(ResultCacheTest, TriangleInequalityHitIsStrict) {
  ResultCache cache;
  AdmitLineEntry(&cache, /*epoch=*/1);

  // p' = (1, 0): shift = 1, re-ranked distances 0, 1, 2, 3; r_K = 4.
  // k' = 2: d'_2 = 1 < r_K - shift = 3  -> provable, near hit.
  {
    CacheReuseCheck check;
    std::vector<QueryResult> out;
    DistanceFirstQuery q = MakeQuery(1, 0, 2, {"w"});
    ASSERT_TRUE(cache.TryServe(q, 1, &out, &check));
    EXPECT_TRUE(check.hit);
    EXPECT_FALSE(check.exact);
    EXPECT_EQ(check.center_shift, 1.0);
    EXPECT_EQ(check.kth_distance, 1.0);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].object_id, 1u);
    EXPECT_EQ(out[0].distance, 0.0);
    EXPECT_EQ(out[1].object_id, 2u);
    EXPECT_EQ(out[1].distance, 1.0);
  }

  // k' = 4: d'_4 = 3 == r_K - shift = 3. The inequality is strict — an
  // object tied at exactly r_K may have lost the K-th slot on object id and
  // be missing from the entry — so this MUST fall through to the planner.
  {
    CacheReuseCheck check;
    std::vector<QueryResult> out;
    DistanceFirstQuery q = MakeQuery(1, 0, 4, {"w"});
    EXPECT_FALSE(cache.TryServe(q, 1, &out, &check));
    EXPECT_TRUE(check.attempted);
    EXPECT_FALSE(check.hit);
    EXPECT_EQ(check.kth_distance, 3.0);
  }

  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.near_hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ResultCacheTest, ExhaustiveEntryServesAnyPerturbation) {
  ResultCache cache;
  const DistanceFirstQuery fill = MakeQuery(0, 0, 2, {"rare"});
  const Point p = fill.point;
  // Three results against fetched_k = 6: the database holds only three
  // matches, so the entry is the complete match set.
  std::vector<QueryResult> results = {
      MakeResult(1, 1, 0, p), MakeResult(2, 2, 0, p), MakeResult(3, 3, 0, p)};
  cache.Admit(fill, /*fetched_k=*/6, /*epoch=*/0, results);

  // A far-away query point with k' > cached results: still exact — re-rank
  // the complete match set and return all of it.
  CacheReuseCheck check;
  std::vector<QueryResult> out;
  DistanceFirstQuery q = MakeQuery(100, 100, 10, {"rare"});
  ASSERT_TRUE(cache.TryServe(q, 0, &out, &check));
  EXPECT_TRUE(check.exhaustive);
  ASSERT_EQ(out.size(), 3u);
  // Re-ranked: object 3 at (3,0) is now nearest to (100,100).
  EXPECT_EQ(out[0].object_id, 3u);
  EXPECT_EQ(out[0].distance, Distance(Point(3, 0), Point(100, 100)));
  EXPECT_EQ(cache.GetStats().hits, 1u);
}

TEST(ResultCacheTest, ZeroMatchEntryIsExhaustive) {
  ResultCache cache;
  const DistanceFirstQuery fill = MakeQuery(0, 0, 2, {"nosuchword"});
  cache.Admit(fill, /*fetched_k=*/6, /*epoch=*/0, {});

  std::vector<QueryResult> out;
  DistanceFirstQuery q = MakeQuery(50, 50, 5, {"nosuchword"});
  ASSERT_TRUE(cache.TryServe(q, 0, &out, nullptr));
  EXPECT_TRUE(out.empty());
}

TEST(ResultCacheTest, StaleEpochInvalidatesAndDropsTheEntry) {
  ResultCache cache;
  AdmitLineEntry(&cache, /*epoch=*/3);

  CacheReuseCheck check;
  std::vector<QueryResult> out;
  DistanceFirstQuery q = MakeQuery(0, 0, 2, {"w"});
  // The tier mutated: epoch 3 -> 4. The entry must be rejected and dropped.
  EXPECT_FALSE(cache.TryServe(q, /*epoch=*/4, &out, &check));
  EXPECT_TRUE(check.stale);
  EXPECT_EQ(cache.GetStats().invalidations, 1u);
  EXPECT_EQ(cache.GetStats().entries, 0u);

  // The drop is permanent: a retry at the old epoch finds nothing either.
  CacheReuseCheck again;
  EXPECT_FALSE(cache.TryServe(q, /*epoch=*/3, &out, &again));
  EXPECT_FALSE(again.attempted);
}

TEST(ResultCacheTest, KeyIsTheSortedKeywordMultiset) {
  ResultCache cache;
  const Point p(0, 0);
  std::vector<QueryResult> results = {MakeResult(1, 1, 0, p)};
  cache.Admit(MakeQuery(0, 0, 1, {"pool", "internet"}), 6, 0, results);

  // Same set, different order: same entry.
  std::vector<QueryResult> out;
  ASSERT_TRUE(cache.TryServe(MakeQuery(0, 0, 1, {"internet", "pool"}), 0,
                             &out, nullptr));
  // Different set: no entry.
  EXPECT_FALSE(
      cache.TryServe(MakeQuery(0, 0, 1, {"internet"}), 0, &out, nullptr));
}

TEST(ResultCacheTest, OverfetchPolicyScalesWithFrequency) {
  // The policy's constants: factor 2, hot factor 4 once the EWMA reaches 4,
  // K clamped to [k + 4, k + 256].
  ResultCache cache;

  DistanceFirstQuery q = MakeQuery(0, 0, 10, {"w"});
  std::vector<QueryResult> out;
  // Cold set: factor 2 -> K = 20.
  cache.TryServe(q, 0, &out, nullptr);
  EXPECT_EQ(cache.OverfetchK(q), 20u);
  // The k + 4 floor makes small k over-fetch so exact repeats hit.
  DistanceFirstQuery tiny = MakeQuery(0, 0, 1, {"w"});
  EXPECT_EQ(cache.OverfetchK(tiny), 5u);
  // Hammer the set hot (EWMA >= 4): factor 4 -> K = min(40, k + 256) = 40.
  for (int i = 0; i < 8; ++i) cache.TryServe(q, 0, &out, nullptr);
  EXPECT_EQ(cache.OverfetchK(q), 40u);
  // The k + 256 cap bounds the ball: k = 100 hot would be 400, capped to
  // 356.
  DistanceFirstQuery big = MakeQuery(0, 0, 100, {"w"});
  EXPECT_EQ(cache.OverfetchK(big), 356u);
}

TEST(ResultCacheTest, GatedQueriesNeverTouchTheCache) {
  ResultCache cache;
  AdmitLineEntry(&cache, 0);
  std::vector<QueryResult> out;

  DistanceFirstQuery area = MakeQuery(0, 0, 2, {"w"});
  area.area = Rect(Point(0, 0), Point(1, 1));
  EXPECT_FALSE(cache.TryServe(area, 0, &out, nullptr));
  EXPECT_EQ(cache.OverfetchK(area), 0u);

  DistanceFirstQuery bounded = MakeQuery(0, 0, 2, {"w"});
  bounded.max_distance = 10.0;
  EXPECT_FALSE(cache.TryServe(bounded, 0, &out, nullptr));
  EXPECT_EQ(cache.OverfetchK(bounded), 0u);
  // A bounded over-fetch could truncate below K and record an uncovered
  // radius; Admit refuses it outright.
  cache.Admit(bounded, 6, 0, {});
  EXPECT_EQ(cache.GetStats().admitted, 1u);  // Only the line entry.
}

TEST(ResultCacheTest, LruEvictsTheColdestKeywordSet) {
  // 16 entries over the cache's 8 lock stripes: two keyword sets per
  // stripe. A one-keyword set's key is the keyword itself, striped by
  // std::hash % 8; pick three keywords of one stripe so the third evicts.
  ResultCacheOptions options;
  options.max_entries = 16;
  ResultCache cache(options);
  std::vector<std::string> keys;
  const size_t stripe = std::hash<std::string>{}("s0") % 8;
  for (int i = 0; keys.size() < 3; ++i) {
    const std::string key = "s" + std::to_string(i);
    if (std::hash<std::string>{}(key) % 8 == stripe) keys.push_back(key);
  }
  const std::string& a = keys[0];
  const std::string& b = keys[1];
  const std::string& c = keys[2];

  const Point p(0, 0);
  std::vector<QueryResult> one = {MakeResult(1, 1, 0, p)};
  std::vector<QueryResult> out;
  cache.TryServe(MakeQuery(0, 0, 1, {a}), 0, &out, nullptr);
  cache.Admit(MakeQuery(0, 0, 1, {a}), 6, 0, one);
  cache.TryServe(MakeQuery(0, 0, 1, {b}), 0, &out, nullptr);
  cache.Admit(MakeQuery(0, 0, 1, {b}), 6, 0, one);
  // Touch a so b is the LRU victim when c arrives.
  ASSERT_TRUE(cache.TryServe(MakeQuery(0, 0, 1, {a}), 0, &out, nullptr));
  cache.TryServe(MakeQuery(0, 0, 1, {c}), 0, &out, nullptr);
  cache.Admit(MakeQuery(0, 0, 1, {c}), 6, 0, one);

  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_TRUE(cache.TryServe(MakeQuery(0, 0, 1, {a}), 0, &out, nullptr));
  EXPECT_TRUE(cache.TryServe(MakeQuery(0, 0, 1, {c}), 0, &out, nullptr));
  EXPECT_FALSE(cache.TryServe(MakeQuery(0, 0, 1, {b}), 0, &out, nullptr));
}

TEST(ResultCacheTest, ClearDropsEntriesAndAdmissionState) {
  ResultCache cache;
  AdmitLineEntry(&cache, 0);
  ASSERT_EQ(cache.GetStats().entries, 1u);
  cache.Clear();
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_TRUE(cache.Table().empty());
}

TEST(ResultCacheTest, TableListsHottestFirst) {
  ResultCache cache;
  std::vector<QueryResult> out;
  DistanceFirstQuery hot = MakeQuery(0, 0, 1, {"hot"});
  DistanceFirstQuery cold = MakeQuery(0, 0, 1, {"cold", "set"});
  cache.TryServe(cold, 0, &out, nullptr);
  for (int i = 0; i < 4; ++i) cache.TryServe(hot, 0, &out, nullptr);
  const Point p(0, 0);
  std::vector<QueryResult> one = {MakeResult(1, 1, 0, p)};
  cache.Admit(hot, 5, 0, one);

  auto rows = cache.Table();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, "hot");
  EXPECT_TRUE(rows[0].has_entry);
  EXPECT_EQ(rows[0].cached_results, 1u);
  EXPECT_EQ(rows[1].key, "cold set");  // Display form is space-joined.
  EXPECT_FALSE(rows[1].has_entry);
}

TEST(ResultCacheTest, CachezJsonGolden) {
  ResultCache::Stats stats;
  stats.hits = 3;
  stats.near_hits = 1;
  stats.misses = 4;
  stats.invalidations = 1;
  stats.admitted = 2;
  stats.evictions = 0;
  stats.entries = 1;
  stats.cached_results = 20;
  stats.ticks = 8;
  stats.skipped = 5;
  stats.has_fill_ms = true;
  stats.fill_ms = 1.5;
  stats.buckets.push_back({/*ewma_from=*/0.0, /*admits=*/2.0, /*serves=*/0.5,
                           /*overfetch=*/true});
  stats.buckets.push_back({/*ewma_from=*/2.0, /*admits=*/0.0, /*serves=*/0.0,
                           /*overfetch=*/false});
  ResultCache::EntryRow row;
  row.key = "pool wifi";
  row.ewma = 2.5;
  row.last_tick = 8;
  row.has_entry = true;
  row.cached_results = 20;
  row.radius = 12.25;
  row.exhaustive = false;
  row.epoch = 6;
  const std::string expected =
      "{\"result_cache\":{\"entries\":1,\"cached_results\":20,\"hits\":3,"
      "\"near_hits\":1,\"misses\":4,\"invalidations\":1,\"admitted\":2,"
      "\"evictions\":0,\"requests\":8,\"hit_rate\":0.5,\"mutation_epoch\":9,"
      "\"keyword_sets\":[{\"keywords\":\"pool wifi\",\"ewma\":2.5,"
      "\"last_tick\":8,\"cached\":true,\"cached_results\":20,"
      "\"radius\":12.25,\"exhaustive\":false,\"epoch\":6}],"
      "\"skipped\":5,\"admission\":{\"miss_ms\":null,\"fill_ms\":1.5,"
      "\"buckets\":[{\"ewma_from\":0,\"admits\":2,\"serves\":0.5,"
      "\"decision\":\"overfetch\"},{\"ewma_from\":2,\"admits\":0,"
      "\"serves\":0,\"decision\":\"skip\"}]}}}";
  EXPECT_EQ(RenderCachezJson(stats, {row}, /*mutation_epoch=*/9), expected);
}

// ------------------------------------------- single database, one shard

// A single database is served with a cache the way examples/serve --open
// serves a saved one: wrapped as a one-shard tier whose facade holds the
// cache.
TEST(WrapSingleResultCacheTest, QueryAutoConsultsTheTierCache) {
  std::vector<StoredObject> objects = RandomObjects(5, 200, 30, 5);
  DatabaseOptions options;
  options.ir2_signature = SignatureConfig{256, 3};
  options.cold_queries = false;
  auto tier = ShardedDatabase::WrapSingle(
                  SpatialKeywordDatabase::Build(objects, options).value())
                  .value();
  tier->EnableResultCache();

  DistanceFirstQuery q;
  q.point = Point(500, 500);
  q.keywords = {"w1"};
  q.k = 5;

  QueryStats miss_stats;
  auto first = tier->Query(q, Algorithm::kAuto, &miss_stats);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(miss_stats.result_cache_misses, 1u);
  EXPECT_EQ(miss_stats.result_cache_hits, 0u);

  QueryStats hit_stats;
  auto second = tier->Query(q, Algorithm::kAuto, &hit_stats);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(hit_stats.result_cache_hits, 1u);
  // The hit does not touch the planner or the trees.
  EXPECT_EQ(hit_stats.nodes_visited, 0u);
  EXPECT_EQ(hit_stats.objects_loaded, 0u);
  ASSERT_EQ(second.value().size(), first.value().size());
  for (size_t i = 0; i < first.value().size(); ++i) {
    EXPECT_EQ(second.value()[i].object_id, first.value()[i].object_id);
    EXPECT_EQ(second.value()[i].distance, first.value()[i].distance);
  }

  // EXPLAIN surfaces the reuse decision with the inequality's numbers.
  auto explain = tier->Explain(q, Algorithm::kAuto);
  ASSERT_TRUE(explain.ok());
  const std::string report = explain.value().report.ToString();
  EXPECT_NE(report.find("Result cache"), std::string::npos);
  EXPECT_NE(report.find("verdict"), std::string::npos);
}

// ---------------------------------------------- sharded integration/fuzz

class ShardedResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    objects_ = RandomObjects(7, 400, 40, 5);
    DatabaseOptions options;
    options.ir2_signature = SignatureConfig{256, 3};
    options.cold_queries = false;
    single_ = SpatialKeywordDatabase::Build(objects_, options).value();
    ShardingOptions sharding;
    sharding.num_shards = 4;
    sharding.structures = kAllIndexes;  // Fixed IR2 queries run below.
    sharded_ = ShardedDatabase::Build(objects_, options, sharding).value();
    sharded_->EnableResultCache();

    WorkloadConfig one_kw;
    one_kw.seed = 3;
    one_kw.num_queries = 4;
    one_kw.num_keywords = 1;  // ~60 matches: exercises the inequality path.
    WorkloadConfig two_kw = one_kw;
    two_kw.seed = 4;
    two_kw.num_keywords = 2;  // ~7 matches: exercises exhaustive entries.
    templates_ = GenerateWorkload(objects_, single_->tokenizer(), one_kw);
    auto more = GenerateWorkload(objects_, single_->tokenizer(), two_kw);
    templates_.insert(templates_.end(), more.begin(), more.end());
    ASSERT_FALSE(templates_.empty());
  }

  std::vector<QueryResult> Oracle(const DistanceFirstQuery& q) {
    std::vector<QueryResult> expected = single_->Query(q, Algorithm::kIr2).value();
    std::sort(expected.begin(), expected.end(),
              [](const QueryResult& a, const QueryResult& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                return a.object_id < b.object_id;
              });
    return expected;
  }

  std::vector<StoredObject> objects_;
  std::unique_ptr<SpatialKeywordDatabase> single_;
  std::unique_ptr<ShardedDatabase> sharded_;
  std::vector<DistanceFirstQuery> templates_;
};

TEST_F(ShardedResultCacheTest, FuzzCachedAnswersEqualPlannerAnswers) {
  // 1000 random (p', k') perturbations of a small template pool: every
  // cached answer must match the uncached planner answer bit-for-bit
  // (object ids AND distances), across misses, exact repeats, inequality
  // hits, and exhaustive-entry hits.
  Rng rng(99);
  QueryStats totals;
  for (int i = 0; i < 1000; ++i) {
    DistanceFirstQuery q = templates_[rng.NextUint64(templates_.size())];
    q.point = Point(q.point.coords()[0] + rng.NextDouble(-40, 40),
                    q.point.coords()[1] + rng.NextDouble(-40, 40));
    q.k = static_cast<uint32_t>(1 + rng.NextUint64(15));
    auto served = sharded_->Query(q, Algorithm::kAuto, &totals);
    ASSERT_TRUE(served.ok());
    std::vector<QueryResult> expected = Oracle(q);
    ASSERT_EQ(served.value().size(), expected.size()) << "iteration " << i;
    for (size_t r = 0; r < expected.size(); ++r) {
      ASSERT_EQ(served.value()[r].object_id, expected[r].object_id)
          << "iteration " << i << " result " << r;
      ASSERT_EQ(served.value()[r].distance, expected[r].distance)
          << "iteration " << i << " result " << r;
    }
  }
  // The workload is hot enough that the cache must actually engage, and
  // the per-query stats must agree with the cache's own totals.
  const ResultCache::Stats stats = sharded_->result_cache()->GetStats();
  EXPECT_GT(stats.hits + stats.near_hits, 0u);
  EXPECT_EQ(totals.result_cache_hits, stats.hits);
  EXPECT_EQ(totals.result_cache_near_hits, stats.near_hits);
  EXPECT_EQ(totals.result_cache_misses, stats.misses);
}

TEST_F(ShardedResultCacheTest, MutationBumpsEpochAndInvalidates) {
  DistanceFirstQuery q = templates_.front();
  q.k = 5;
  QueryStats stats;
  ASSERT_TRUE(sharded_->Query(q, Algorithm::kAuto, &stats).ok());  // Fill.
  ASSERT_TRUE(sharded_->Query(q, Algorithm::kAuto, &stats).ok());  // Hit.
  ASSERT_EQ(stats.result_cache_hits, 1u);

  // Answer-preserving mutation: delete one object from shard 0's baseline
  // R-tree and re-insert the identical entry. Both operations store nodes,
  // so the tier's mutation epoch moves; the answer does not.
  const uint64_t before = sharded_->MutationEpoch();
  auto probe = sharded_->shard(0)->QueryRTree(MakeQuery(0, 0, 1, {}));
  ASSERT_TRUE(probe.ok());
  ASSERT_FALSE(probe.value().empty());
  const QueryResult victim = probe.value().front();
  const Rect rect = Rect::ForPoint(victim.location);
  ASSERT_TRUE(sharded_->shard(0)->rtree()->Delete(victim.ref, rect).value());
  ASSERT_TRUE(sharded_->shard(0)->rtree()->Insert(victim.ref, rect).ok());
  EXPECT_GT(sharded_->MutationEpoch(), before);

  // The cached entry was filled under the old epoch: rejected, recounted,
  // refilled — and the refilled answer still matches the oracle.
  QueryStats after;
  auto refilled = sharded_->Query(q, Algorithm::kAuto, &after);
  ASSERT_TRUE(refilled.ok());
  EXPECT_EQ(after.result_cache_invalidations, 1u);
  EXPECT_EQ(after.result_cache_misses, 1u);
  std::vector<QueryResult> expected = Oracle(q);
  ASSERT_EQ(refilled.value().size(), expected.size());
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(refilled.value()[r].object_id, expected[r].object_id);
  }

  QueryStats hit_again;
  ASSERT_TRUE(sharded_->Query(q, Algorithm::kAuto, &hit_again).ok());
  EXPECT_EQ(hit_again.result_cache_hits, 1u);
}

TEST_F(ShardedResultCacheTest, FixedAlgorithmQueriesBypassTheCache) {
  DistanceFirstQuery q = templates_.front();
  q.k = 5;
  QueryStats stats;
  ASSERT_TRUE(sharded_->Query(q, Algorithm::kIr2, &stats).ok());
  ASSERT_TRUE(sharded_->Query(q, Algorithm::kIr2, &stats).ok());
  EXPECT_EQ(stats.result_cache_hits + stats.result_cache_near_hits +
                stats.result_cache_misses,
            0u);
  EXPECT_EQ(sharded_->result_cache()->GetStats().ticks, 0u);
}

TEST_F(ShardedResultCacheTest, ExplainShowsTheReuseProof) {
  DistanceFirstQuery q = templates_.front();
  q.k = 5;
  ASSERT_TRUE(sharded_->Query(q, Algorithm::kAuto).ok());  // Fill.
  auto explain = sharded_->Explain(q, Algorithm::kAuto);
  ASSERT_TRUE(explain.ok());
  EXPECT_TRUE(explain.value().cache_check.hit);
  EXPECT_TRUE(explain.value().legs.empty());  // No fan-out on a hit.
  const std::string report = explain.value().report.ToString();
  EXPECT_NE(report.find("Result cache"), std::string::npos);
  EXPECT_NE(report.find("result cache (no fan-out)"), std::string::npos);
  EXPECT_EQ(report.find("Shard fan-out"), std::string::npos);
}

TEST_F(ShardedResultCacheTest, ConcurrentServerLoopHammer) {
  // TSan target: four workers racing repeated hot queries through the
  // striped cache — lookups, fills, evictions, and the EWMA tick all
  // exercised concurrently. Answers must still match the oracle.
  ServerLoopOptions options;
  options.num_workers = 4;
  options.queue_capacity = 512;
  ServerLoop loop(sharded_.get(), options);

  std::atomic<int> mismatches{0};
  std::atomic<int> completed{0};
  for (int i = 0; i < 256; ++i) {
    DistanceFirstQuery q = templates_[i % templates_.size()];
    q.k = 5;
    std::vector<QueryResult> expected = Oracle(q);
    loop.Submit("hammer",
                q, [expected, &mismatches, &completed](
                       StatusOr<std::vector<QueryResult>> got,
                       const QueryStats&) {
                  ++completed;
                  if (!got.ok() || got.value().size() != expected.size()) {
                    ++mismatches;
                    return;
                  }
                  for (size_t r = 0; r < expected.size(); ++r) {
                    if (got.value()[r].object_id != expected[r].object_id ||
                        got.value()[r].distance != expected[r].distance) {
                      ++mismatches;
                    }
                  }
                });
  }
  loop.Drain();
  loop.Stop();
  EXPECT_EQ(completed.load(), 256);
  EXPECT_EQ(mismatches.load(), 0);
  const ResultCache::Stats stats = sharded_->result_cache()->GetStats();
  EXPECT_GT(stats.hits + stats.near_hits, 0u);
}

// ------------------------------------------------- priced admission

// The admission rule on a warm 4-shard serving tier: traffic that does not
// repeat stops over-fetching, repeating traffic keeps it, and the decision
// is a deterministic function of the request stream.
class PricedAdmissionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    objects_ = GenerateDataset(RestaurantsLikeConfig(0.005));
    options_.ir2_signature = SignatureConfig{256, 3};
    options_.cold_queries = false;
    tokenizer_ = SpatialKeywordDatabase::Build(objects_, options_)
                     .value()
                     ->tokenizer();
  }

  std::unique_ptr<ShardedDatabase> BuildTier(bool cache) const {
    ShardingOptions sharding;
    sharding.num_shards = 4;
    auto tier = ShardedDatabase::Build(objects_, options_, sharding).value();
    if (cache) tier->EnableResultCache();
    return tier;
  }

  // Uniform points and keyword pairs drawn from random objects: answers
  // are almost never reusable.
  std::vector<DistanceFirstQuery> NonRepeating(uint64_t seed,
                                               uint32_t n) const {
    WorkloadConfig config;
    config.seed = seed;
    config.num_queries = n;
    config.num_keywords = 2;
    return GenerateWorkload(objects_, tokenizer_, config);
  }

  // Zipf-popular templates, repeated verbatim or with a small point shift
  // and k' <= k (bench_cache's traffic shape).
  std::vector<DistanceFirstQuery> ZipfTemplates(uint64_t seed,
                                                uint32_t num_templates,
                                                uint32_t n) const {
    WorkloadConfig config;
    config.seed = seed;
    config.num_queries = num_templates;
    config.num_keywords = 1;
    const std::vector<DistanceFirstQuery> templates =
        GenerateWorkload(objects_, tokenizer_, config);
    Rng rng(seed);
    ZipfSampler sampler(templates.size(), 1.2);
    std::vector<DistanceFirstQuery> traffic;
    for (uint32_t i = 0; i < n; ++i) {
      DistanceFirstQuery q = templates[sampler.Sample(rng)];
      if (rng.NextDouble() >= 0.6) {
        q.point = Point(q.point[0] + rng.NextGaussian() * 2.0,
                        q.point[1] + rng.NextGaussian() * 2.0);
        q.k = static_cast<uint32_t>(1 + rng.NextUint64(q.k));
      }
      traffic.push_back(std::move(q));
    }
    return traffic;
  }

  // Runs `traffic` serially through `tier` and returns, per request, 'h'
  // for a cache hit, 'a' for an admitted miss and 's' for a skipped one.
  static std::string Replay(ShardedDatabase& tier,
                            const std::vector<DistanceFirstQuery>& traffic) {
    std::string decisions;
    for (const DistanceFirstQuery& q : traffic) {
      const ResultCache::Stats before = tier.result_cache()->GetStats();
      EXPECT_TRUE(tier.Query(q, Algorithm::kAuto).ok());
      const ResultCache::Stats after = tier.result_cache()->GetStats();
      decisions += after.skipped > before.skipped     ? 's'
                   : after.admitted > before.admitted ? 'a'
                                                      : 'h';
    }
    return decisions;
  }

  // Share of the misses in decisions[from, end) that skipped.
  static double SkipShare(const std::string& decisions, size_t from) {
    size_t skips = 0;
    size_t misses = 0;
    for (size_t i = from; i < decisions.size(); ++i) {
      if (decisions[i] == 's') ++skips;
      if (decisions[i] != 'h') ++misses;
    }
    return misses == 0 ? 0.0 : static_cast<double>(skips) / misses;
  }

  std::vector<StoredObject> objects_;
  DatabaseOptions options_;
  Tokenizer tokenizer_;
};

TEST_F(PricedAdmissionTest, NonRepeatingTrafficSkipsOverfetch) {
  auto cached = BuildTier(/*cache=*/true);
  auto uncached = BuildTier(/*cache=*/false);
  const std::vector<DistanceFirstQuery> traffic = NonRepeating(21, 1200);
  std::string decisions;
  for (size_t i = 0; i < traffic.size(); ++i) {
    const DistanceFirstQuery& q = traffic[i];
    const ResultCache::Stats before = cached->result_cache()->GetStats();
    auto got = cached->Query(q, Algorithm::kAuto);
    ASSERT_TRUE(got.ok());
    const ResultCache::Stats after = cached->result_cache()->GetStats();
    decisions += after.skipped > before.skipped ? 's' : 'x';
    auto plain = uncached->Query(q, Algorithm::kAuto);
    ASSERT_TRUE(plain.ok());
    ASSERT_EQ(got.value().size(), plain.value().size()) << "request " << i;
    for (size_t r = 0; r < plain.value().size(); ++r) {
      ASSERT_EQ(got.value()[r].object_id, plain.value()[r].object_id)
          << "request " << i << " result " << r;
      ASSERT_EQ(got.value()[r].distance, plain.value()[r].distance)
          << "request " << i << " result " << r;
    }
    ASSERT_EQ(ResultIds(got.value()),
              BruteForceDistanceFirst(objects_, q.point, q.keywords, q.k))
        << "request " << i;
  }
  const ResultCache::Stats stats = cached->result_cache()->GetStats();
  // Both prices are measured, and a plain-k miss is the cheaper one.
  EXPECT_TRUE(stats.has_miss_ms);
  EXPECT_TRUE(stats.has_fill_ms);
  EXPECT_LT(stats.miss_ms, stats.fill_ms);
  // After warm-up more than 90% of the misses run at k and admit nothing;
  // the rest are the 1-in-16 sample that keeps the ledger fresh.
  EXPECT_GT(SkipShare(decisions, traffic.size() / 2), 0.9);
  EXPECT_GT(stats.skipped, traffic.size() / 2);

  // EXPLAIN of a further miss shows the decision with both prices.
  auto explain = cached->Explain(NonRepeating(22, 1).front(), Algorithm::kAuto);
  ASSERT_TRUE(explain.ok());
  const CacheReuseCheck::Admission& admission =
      explain.value().cache_check.admission;
  EXPECT_TRUE(admission.decided);
  EXPECT_TRUE(admission.priced);
  const std::string report = explain.value().report.ToString();
  EXPECT_NE(report.find(admission.overfetch ? "over-fetch to K" : "skip"),
            std::string::npos);
  EXPECT_NE(report.find("c_K - c_k"), std::string::npos);
}

TEST_F(PricedAdmissionTest, ZipfTemplateStreamNeverSkips) {
  auto tier = BuildTier(/*cache=*/true);
  const std::string decisions = Replay(*tier, ZipfTemplates(5, 16, 1500));
  const ResultCache::Stats stats = tier->result_cache()->GetStats();
  EXPECT_EQ(stats.skipped, 0u) << decisions;
  EXPECT_GT(stats.hits + stats.near_hits, stats.misses);
}

TEST_F(PricedAdmissionTest, SerialReplayGivesTheSameDecisions) {
  std::vector<DistanceFirstQuery> traffic = NonRepeating(31, 600);
  const std::vector<DistanceFirstQuery> zipf = ZipfTemplates(6, 64, 600);
  traffic.insert(traffic.end(), zipf.begin(), zipf.end());
  auto first = BuildTier(/*cache=*/true);
  auto second = BuildTier(/*cache=*/true);
  const std::string a = Replay(*first, traffic);
  const std::string b = Replay(*second, traffic);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find('s'), std::string::npos);
  EXPECT_NE(a.find('a'), std::string::npos);
}

TEST_F(PricedAdmissionTest, LedgerDecaysBackToAdmittingOnZipfTraffic) {
  auto tier = BuildTier(/*cache=*/true);
  const std::string uniform = Replay(*tier, NonRepeating(41, 1200));
  ASSERT_GT(SkipShare(uniform, uniform.size() / 2), 0.9);
  std::vector<bool> skipping;
  for (const auto& row : tier->result_cache()->GetStats().buckets) {
    skipping.push_back(!row.overfetch);
  }
  const std::string zipf = Replay(*tier, ZipfTemplates(7, 64, 3000));
  // The phase's tail admits again.
  EXPECT_LT(SkipShare(zipf, zipf.size() * 2 / 3), 0.25) << zipf;
  // And a bucket the non-repeating phase had priced at "skip" now reads
  // "overfetch": its decayed serves/admits followed the traffic.
  const auto buckets = tier->result_cache()->GetStats().buckets;
  bool flipped = false;
  for (size_t b = 0; b < buckets.size(); ++b) {
    flipped = flipped || (skipping[b] && buckets[b].overfetch);
  }
  EXPECT_TRUE(flipped);
}

}  // namespace
}  // namespace ir2
