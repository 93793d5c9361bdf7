// Semantic result cache: throughput ablation under Zipf hot traffic
// (docs/performance.md, result-cache chapter). A warm sharded tier serves a
// skewed workload — a small pool of keyword-set templates with Zipf
// popularity, queries repeating a template's point exactly or perturbing it
// slightly — once with the cache off and once with it on, at each shard
// count. The cache answers repeats and provably-coverable perturbations
// above the scatter-gather, so a hit costs zero shard disk time; the
// simulated tier throughput (DiskModel, bottlenecked on the most-loaded
// shard) is the ablation figure. A second, non-repeating workload (uniform
// points, one keyword of a random object each) prices what the cache costs
// when nothing repeats: its admission rule must stop over-fetching, so the
// cache-on tier keeps at least 0.9x the cache-off simulated throughput.
// Every answer, cached or not, is compared against an uncached single
// database over the same objects.
//
//   bench_cache [--smoke]
//
// Writes BENCH_cache.json into the working directory.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "datagen/zipf.h"
#include "serving/result_cache.h"
#include "serving/server_loop.h"
#include "serving/sharded_database.h"
#include "storage/disk_model.h"

namespace ir2 {
namespace bench {
namespace {

struct RunConfig {
  bool smoke = false;
  std::vector<uint64_t> shard_counts = {2, 4};
  uint32_t num_templates = 32;  // Distinct (keyword set, anchor) pairs.
  uint32_t num_queries = 600;   // Per cache setting, per shard count.
  size_t num_workers = 4;
  // Fraction of traffic repeating a template verbatim (exact-prefix hits);
  // the rest perturbs the query point (triangle-inequality hits or misses)
  // and draws k' <= k (prefix reuse).
  double exact_fraction = 0.6;
  double jitter_fraction = 0.002;  // Of the world extent.
  double zipf_s = 1.2;
};

struct RunResult {
  const char* workload = "zipf";
  uint64_t shards = 0;
  bool cache_on = false;
  // Simulated tier throughput (the ablation figure): per-query executed-leg
  // demand I/O priced by the DiskModel, tier bottlenecked on the
  // most-loaded shard's disk. Cache hits contribute no legs.
  double sim_qps = 0;
  double hot_shard_ms = 0;
  double measured_qps = 0;  // One machine's worker pool, wall clock.
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t hits = 0;
  uint64_t near_hits = 0;
  uint64_t misses = 0;
  uint64_t skipped = 0;  // Misses the admission rule ran at k.
  double hit_rate = 0;
  uint64_t golden_mismatches = 0;
};

// Zipf-hot traffic over a template pool: popular keyword sets recur, mostly
// at their anchor point, sometimes nearby with a smaller k.
std::vector<DistanceFirstQuery> MakeTraffic(
    const std::vector<DistanceFirstQuery>& templates, const RunConfig& config,
    double world_extent) {
  Rng rng(41);
  ZipfSampler sampler(templates.size(), config.zipf_s);
  const double jitter = world_extent * config.jitter_fraction;
  std::vector<DistanceFirstQuery> traffic;
  traffic.reserve(config.num_queries);
  for (uint32_t i = 0; i < config.num_queries; ++i) {
    DistanceFirstQuery q = templates[sampler.Sample(rng)];
    if (rng.NextDouble() >= config.exact_fraction) {
      q.point = Point(q.point[0] + rng.NextGaussian() * jitter,
                      q.point[1] + rng.NextGaussian() * jitter);
      q.k = static_cast<uint32_t>(
          1 + rng.NextUint64(q.k));  // k' in [1, k]: prefix reuse.
    }
    traffic.push_back(std::move(q));
  }
  return traffic;
}

bool SameAnswer(const std::vector<QueryResult>& got,
                std::vector<QueryResult> want) {
  std::sort(want.begin(), want.end(),
            [](const QueryResult& a, const QueryResult& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.object_id < b.object_id;
            });
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i].object_id != want[i].object_id ||
        got[i].distance != want[i].distance) {
      return false;
    }
  }
  return true;
}

RunResult RunOne(serving::ShardedDatabase& sharded,
                 SpatialKeywordDatabase& single,
                 const std::vector<DistanceFirstQuery>& traffic,
                 const RunConfig& config, const DatabaseOptions& options,
                 bool cache_on) {
  RunResult result;
  result.shards = sharded.num_shards();
  result.cache_on = cache_on;

  // Replay pass (sequential, starting from an empty cache when on): price
  // every executed shard leg's demand I/O with the DiskModel — a cache hit
  // produces no legs — and compare every answer, cached or planned, to the
  // uncached single database.
  const DiskModel model(options.disk_model);
  std::vector<double> shard_load_ms(sharded.num_shards(), 0.0);
  for (const DistanceFirstQuery& q : traffic) {
    auto explain = sharded.Explain(q, Algorithm::kAuto);
    IR2_CHECK(explain.ok()) << explain.status().ToString();
    for (const serving::ShardLeg& leg : explain.value().legs) {
      if (leg.pruned) continue;
      shard_load_ms[leg.shard] += model.Ms(leg.stats.demand_io);
    }
    auto golden = single.Query(q, Algorithm::kAuto);
    IR2_CHECK(golden.ok()) << golden.status().ToString();
    if (!SameAnswer(explain.value().results, std::move(golden).value())) {
      ++result.golden_mismatches;
    }
  }
  double total_ms = 0;
  for (double ms : shard_load_ms) {
    total_ms += ms;
    result.hot_shard_ms = std::max(result.hot_shard_ms, ms);
  }
  IR2_CHECK(result.hot_shard_ms > 0.0);
  result.sim_qps =
      static_cast<double>(traffic.size()) * 1000.0 / result.hot_shard_ms;

  // Wall-clock pass through the worker pool (cache now warm: steady state).
  serving::ServerLoopOptions loop_options;
  loop_options.num_workers = config.num_workers;
  loop_options.queue_capacity = traffic.size() + 1;
  loop_options.algorithm = Algorithm::kAuto;
  serving::ServerLoop loop(&sharded, loop_options);
  LatencyHistogram latency;
  std::mutex latency_mu;
  Stopwatch watch;
  for (const DistanceFirstQuery& q : traffic) {
    auto admission = loop.Submit(
        "bench", q,
        [&](StatusOr<std::vector<QueryResult>> results, const QueryStats& s) {
          IR2_CHECK(results.ok()) << results.status().ToString();
          std::lock_guard<std::mutex> lock(latency_mu);
          latency.Record(s.seconds * 1000.0);
        });
    IR2_CHECK(admission.outcome ==
              serving::ServerLoop::Admission::Outcome::kAdmitted);
  }
  loop.Drain();
  const double elapsed = watch.ElapsedSeconds();
  loop.Stop();
  result.measured_qps = static_cast<double>(traffic.size()) / elapsed;
  result.p50_ms = latency.P50();
  result.p99_ms = latency.P99();

  if (cache_on) {
    const serving::ResultCache::Stats stats =
        sharded.result_cache()->GetStats();
    result.hits = stats.hits;
    result.near_hits = stats.near_hits;
    result.misses = stats.misses;
    result.skipped = stats.skipped;
    result.hit_rate = stats.HitRate();
  }
  return result;
}

void WriteJson(const RunConfig& config, size_t num_objects,
               const std::vector<RunResult>& results, double min_speedup,
               double min_no_repeat_ratio, uint64_t total_mismatches) {
  const bool speedup_ok = min_speedup >= 1.5;
  const bool no_repeat_ok = min_no_repeat_ratio >= 0.9;
  FILE* f = std::fopen("BENCH_cache.json", "w");
  IR2_CHECK(f != nullptr);
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"cache\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", config.smoke ? "true" : "false");
  std::fprintf(f, "  \"num_objects\": %zu,\n", num_objects);
  std::fprintf(f, "  \"num_templates\": %u,\n", config.num_templates);
  std::fprintf(f, "  \"queries_per_run\": %u,\n", config.num_queries);
  std::fprintf(f, "  \"exact_fraction\": %.2f,\n", config.exact_fraction);
  std::fprintf(f, "  \"zipf_s\": %.2f,\n", config.zipf_s);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"shards\": %llu, "
                 "\"cache\": \"%s\", "
                 "\"sim_tier_qps\": %.1f, \"measured_qps\": %.1f, "
                 "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"hits\": %llu, "
                 "\"near_hits\": %llu, \"misses\": %llu, "
                 "\"skipped\": %llu, "
                 "\"hit_rate\": %.3f, \"golden_mismatches\": %llu}%s\n",
                 r.workload, static_cast<unsigned long long>(r.shards),
                 r.cache_on ? "on" : "off", r.sim_qps, r.measured_qps,
                 r.p50_ms, r.p99_ms, static_cast<unsigned long long>(r.hits),
                 static_cast<unsigned long long>(r.near_hits),
                 static_cast<unsigned long long>(r.misses),
                 static_cast<unsigned long long>(r.skipped), r.hit_rate,
                 static_cast<unsigned long long>(r.golden_mismatches),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"acceptance\": {\n");
  std::fprintf(f, "    \"golden_mismatches\": %llu,\n",
               static_cast<unsigned long long>(total_mismatches));
  std::fprintf(f, "    \"min_speedup\": %.2f,\n", min_speedup);
  std::fprintf(f, "    \"speedup_at_least_1_5x\": %s,\n",
               speedup_ok ? "true" : "false");
  std::fprintf(f, "    \"no_repeat_min_ratio\": %.2f,\n", min_no_repeat_ratio);
  std::fprintf(f, "    \"no_repeat_sim_qps_at_least_0_9x\": %s,\n",
               no_repeat_ok ? "true" : "false");
  std::fprintf(f, "    \"pass\": %s\n",
               total_mismatches == 0 && speedup_ok && no_repeat_ok ? "true"
                                                                   : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_cache.json\n");
}

int Main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      config.smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }
  if (config.smoke) {
    config.shard_counts = {2};
    config.num_templates = 16;
    config.num_queries = 200;
  }

  // Warm serving regime (the cache lives in a long-lived tier); the cold
  // per-query figures are bench_cold_latency's job.
  DatabaseOptions options = DefaultOptions(kRestaurantsSignatureBytes);
  options.cold_queries = false;
  const double scale_multiplier = config.smoke ? 0.1 : 1.0;
  const double scale = DatasetScale(kDefaultScale) * scale_multiplier;
  SyntheticConfig dataset_config = RestaurantsLikeConfig(scale);
  Stopwatch build_watch;
  std::vector<StoredObject> objects = GenerateDataset(dataset_config);
  std::fprintf(stderr, "[cache] generated %zu objects in %.1fs\n",
               objects.size(), build_watch.ElapsedSeconds());
  build_watch.Reset();
  auto single = SpatialKeywordDatabase::Build(objects, options);
  IR2_CHECK(single.ok()) << single.status().ToString();
  std::fprintf(stderr, "[cache] built single-database golden in %.1fs\n",
               build_watch.ElapsedSeconds());

  // Single-keyword templates: matches are dense, so the over-fetched ball
  // around the anchor has a radius that actually covers small perturbations.
  WorkloadConfig workload_config;
  workload_config.seed = 13;
  workload_config.num_queries = config.num_templates;
  workload_config.num_keywords = 1;
  workload_config.k = 10;
  std::vector<DistanceFirstQuery> templates = GenerateWorkload(
      objects, single.value()->tokenizer(), workload_config);
  const double world_extent =
      dataset_config.world_max - dataset_config.world_min;
  std::vector<DistanceFirstQuery> traffic =
      MakeTraffic(templates, config, world_extent);
  // Non-repeating traffic: a uniform point and one keyword drawn from a
  // random object per request, so almost no answer is ever reused.
  WorkloadConfig uniform_config;
  uniform_config.seed = 17;
  uniform_config.num_queries = config.num_queries;
  uniform_config.num_keywords = 1;
  uniform_config.k = 10;
  const std::vector<DistanceFirstQuery> uniform_traffic = GenerateWorkload(
      objects, single.value()->tokenizer(), uniform_config);

  std::vector<RunResult> results;
  uint64_t total_mismatches = 0;
  double min_speedup = 0.0;
  double min_no_repeat_ratio = 0.0;
  for (uint64_t shards : config.shard_counts) {
    serving::ShardingOptions sharding;
    sharding.num_shards = shards;
    // Every structure, as in the single-database reference, so the tier's
    // planners arbitrate the same five candidates.
    sharding.structures = kAllIndexes;
    build_watch.Reset();
    auto sharded = serving::ShardedDatabase::Build(objects, options, sharding);
    IR2_CHECK(sharded.ok()) << sharded.status().ToString();
    std::fprintf(stderr, "[cache] built %llu-shard database in %.1fs\n",
                 static_cast<unsigned long long>(shards),
                 build_watch.ElapsedSeconds());

    RunResult off = RunOne(*sharded.value(), *single.value(), traffic, config,
                           options, /*cache_on=*/false);
    sharded.value()->EnableResultCache();
    RunResult on = RunOne(*sharded.value(), *single.value(), traffic, config,
                          options, /*cache_on=*/true);
    total_mismatches += off.golden_mismatches + on.golden_mismatches;
    const double speedup = on.sim_qps / off.sim_qps;
    min_speedup = min_speedup == 0.0 ? speedup : std::min(min_speedup, speedup);
    std::printf(
        "shards=%llu  sim qps off=%.1f on=%.1f (%.2fx)  hit rate=%.2f "
        "(%llu hits, %llu near, %llu misses)  mismatches=%llu\n",
        static_cast<unsigned long long>(shards), off.sim_qps, on.sim_qps,
        speedup, on.hit_rate, static_cast<unsigned long long>(on.hits),
        static_cast<unsigned long long>(on.near_hits),
        static_cast<unsigned long long>(on.misses),
        static_cast<unsigned long long>(off.golden_mismatches +
                                        on.golden_mismatches));
    results.push_back(off);
    results.push_back(on);

    // The non-repeating row, from a fresh cache: what the cache costs when
    // nothing it stores is ever reused.
    sharded.value()->DisableResultCache();
    RunResult uniform_off =
        RunOne(*sharded.value(), *single.value(), uniform_traffic, config,
               options, /*cache_on=*/false);
    sharded.value()->EnableResultCache();
    RunResult uniform_on =
        RunOne(*sharded.value(), *single.value(), uniform_traffic, config,
               options, /*cache_on=*/true);
    uniform_off.workload = uniform_on.workload = "uniform";
    total_mismatches +=
        uniform_off.golden_mismatches + uniform_on.golden_mismatches;
    const double ratio = uniform_on.sim_qps / uniform_off.sim_qps;
    min_no_repeat_ratio = min_no_repeat_ratio == 0.0
                              ? ratio
                              : std::min(min_no_repeat_ratio, ratio);
    std::printf(
        "shards=%llu  non-repeating sim qps off=%.1f on=%.1f (%.2fx)  "
        "%llu of %llu misses skipped over-fetch  mismatches=%llu\n",
        static_cast<unsigned long long>(shards), uniform_off.sim_qps,
        uniform_on.sim_qps, ratio,
        static_cast<unsigned long long>(uniform_on.skipped),
        static_cast<unsigned long long>(uniform_on.misses),
        static_cast<unsigned long long>(uniform_off.golden_mismatches +
                                        uniform_on.golden_mismatches));
    results.push_back(uniform_off);
    results.push_back(uniform_on);
  }

  std::vector<std::string> x_names;
  for (uint64_t shards : config.shard_counts) {
    x_names.push_back(std::to_string(shards));
  }
  FigurePrinter sim_figure(
      "Simulated tier throughput (queries/s, one DiskModel disk per shard)",
      "shards", x_names);
  FigurePrinter p99_figure("Service p99 (ms/query)", "shards", x_names);
  for (const bool on : {false, true}) {
    std::vector<double> sim, p99;
    for (const RunResult& r : results) {
      if (r.cache_on != on || std::strcmp(r.workload, "zipf") != 0) continue;
      sim.push_back(r.sim_qps);
      p99.push_back(r.p99_ms);
    }
    sim_figure.AddRow(on ? "cache on" : "cache off", sim, "%12.1f");
    p99_figure.AddRow(on ? "cache on" : "cache off", p99, "%12.4f");
  }
  sim_figure.Print();
  p99_figure.Print();

  const bool pass = min_speedup >= 1.5 && min_no_repeat_ratio >= 0.9 &&
                    total_mismatches == 0;
  std::printf(
      "\nacceptance: mismatches=%llu min_speedup=%.2fx "
      "non-repeating on/off=%.2fx (%s)\n",
      static_cast<unsigned long long>(total_mismatches), min_speedup,
      min_no_repeat_ratio, pass ? "PASS" : "FAIL");
  WriteJson(config, objects.size(), results, min_speedup, min_no_repeat_ratio,
            total_mismatches);
  return total_mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace ir2

int main(int argc, char** argv) { return ir2::bench::Main(argc, argv); }
