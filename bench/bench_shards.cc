// Sharded serving tier: throughput and tail latency vs shard count
// (docs/serving.md). For each shard count, a warm ShardedDatabase is served
// by a ServerLoop worker pool under two workloads — query points uniform
// over the world, and a Zipf hot-region mix where most queries hit one
// small region (the skew FAST-style serving layers are designed for). Also
// re-checks, per shard count, that scatter-gather answers are identical to
// a single database over the same objects.
//
//   bench_shards [--smoke] [--algo=ir2|auto|...]
//
// Writes BENCH_shards.json into the working directory.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "datagen/zipf.h"
#include "serving/server_loop.h"
#include "serving/sharded_database.h"
#include "storage/disk_model.h"

namespace ir2 {
namespace bench {
namespace {

struct RunConfig {
  bool smoke = false;
  Algo algo = Algo::kIr2;
  std::vector<uint64_t> shard_counts = {1, 2, 4, 8};
  uint32_t num_queries = 600;   // Per workload, per shard count.
  uint32_t golden_queries = 40; // Compared against the single database.
  size_t num_workers = 4;
};

struct WorkloadResult {
  std::string workload;
  uint64_t shards = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_fanout = 0;
  uint64_t pruned_legs = 0;
  uint64_t golden_mismatches = 0;
  // Simulated tier throughput under the repo's DiskModel: one disk per
  // shard, each query occupying every touched shard's disk for that leg's
  // demand I/O priced by the model, tier capacity bottlenecked by the
  // most-loaded shard. This is the scaling figure — wall-clock qps above
  // measures one machine's worker pool, not the tier.
  double sim_qps = 0;
  // Fraction of total simulated disk time landing on the hottest shard
  // (1/shards = perfectly balanced; →1 under a hot region).
  double hot_shard_share = 0;
  // p99 over queries of the simulated tier latency: the slowest executed
  // leg's DiskModel-priced demand I/O (legs run in parallel, one disk per
  // shard). A pure function of the workload and the data, so the tail
  // acceptance below is deterministic, unlike the wall-clock p99_ms.
  double sim_p99_ms = 0;
};

// Nearest-rank quantile.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

// Zipf hot-region traffic: query points cluster around a handful of region
// centers, region popularity Zipf-distributed — a few regions absorb most
// of the load while the data stays where it is.
std::vector<DistanceFirstQuery> MakeHotRegionWorkload(
    const std::vector<DistanceFirstQuery>& base,
    const std::vector<StoredObject>& objects, uint32_t num_regions,
    double jitter) {
  Rng rng(97);
  ZipfSampler region_sampler(num_regions, /*s=*/1.2);
  std::vector<Point> centers;
  centers.reserve(num_regions);
  for (uint32_t r = 0; r < num_regions; ++r) {
    const StoredObject& anchor =
        objects[rng.NextUint64(objects.size())];
    centers.push_back(Point(anchor.coords));
  }
  std::vector<DistanceFirstQuery> workload = base;
  for (DistanceFirstQuery& q : workload) {
    const Point& center = centers[region_sampler.Sample(rng)];
    q.point = Point(center[0] + rng.NextGaussian() * jitter,
                    center[1] + rng.NextGaussian() * jitter);
  }
  return workload;
}

uint64_t CountGoldenMismatches(serving::ShardedDatabase& sharded,
                               SpatialKeywordDatabase& single, Algo algo,
                               std::vector<DistanceFirstQuery> queries) {
  uint64_t mismatches = 0;
  for (const DistanceFirstQuery& q : queries) {
    auto expected = single.Query(q, algo);
    auto actual = sharded.Query(q, algo);
    IR2_CHECK(expected.ok()) << expected.status().ToString();
    IR2_CHECK(actual.ok()) << actual.status().ToString();
    std::vector<QueryResult> want = std::move(expected).value();
    std::sort(want.begin(), want.end(),
              [](const QueryResult& a, const QueryResult& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                return a.object_id < b.object_id;
              });
    const std::vector<QueryResult>& got = actual.value();
    if (got.size() != want.size()) {
      ++mismatches;
      continue;
    }
    for (size_t i = 0; i < want.size(); ++i) {
      if (got[i].object_id != want[i].object_id ||
          got[i].distance != want[i].distance) {
        ++mismatches;
        break;
      }
    }
  }
  return mismatches;
}

WorkloadResult ServeWorkload(serving::ShardedDatabase& sharded,
                             const std::vector<DistanceFirstQuery>& queries,
                             const RunConfig& config,
                             const DatabaseOptions& options,
                             const char* name) {
  serving::ServerLoopOptions loop_options;
  loop_options.num_workers = config.num_workers;
  loop_options.queue_capacity = queries.size() + 1;  // No shedding measured.
  loop_options.algorithm = config.algo;
  serving::ServerLoop loop(&sharded, loop_options);

  LatencyHistogram latency;
  std::atomic<uint64_t> fanout_legs{0};
  std::atomic<uint64_t> pruned_legs{0};
  Stopwatch watch;
  for (const DistanceFirstQuery& q : queries) {
    auto admission = loop.Submit(
        "bench", q,
        [&](StatusOr<std::vector<QueryResult>> results,
            const QueryStats& stats) {
          IR2_CHECK(results.ok()) << results.status().ToString();
          latency.Record(stats.seconds * 1000.0);
          fanout_legs.fetch_add(stats.shards_queried);
          pruned_legs.fetch_add(stats.shards_pruned);
        });
    IR2_CHECK(admission.outcome ==
              serving::ServerLoop::Admission::Outcome::kAdmitted);
  }
  loop.Drain();
  const double elapsed = watch.ElapsedSeconds();
  loop.Stop();

  WorkloadResult result;
  result.workload = name;
  result.shards = sharded.num_shards();
  result.qps = static_cast<double>(queries.size()) / elapsed;
  result.p50_ms = latency.P50();
  result.p99_ms = latency.P99();
  result.mean_fanout = static_cast<double>(fanout_legs.load()) /
                       static_cast<double>(queries.size());
  result.pruned_legs = pruned_legs.load();

  // Simulated tier throughput: replay the workload through Explain to get
  // per-shard legs, price each executed leg's demand I/O (invariant to pool
  // state; on this warm tier it leaves out the node reads the decoded-node
  // caches absorbed) with the DiskModel, and bottleneck on the most-loaded
  // shard's disk. A query's simulated tier latency is its slowest leg.
  const DiskModel model(options.disk_model);
  std::vector<double> shard_load_ms(sharded.num_shards(), 0.0);
  std::vector<double> tier_ms;
  tier_ms.reserve(queries.size());
  for (const DistanceFirstQuery& q : queries) {
    auto explain = sharded.Explain(q, config.algo);
    IR2_CHECK(explain.ok()) << explain.status().ToString();
    double slowest_leg_ms = 0;
    for (const serving::ShardLeg& leg : explain.value().legs) {
      if (leg.pruned) continue;
      const double ms = model.Ms(leg.stats.demand_io);
      shard_load_ms[leg.shard] += ms;
      slowest_leg_ms = std::max(slowest_leg_ms, ms);
    }
    tier_ms.push_back(slowest_leg_ms);
  }
  result.sim_p99_ms = Quantile(std::move(tier_ms), 0.99);
  double total_ms = 0;
  double max_ms = 0;
  for (double ms : shard_load_ms) {
    total_ms += ms;
    max_ms = std::max(max_ms, ms);
  }
  IR2_CHECK(max_ms > 0.0);
  result.sim_qps = static_cast<double>(queries.size()) * 1000.0 / max_ms;
  result.hot_shard_share = max_ms / total_ms;
  return result;
}

void WriteJson(const RunConfig& config, size_t num_objects,
               const std::vector<WorkloadResult>& results, bool scales,
               bool zipf_p99_ok, bool pruned_on_skewed,
               uint64_t total_mismatches) {
  FILE* f = std::fopen("BENCH_shards.json", "w");
  IR2_CHECK(f != nullptr);
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"shards\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", config.smoke ? "true" : "false");
  std::fprintf(f, "  \"algo\": \"%s\",\n", AlgorithmName(config.algo));
  std::fprintf(f, "  \"num_objects\": %zu,\n", num_objects);
  std::fprintf(f, "  \"num_workers\": %zu,\n", config.num_workers);
  std::fprintf(f, "  \"queries_per_point\": %u,\n", config.num_queries);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    std::fprintf(f,
                 "    {\"shards\": %llu, \"workload\": \"%s\", "
                 "\"sim_tier_qps\": %.4g, \"hot_shard_share\": %.3f, "
                 "\"sim_p99_ms\": %.4f, "
                 "\"measured_qps\": %.1f, \"p50_ms\": %.4f, "
                 "\"p99_ms\": %.4f, \"mean_fanout\": %.2f, "
                 "\"pruned_legs\": %llu, \"golden_mismatches\": %llu}%s\n",
                 static_cast<unsigned long long>(r.shards),
                 r.workload.c_str(), r.sim_qps, r.hot_shard_share,
                 r.sim_p99_ms, r.qps,
                 r.p50_ms, r.p99_ms, r.mean_fanout,
                 static_cast<unsigned long long>(r.pruned_legs),
                 static_cast<unsigned long long>(r.golden_mismatches),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"acceptance\": {\n");
  std::fprintf(f, "    \"golden_mismatches\": %llu,\n",
               static_cast<unsigned long long>(total_mismatches));
  std::fprintf(f, "    \"throughput_scales_with_shards\": %s,\n",
               scales ? "true" : "false");
  std::fprintf(f, "    \"zipf_p99_no_worse_than_single_shard\": %s,\n",
               zipf_p99_ok ? "true" : "false");
  std::fprintf(f, "    \"pruned_fanouts_on_skewed\": %s,\n",
               pruned_on_skewed ? "true" : "false");
  std::fprintf(f, "    \"pass\": %s\n",
               total_mismatches == 0 && pruned_on_skewed ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_shards.json\n");
}

int Main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      config.smoke = true;
    } else if (std::strncmp(argv[i], "--algo=", 7) == 0) {
      IR2_CHECK(ParseAlgorithm(argv[i] + 7, &config.algo))
          << "unknown --algo " << (argv[i] + 7);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--algo=NAME]\n", argv[0]);
      return 2;
    }
  }
  if (config.smoke) {
    config.shard_counts = {1, 2, 4};
    config.num_queries = 150;
    config.golden_queries = 20;
  }

  // Warm serving regime: the server answers from resident structures, the
  // way a long-lived service does (cold per-query figures are
  // bench_cold_latency's job).
  DatabaseOptions options = DefaultOptions(kRestaurantsSignatureBytes);
  options.cold_queries = false;
  const double scale_multiplier = config.smoke ? 0.1 : 1.0;
  const double scale = DatasetScale(kDefaultScale) * scale_multiplier;
  SyntheticConfig dataset_config = RestaurantsLikeConfig(scale);
  Stopwatch build_watch;
  std::vector<StoredObject> objects = GenerateDataset(dataset_config);
  std::fprintf(stderr, "[shards] generated %zu objects in %.1fs\n",
               objects.size(), build_watch.ElapsedSeconds());
  build_watch.Reset();
  auto single = SpatialKeywordDatabase::Build(objects, options);
  IR2_CHECK(single.ok()) << single.status().ToString();
  std::fprintf(stderr, "[shards] built single-database golden in %.1fs\n",
               build_watch.ElapsedSeconds());

  // Single-keyword, frequency-weighted queries: matches are dense, so the
  // global k-th distance is a tight radius and far shards actually prune.
  // (Multi-keyword conjunctions have sparse matches whose k-th radius spans
  // shards; bench_fig10/13 cover that regime.)
  WorkloadConfig workload_config;
  workload_config.seed = 13;
  workload_config.num_queries = config.num_queries;
  workload_config.num_keywords = 1;
  workload_config.k = 10;
  std::vector<DistanceFirstQuery> uniform = GenerateWorkload(
      objects, single.value()->tokenizer(), workload_config);
  const double world_extent =
      dataset_config.world_max - dataset_config.world_min;
  std::vector<DistanceFirstQuery> zipf_hot = MakeHotRegionWorkload(
      uniform, objects, /*num_regions=*/16, /*jitter=*/world_extent * 0.01);

  std::vector<WorkloadResult> results;
  uint64_t total_mismatches = 0;
  for (uint64_t shards : config.shard_counts) {
    serving::ShardingOptions sharding;
    sharding.num_shards = shards;
    // Every structure: --algo may name any fixed algorithm (IR2 by
    // default).
    sharding.structures = kAllIndexes;
    build_watch.Reset();
    auto sharded =
        serving::ShardedDatabase::Build(objects, options, sharding);
    IR2_CHECK(sharded.ok()) << sharded.status().ToString();
    std::fprintf(stderr, "[shards] built %llu-shard database in %.1fs\n",
                 static_cast<unsigned long long>(shards),
                 build_watch.ElapsedSeconds());

    const uint64_t mismatches = CountGoldenMismatches(
        *sharded.value(), *single.value(), config.algo,
        {uniform.begin(), uniform.begin() + config.golden_queries});
    total_mismatches += mismatches;
    IR2_CHECK(mismatches == 0)
        << shards << "-shard results diverged from the single database";

    WorkloadResult u =
        ServeWorkload(*sharded.value(), uniform, config, options, "uniform");
    u.golden_mismatches = mismatches;
    results.push_back(u);
    results.push_back(ServeWorkload(*sharded.value(), zipf_hot, config,
                                    options, "zipf_hot"));
  }

  // Figure tables: one row per workload, one column per shard count.
  std::vector<std::string> x_names;
  for (uint64_t shards : config.shard_counts) {
    x_names.push_back(std::to_string(shards));
  }
  FigurePrinter sim_figure(
      "Simulated tier throughput (queries/s, one DiskModel disk per shard)",
      "shards", x_names);
  FigurePrinter hot_figure("Hottest shard's share of simulated disk time",
                           "shards", x_names);
  FigurePrinter qps_figure("Measured worker-pool throughput (queries/s)",
                           "shards", x_names);
  FigurePrinter sim_p99_figure(
      "Simulated tier p99 (sim ms/query, slowest leg's demand I/O)", "shards",
      x_names);
  FigurePrinter p99_figure("Service p99 (ms/query)", "shards", x_names);
  FigurePrinter fanout_figure("Mean shard fan-out (legs/query)", "shards",
                              x_names);
  FigurePrinter pruned_figure("Pruned shard legs (total)", "shards", x_names);
  for (const char* workload : {"uniform", "zipf_hot"}) {
    std::vector<double> sim, hot, sim_p99, qps, p99, fanout, pruned;
    for (const WorkloadResult& r : results) {
      if (r.workload != workload) continue;
      sim.push_back(r.sim_qps);
      hot.push_back(r.hot_shard_share);
      sim_p99.push_back(r.sim_p99_ms);
      qps.push_back(r.qps);
      p99.push_back(r.p99_ms);
      fanout.push_back(r.mean_fanout);
      pruned.push_back(static_cast<double>(r.pruned_legs));
    }
    sim_figure.AddRow(workload, sim, "%12.1f");
    hot_figure.AddRow(workload, hot, "%12.2f");
    sim_p99_figure.AddRow(workload, sim_p99, "%12.2f");
    qps_figure.AddRow(workload, qps, "%12.0f");
    p99_figure.AddRow(workload, p99, "%12.4f");
    fanout_figure.AddRow(workload, fanout, "%12.2f");
    pruned_figure.AddRow(workload, pruned, "%12.0f");
  }
  sim_figure.Print();
  hot_figure.Print();
  sim_p99_figure.Print();
  qps_figure.Print();
  p99_figure.Print();
  fanout_figure.Print();
  pruned_figure.Print();

  // Acceptance (docs/serving.md): simulated tier throughput must grow with
  // the shard count on uniform traffic, the hot-region simulated tier p99
  // must stay no worse than single-shard (the wall-clock p99s of a few
  // hundred queries on a shared host flip run to run, so they are reported,
  // not gated), and the pruner must actually fire on the skew.
  double sim_one_uniform = 0, sim_max_uniform = 0;
  double p99_one = 0, p99_max = 0;
  uint64_t pruned_max_skewed = 0;
  for (const WorkloadResult& r : results) {
    if (r.workload == "uniform") {
      if (r.shards == config.shard_counts.front()) sim_one_uniform = r.sim_qps;
      if (r.shards == config.shard_counts.back()) sim_max_uniform = r.sim_qps;
    } else {
      if (r.shards == config.shard_counts.front()) p99_one = r.sim_p99_ms;
      if (r.shards == config.shard_counts.back()) {
        p99_max = r.sim_p99_ms;
        pruned_max_skewed = r.pruned_legs;
      }
    }
  }
  const bool scales = sim_max_uniform > sim_one_uniform;
  const bool zipf_p99_ok = p99_max <= p99_one * 1.10;
  const bool pruned_on_skewed = pruned_max_skewed > 0;
  std::printf("\nacceptance: mismatches=%llu scales=%s zipf_p99_ok=%s "
              "(sim p99 %.2f -> %.2f ms) pruned_on_skewed=%s\n",
              static_cast<unsigned long long>(total_mismatches),
              scales ? "PASS" : "FAIL", zipf_p99_ok ? "PASS" : "FAIL",
              p99_one, p99_max, pruned_on_skewed ? "PASS" : "FAIL");

  WriteJson(config, objects.size(), results, scales, zipf_p99_ok,
            pruned_on_skewed, total_mismatches);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ir2

int main(int argc, char** argv) { return ir2::bench::Main(argc, argv); }
