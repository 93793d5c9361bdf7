// Concurrent query throughput (queries/second) of the BatchExecutor over
// one shared read-only database — IR2 and MIR2 by default, any algorithm
// with --algo — at 1, 2, 4 and 8 worker threads.
//
// Two regimes (--regime=cold|warm, see docs/performance.md):
//
//   cold (default) — every query starts from a cold disk: worker pools are
//   Clear()ed and the decoded-node cache dropped before each query, the
//   paper's measurement regime. Three properties are measured:
//     1. Scaling — batch wall-clock time and q/s per thread count.
//     2. Determinism — every per-query disk-access profile (random and
//        sequential reads, objects loaded, nodes visited) must be identical
//        at every thread count; a mismatch count flags the figure otherwise.
//     3. Cache traffic — each worker pool's hit/miss/eviction counters are
//        summed per thread count.
//
//   warm — the serving regime: worker pools stay hot across queries and
//   every tree carries a NodeCache (decoded nodes, inner levels pinned), so
//   steady-state throughput is measured instead of per-query disk cost.
//   Per-query profiles depend on cache state, so the determinism check is
//   skipped.
//
// Results are printed as a figure table and written to
// BENCH_throughput.json (cold) or BENCH_throughput_warm.json (warm) in the
// working directory. --smoke shrinks the workload to a few seconds for
// scripts/check.sh.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/batch_executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtree/node_cache.h"
#include "serving/admin_server.h"

namespace ir2 {
namespace bench {
namespace {

struct RunConfig {
  bool warm = false;
  bool smoke = false;
  std::string trace_path;  // --trace=FILE: write a Chrome trace here.
  // --admin-port=N: serve /metrics, /healthz, /statusz for the duration of
  // the run (live inspection; check.sh curls it mid-bench), holding the
  // process open --admin-hold-ms after the figures so a scraper racing the
  // run's tail still connects.
  int admin_port = -1;
  int admin_hold_ms = 0;
  // --algo=NAME: run one algorithm (auto plans per query) instead of the
  // default IR2/MIR2 pair.
  bool has_algo = false;
  Algo algo = Algo::kAuto;
  // --device=file: Save the built database to a real directory and re-Open
  // it on FileBlockDevices (O_DIRECT requested), so every physical block
  // read below actually hits the filesystem. The mode measures
  // FileBlockDevice only: BatchExecutor runs with prefetch off, so no
  // AsyncIoBackend would ever receive a request (file_device_async_test
  // covers the backend). The
  // simulated-time accounting is medium-independent (the cold-regime
  // regression pins that), so this mode puts real wall-clock next to the
  // simulated disk milliseconds the figures report.
  bool file_device = false;
};

struct ThroughputPoint {
  size_t threads = 0;
  double seconds = 0;
  double qps = 0;
  double speedup = 1.0;
  double sim_disk_ms = 0;  // Modeled disk time, summed over the batch.
  double p50_ms = 0;      // Per-query latency inside the workers.
  double p95_ms = 0;
  BufferPoolStats pool;   // Worker pools, summed over the batch.
  NodeCacheStats cache;   // Decoded-node cache (warm regime only).
};

struct TreeSeries {
  const char* tree = nullptr;
  std::vector<ThroughputPoint> points;
  size_t profile_mismatches = 0;
  double serial_mean_ms = 0;      // db.QueryXxx loop, the seed's code path.
  double batch1_mean_ms = 0;      // BatchExecutor at one thread.
};

bool SameProfile(const QueryStats& a, const QueryStats& b) {
  return a.objects_loaded == b.objects_loaded &&
         a.false_positives == b.false_positives &&
         a.nodes_visited == b.nodes_visited &&
         a.entries_pruned == b.entries_pruned && a.io == b.io;
}

// One series: the BatchExecutor over `algo` (auto plans per query) at each
// thread count, next to the serial db.Query loop on the same workload.
TreeSeries RunSeries(SpatialKeywordDatabase& db, Algo algo,
                     const std::vector<DistanceFirstQuery>& queries,
                     const RunConfig& config,
                     const std::vector<size_t>& thread_counts) {
  TreeSeries series;
  series.tree = AlgoName(algo);

  // Auto plans from feedback-corrected costs; start each series (and each
  // thread point, below) from the static model so every point makes the
  // same decisions and the determinism check stays meaningful.
  if (algo == Algo::kAuto) db.planner()->feedback().Reset();
  // Serial reference on the database's own (shared-pool) path, so the
  // single-thread latency is visible next to the batch numbers.
  AlgoResult serial = RunWorkload(db, algo, queries);
  series.serial_mean_ms = serial.ms;

  // Warm regime: a decoded-node cache on every tree, inner levels pinned.
  const std::vector<RTreeBase*> trees = db.trees();
  std::vector<std::unique_ptr<NodeCache>> node_caches;
  if (config.warm) {
    NodeCacheOptions cache_options;
    cache_options.pin_min_level = 1;
    for (RTreeBase* tree : trees) {
      node_caches.push_back(std::make_unique<NodeCache>(cache_options));
      tree->SetNodeCache(node_caches.back().get());
    }
  }

  BatchExecutorOptions options;
  options.algorithm = algo;
  std::vector<QueryStats> reference;
  for (size_t threads : thread_counts) {
    options.num_threads = threads;
    if (algo == Algo::kAuto) db.planner()->feedback().Reset();
    for (const auto& cache : node_caches) {
      cache->Clear();  // Each thread point warms up from empty.
    }
    BatchExecutor executor(&db, options);
    Stopwatch watch;
    StatusOr<BatchResults> batch = executor.Run(queries);
    const double elapsed = watch.ElapsedSeconds();
    IR2_CHECK(batch.ok()) << batch.status().ToString();

    ThroughputPoint point;
    point.threads = threads;
    point.seconds = elapsed;
    point.qps = static_cast<double>(queries.size()) / elapsed;
    LatencyHistogram latencies;
    // Modeled disk time is medium-independent (the cold-regime regression
    // pins that), so this number is the same whether the blocks came from
    // memory or a real file — which is exactly what makes it worth
    // printing next to the wall-clock in --device=file runs.
    for (const QueryStats& stats : batch->per_query) {
      latencies.Record(stats.seconds * 1000.0);
      point.sim_disk_ms += stats.simulated_disk_ms;
    }
    point.p50_ms = latencies.P50();
    point.p95_ms = latencies.P95();
    point.pool = batch->pool_stats;
    for (const auto& cache : node_caches) {
      point.cache += cache->Stats();
    }
    if (threads == thread_counts.front()) {
      reference = batch->per_query;
      series.batch1_mean_ms =
          batch->Aggregate().seconds * 1000.0 / queries.size();
    } else if (!config.warm) {
      for (size_t i = 0; i < queries.size(); ++i) {
        if (!SameProfile(reference[i], batch->per_query[i])) {
          ++series.profile_mismatches;
        }
      }
    }
    point.speedup = series.points.empty()
                        ? 1.0
                        : series.points.front().seconds / elapsed;
    series.points.push_back(point);
  }
  if (config.warm) {
    for (RTreeBase* tree : trees) tree->SetNodeCache(nullptr);
  }
  return series;
}

void WriteJson(const char* path, const BenchDataset& dataset,
               size_t num_queries, const RunConfig& config,
               const std::vector<TreeSeries>& trees) {
  std::FILE* f = std::fopen(path, "w");
  IR2_CHECK(f != nullptr) << "cannot write " << path;
  std::fprintf(f, "{\n  \"bench\": \"throughput\",\n");
  std::fprintf(f, "  \"regime\": \"%s\",\n", config.warm ? "warm" : "cold");
  std::fprintf(f, "  \"device\": \"%s\",\n",
               config.file_device ? "file" : "mem");
  std::fprintf(f, "  \"dataset\": \"%s\",\n", dataset.name.c_str());
  std::fprintf(f, "  \"num_objects\": %zu,\n", dataset.objects.size());
  std::fprintf(f, "  \"num_queries\": %zu,\n", num_queries);
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"determinism_checked\": %s,\n",
               config.warm ? "false" : "true");
  std::fprintf(f, "  \"trees\": [\n");
  for (size_t t = 0; t < trees.size(); ++t) {
    const TreeSeries& series = trees[t];
    std::fprintf(f, "    {\n      \"tree\": \"%s\",\n", series.tree);
    std::fprintf(f, "      \"serial_mean_ms\": %.4f,\n",
                 series.serial_mean_ms);
    std::fprintf(f, "      \"batch1_mean_ms\": %.4f,\n",
                 series.batch1_mean_ms);
    std::fprintf(f, "      \"profile_mismatches\": %zu,\n",
                 series.profile_mismatches);
    std::fprintf(f, "      \"series\": [\n");
    for (size_t p = 0; p < series.points.size(); ++p) {
      const ThroughputPoint& point = series.points[p];
      std::fprintf(f,
                   "        {\"threads\": %zu, \"seconds\": %.4f, "
                   "\"qps\": %.1f, \"speedup\": %.2f, "
                   "\"sim_disk_ms\": %.2f,\n",
                   point.threads, point.seconds, point.qps, point.speedup,
                   point.sim_disk_ms);
      std::fprintf(f,
                   "         \"pool\": {\"hits\": %llu, \"misses\": %llu, "
                   "\"evictions\": %llu, \"hit_rate\": %.4f}",
                   static_cast<unsigned long long>(point.pool.hits),
                   static_cast<unsigned long long>(point.pool.misses),
                   static_cast<unsigned long long>(point.pool.evictions),
                   point.pool.HitRate());
      if (config.warm) {
        std::fprintf(
            f,
            ",\n         \"node_cache\": {\"hits\": %llu, \"misses\": %llu, "
            "\"evictions\": %llu, \"pinned\": %llu, \"hit_rate\": %.4f}",
            static_cast<unsigned long long>(point.cache.hits),
            static_cast<unsigned long long>(point.cache.misses),
            static_cast<unsigned long long>(point.cache.evictions),
            static_cast<unsigned long long>(point.cache.pinned),
            point.cache.HitRate());
      }
      std::fprintf(f, "}%s\n",
                   p + 1 < series.points.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n    }%s\n",
                 t + 1 < trees.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

void Main(const RunConfig& config) {
  serving::AdminServer admin([&config] {
    serving::AdminServer::Options admin_options;
    admin_options.port = config.admin_port > 0 ? config.admin_port : 0;
    return admin_options;
  }());
  if (config.admin_port >= 0) {
    serving::AdminEndpoints endpoints;
    endpoints.build_info = "bench_throughput";
    serving::MountAdminEndpoints(&admin, endpoints);
    const Status started = admin.Start();
    IR2_CHECK(started.ok()) << started.ToString();
    // Register the core metric catalogue up front: a scraper that hits
    // /metrics before the first query should see the series at 0, not an
    // empty exposition.
    obs::DefaultMetrics();
    std::printf("admin server on http://127.0.0.1:%d\n", admin.port());
    std::fflush(stdout);
  }

  DatabaseOptions options = DefaultOptions(kRestaurantsSignatureBytes);
  options.cold_queries = !config.warm;
  BenchDataset dataset =
      BuildRestaurants(options, config.smoke ? 0.5 : 1.0);

  if (config.file_device) {
    // Save the freshly built database and re-open it over real files, so
    // every physical block read below goes through FileBlockDevice
    // (O_DIRECT when the filesystem allows it). Structure comes from the
    // manifest; runtime knobs are the build options plus O_DIRECT.
    const std::string dir =
        (std::filesystem::temp_directory_path() / "ir2db_bench_throughput")
            .string();
    std::filesystem::remove_all(dir);
    const Status saved = dataset.db->Save(dir);
    IR2_CHECK(saved.ok()) << saved.ToString();
    DatabaseOptions runtime = options;
    runtime.file_device.direct_io = true;
    StatusOr<std::unique_ptr<SpatialKeywordDatabase>> reopened =
        SpatialKeywordDatabase::Open(dir, runtime);
    IR2_CHECK(reopened.ok()) << reopened.status().ToString();
    dataset.db = std::move(reopened).value();
    std::printf("device=file: database reopened from %s\n", dir.c_str());
  }

  WorkloadConfig workload;
  workload.seed = 17;
  workload.num_queries = config.smoke ? 40 : 200;
  workload.num_keywords = 2;
  workload.k = 10;
  std::vector<DistanceFirstQuery> queries =
      GenerateWorkload(dataset.objects, dataset.db->tokenizer(), workload);

  std::vector<size_t> thread_counts =
      config.smoke ? std::vector<size_t>{1, 2}
                   : std::vector<size_t>{1, 2, 4, 8};

  const std::vector<Algo> algos =
      config.has_algo ? std::vector<Algo>{config.algo}
                      : std::vector<Algo>{Algo::kIr2, Algo::kMir2};
  std::vector<TreeSeries> trees;
  for (Algo algo : algos) {
    trees.push_back(
        RunSeries(*dataset.db, algo, queries, config, thread_counts));
  }

  std::vector<std::string> x_names;
  for (size_t threads : thread_counts) {
    x_names.push_back(std::to_string(threads));
  }
  const char* regime = config.warm ? "warm" : "cold";
  FigurePrinter qps_figure(
      std::string("Batch throughput (queries/s), ") + regime + " regime",
      "threads", x_names);
  FigurePrinter speedup_figure("Batch speedup vs 1 thread", "threads",
                               x_names);
  FigurePrinter p95_figure("Per-query latency p95 (ms, inside workers)",
                           "threads", x_names);
  for (const TreeSeries& series : trees) {
    std::vector<double> qps, speedup, p95;
    for (const ThroughputPoint& point : series.points) {
      qps.push_back(point.qps);
      speedup.push_back(point.speedup);
      p95.push_back(point.p95_ms);
    }
    qps_figure.AddRow(series.tree, qps, "%12.1f");
    speedup_figure.AddRow(series.tree, speedup, "%12.2f");
    p95_figure.AddRow(series.tree, p95, "%12.3f");
  }
  qps_figure.Print();
  speedup_figure.Print();
  p95_figure.Print();

  std::printf("\nSingle-thread latency (ms/query): ");
  for (const TreeSeries& series : trees) {
    std::printf("%s serial=%.3f batch(1)=%.3f  ", series.tree,
                series.serial_mean_ms, series.batch1_mean_ms);
  }
  std::printf("\nhardware_concurrency=%u",
              std::thread::hardware_concurrency());
  if (config.warm) {
    std::printf("  (warm regime: determinism check skipped)\n");
    for (const TreeSeries& series : trees) {
      const ThroughputPoint& last = series.points.back();
      std::printf(
          "  %s node cache at %zu threads: %.1f%% hits, %llu pinned\n",
          series.tree, last.threads, 100.0 * last.cache.HitRate(),
          static_cast<unsigned long long>(last.cache.pinned));
    }
  } else {
    size_t mismatches = 0;
    for (const TreeSeries& series : trees) {
      mismatches += series.profile_mismatches;
    }
    std::printf(
        "  per-query profile mismatches across thread counts: %zu%s\n",
        mismatches, mismatches == 0 ? " (deterministic)" : " (BUG)");
  }

  if (config.file_device) {
    std::printf("real-file wall-clock vs modeled disk time, 1 thread:");
    for (const TreeSeries& series : trees) {
      const ThroughputPoint& first = series.points.front();
      std::printf("  %s wall=%.1fms model=%.1fms", series.tree,
                  first.seconds * 1000.0, first.sim_disk_ms);
    }
    std::printf("\n");
  }

  // File-backed runs get their own filenames so the in-memory figures the
  // repo checks in are never clobbered by a local --device=file run.
  const char* path =
      config.file_device
          ? (config.warm ? "BENCH_throughput_file_warm.json"
                         : "BENCH_throughput_file.json")
          : (config.warm ? "BENCH_throughput_warm.json"
                         : "BENCH_throughput.json");
  WriteJson(path, dataset, queries.size(), config, trees);
  std::printf("wrote %s\n", path);

  if (!config.trace_path.empty()) {
    // One serial traced pass over the workload; the span ring captures the
    // tail of the pass if the workload overflows it. Written as Chrome
    // trace-event JSON — load in chrome://tracing or ui.perfetto.dev.
    obs::Tracer tracer;
    {
      obs::ScopedTracer scoped(&tracer);
      QueryStats stats;
      for (const DistanceFirstQuery& query : queries) {
        StatusOr<std::vector<QueryResult>> results =
            dataset.db->QueryIr2(query, &stats);
        IR2_CHECK(results.ok()) << results.status().ToString();
      }
    }
    std::FILE* f = std::fopen(config.trace_path.c_str(), "w");
    IR2_CHECK(f != nullptr) << "cannot write " << config.trace_path;
    const std::string json = tracer.ToChromeTraceJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s (%zu trace events, %llu dropped)\n",
                config.trace_path.c_str(), tracer.size(),
                static_cast<unsigned long long>(tracer.dropped()));
  }

  if (config.admin_port >= 0 && config.admin_hold_ms > 0) {
    std::printf("holding admin server %d ms\n", config.admin_hold_ms);
    std::fflush(stdout);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config.admin_hold_ms));
  }
}

}  // namespace
}  // namespace bench
}  // namespace ir2

int main(int argc, char** argv) {
  ir2::bench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--regime=warm") == 0) {
      config.warm = true;
    } else if (std::strcmp(argv[i], "--regime=cold") == 0) {
      config.warm = false;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      config.smoke = true;
    } else if (std::strcmp(argv[i], "--device=file") == 0) {
      config.file_device = true;
    } else if (std::strcmp(argv[i], "--device=mem") == 0) {
      config.file_device = false;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      config.trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--admin-port=", 13) == 0) {
      config.admin_port = std::atoi(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--admin-hold-ms=", 16) == 0) {
      config.admin_hold_ms = std::atoi(argv[i] + 16);
    } else if (std::strncmp(argv[i], "--algo=", 7) == 0) {
      if (!ir2::ParseAlgorithm(argv[i] + 7, &config.algo)) {
        std::fprintf(stderr, "unknown --algo: %s\n", argv[i] + 7);
        return 2;
      }
      config.has_algo = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--regime=cold|warm] [--device=mem|file] "
                   "[--smoke] [--trace=FILE] "
                   "[--algo=rtree|iio|ir2|mir2|auto] "
                   "[--admin-port=N] [--admin-hold-ms=N]\n",
                   argv[0]);
      return 2;
    }
  }
  ir2::bench::Main(config);
  return 0;
}
