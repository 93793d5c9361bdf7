// Serve a spatial keyword database behind the admin HTTP endpoint: the
// end-to-end live-telemetry demo (docs/observability.md). Builds a
// synthetic sharded database (or opens a saved one warm), starts the
// ServerLoop, mounts the admin server, and drives a self-load so every
// telemetry surface has data to show:
//
//   ./serve                          # synthetic, ephemeral port, 30s load
//   ./serve --port=8080 --duration-s=0   # serve until killed; then
//   curl localhost:8080/metrics      # Prometheus text
//   curl localhost:8080/statusz      # last-60s p99, tenants, SLO burn
//   curl localhost:8080/querylogz    # sampled + slow-tail query records
//   curl localhost:8080/tracez      # Chrome-trace JSON (ui.perfetto.dev)
//
//   --open=DIR    serve a Save()d database (opened warm, one shard)
//   --shards=N    synthetic shard count          (default 4)
//   --workers=N   server worker threads          (default 2)
//   --load-qps=Q  self-load request rate         (default 200)
//   --tenants=N   tenants the load rotates over  (default 3)
//   --duration-s=S  load/serve duration; 0 = until killed (default 30)
//   --sample-rate=R query-log head sampling      (default 0.05)
//   --slo-ms=T    SLO latency threshold          (default 50)
//   --querylog=FILE drain the query log here on exit
//   --cache       enable the semantic result cache (curl /cachez)
//   --cache-entries=N result-cache capacity      (default 1024)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "obs/trace.h"
#include "serving/admin_server.h"
#include "serving/server_loop.h"
#include "serving/sharded_database.h"

namespace {

using ir2::SpatialKeywordDatabase;
using ir2::serving::AdminServer;
using ir2::serving::ServerLoop;
using ir2::serving::ShardedDatabase;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--open=DIR] [--port=N] [--shards=N] [--workers=N]\n"
               "          [--load-qps=Q] [--tenants=N] [--duration-s=S]\n"
               "          [--sample-rate=R] [--slo-ms=T] [--querylog=FILE]\n"
               "          [--cache] [--cache-entries=N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string open_dir, querylog_path;
  int port = 0;
  uint64_t shards = 4;
  size_t workers = 2;
  double load_qps = 200.0;
  int tenants = 3;
  double duration_s = 30.0;
  double sample_rate = 0.05;
  double slo_ms = 50.0;
  bool cache = false;
  size_t cache_entries = 1024;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--open=", 7) == 0) {
      open_dir = arg + 7;
    } else if (std::strncmp(arg, "--port=", 7) == 0) {
      port = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      shards = static_cast<uint64_t>(std::atoi(arg + 9));
    } else if (std::strncmp(arg, "--workers=", 10) == 0) {
      workers = static_cast<size_t>(std::atoi(arg + 10));
    } else if (std::strncmp(arg, "--load-qps=", 11) == 0) {
      load_qps = std::atof(arg + 11);
    } else if (std::strncmp(arg, "--tenants=", 10) == 0) {
      tenants = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--duration-s=", 13) == 0) {
      duration_s = std::atof(arg + 13);
    } else if (std::strncmp(arg, "--sample-rate=", 14) == 0) {
      sample_rate = std::atof(arg + 14);
    } else if (std::strncmp(arg, "--slo-ms=", 9) == 0) {
      slo_ms = std::atof(arg + 9);
    } else if (std::strncmp(arg, "--querylog=", 11) == 0) {
      querylog_path = arg + 11;
    } else if (std::strcmp(arg, "--cache") == 0) {
      cache = true;
    } else if (std::strncmp(arg, "--cache-entries=", 16) == 0) {
      cache_entries = static_cast<size_t>(std::atoi(arg + 16));
    } else {
      return Usage(argv[0]);
    }
  }
  if (tenants < 1) tenants = 1;

  // The serving tier requires the warm read-only regime for concurrency.
  ir2::DatabaseOptions options;
  options.ir2_signature = ir2::SignatureConfig{64 * 8, 3};
  options.cold_queries = false;

  std::unique_ptr<ShardedDatabase> db;
  std::vector<ir2::StoredObject> objects;
  if (open_dir.empty()) {
    objects = ir2::GenerateDataset(ir2::HotelsLikeConfig(0.05));
    ir2::serving::ShardingOptions sharding;
    sharding.num_shards = shards;
    auto built = ShardedDatabase::Build(objects, options, sharding);
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    db = std::move(built).value();
    std::fprintf(stderr, "built %zu synthetic objects across %zu shards\n",
                 objects.size(), db->num_shards());
  } else {
    auto opened = SpatialKeywordDatabase::Open(open_dir, options);
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    // The workload generator needs object text; sample the store.
    ir2::Status scan = (*opened)->object_store().ForEach(
        [&](ir2::ObjectRef, const ir2::StoredObject& object) {
          if (objects.size() < 4096) objects.push_back(object);
          return ir2::Status::Ok();
        });
    if (!scan.ok()) {
      std::fprintf(stderr, "scan failed: %s\n", scan.ToString().c_str());
      return 1;
    }
    auto wrapped = ShardedDatabase::WrapSingle(std::move(opened).value());
    if (!wrapped.ok()) {
      std::fprintf(stderr, "wrap failed: %s\n",
                   wrapped.status().ToString().c_str());
      return 1;
    }
    db = std::move(wrapped).value();
    std::fprintf(stderr, "opened %s (%zu objects sampled for load)\n",
                 open_dir.c_str(), objects.size());
  }

  if (cache) {
    ir2::serving::ResultCacheOptions cache_options;
    cache_options.max_entries = cache_entries;
    db->EnableResultCache(cache_options);
    std::fprintf(stderr, "result cache enabled (%zu entries)\n",
                 cache_entries);
  }

  ir2::WorkloadConfig workload;
  workload.seed = 11;
  workload.num_queries = 64;
  workload.num_keywords = 2;
  std::vector<ir2::DistanceFirstQuery> queries =
      ir2::GenerateWorkload(objects, db->shard(0)->tokenizer(), workload);
  if (queries.empty()) {
    std::fprintf(stderr, "no queries generated\n");
    return 1;
  }

  // Tracer first so worker spans land in /tracez.
  ir2::obs::Tracer tracer(1 << 15);
  ir2::obs::ScopedTracer traced(&tracer);

  ir2::serving::ServerLoopOptions loop_options;
  loop_options.num_workers = workers;
  loop_options.slo.latency_threshold_ms = slo_ms;
  loop_options.query_log.sample_rate = sample_rate;
  ServerLoop loop(db.get(), loop_options);

  AdminServer::Options admin_options;
  admin_options.port = port;
  AdminServer admin(admin_options);
  ir2::serving::AdminEndpoints endpoints;
  endpoints.server = &loop;
  endpoints.db = db.get();
  endpoints.tracer = &tracer;
  endpoints.build_info = "ir2-serve";
  ir2::serving::MountAdminEndpoints(&admin, endpoints);
  ir2::Status started = admin.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "admin server failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("admin server on http://127.0.0.1:%d  (try /metrics /statusz "
              "/querylogz /tracez%s)\n",
              admin.port(), cache ? " /cachez" : "");
  std::fflush(stdout);

  // Self-load: rotate queries across tenants at load_qps until the
  // duration elapses (forever when 0).
  const auto start = std::chrono::steady_clock::now();
  const double interval_s = load_qps > 0.0 ? 1.0 / load_qps : 0.1;
  size_t sent = 0;
  for (;;) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (duration_s > 0.0 && elapsed >= duration_s) break;
    if (load_qps > 0.0) {
      const std::string tenant =
          "tenant-" + std::to_string(sent % static_cast<size_t>(tenants));
      loop.Submit(tenant, queries[sent % queries.size()],
                  [](ir2::StatusOr<std::vector<ir2::QueryResult>>,
                     const ir2::QueryStats&) {});
      ++sent;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
  }
  loop.Drain();

  const ir2::serving::ServerStats stats = loop.stats();
  auto window = loop.LatencyWindow();
  auto slo = loop.SloReport();
  std::printf("served %llu requests (shed %llu); last-%.0fs p50=%.3fms "
              "p99=%.3fms; 5m burn=%.2f\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.rejected_queue_full +
                                              stats.rejected_quota),
              window.window_seconds, window.p50, window.p99, slo.burn_5m);
  std::printf("query log captured %llu records\n",
              static_cast<unsigned long long>(loop.query_log()->recorded()));
  if (db->result_cache() != nullptr) {
    const auto cache_stats = db->result_cache()->GetStats();
    std::printf("result cache: %llu hits, %llu near hits, %llu misses "
                "(hit rate %.2f; %llu entries)\n",
                static_cast<unsigned long long>(cache_stats.hits),
                static_cast<unsigned long long>(cache_stats.near_hits),
                static_cast<unsigned long long>(cache_stats.misses),
                cache_stats.HitRate(),
                static_cast<unsigned long long>(cache_stats.entries));
  }
  if (!querylog_path.empty()) {
    ir2::Status drained = loop.query_log()->DrainToFile(querylog_path);
    if (!drained.ok()) {
      std::fprintf(stderr, "drain failed: %s\n", drained.ToString().c_str());
      return 1;
    }
    std::printf("drained query log to %s\n", querylog_path.c_str());
  }
  admin.Stop();
  return 0;
}
