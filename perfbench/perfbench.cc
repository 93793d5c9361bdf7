// The repository benchmark's measuring program (perfbench/README.md). One
// process runs one workload once:
//
//   perfbench --workload serve_zipf|serve_uniform|cold_disk --seed N
//             --seconds S [--setups R] [--traced] [--data-dir DIR]
//             [--trace-out FILE]
//
// It generates the workload's objects and request stream, sets the system
// up R times (timing each set-up and serving from the last), drives the
// request stream for S seconds after a short warm-up, then checks every
// answer against a brute-force reference computed from the generated
// objects. It prints one JSON object on stdout; perfbench/run.py builds
// this binary and turns that object into the benchmark's result line.
//
// Every timing is taken here, at the caller, around calls into the
// library's public functions; every count comes from public return values
// and counters. --traced adds the per-layer run: spans around those calls,
// serial replays of the request stream for the layers ServerLoop hides on
// its worker threads, and a Chrome trace written to --trace-out.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/planner.h"
#include "core/query.h"
#include "datagen/synthetic.h"
#include "reference.h"
#include "requests.h"
#include "serving/result_cache.h"
#include "serving/server_loop.h"
#include "serving/sharded_database.h"
#include "spans.h"
#include "storage/buffer_pool.h"
#include "storage/disk_model.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace perfbench {
namespace {

using ir2::Algorithm;
using ir2::DatabaseOptions;
using ir2::DistanceFirstQuery;
using ir2::IoStats;
using ir2::QueryResult;
using ir2::QueryStats;
using ir2::SpatialKeywordDatabase;
using ir2::StoredObject;
using ir2::serving::ServerLoop;
using ir2::serving::ShardedDatabase;

// ---------------------------------------------------------------------------
// Configuration.

enum class Kind { kServeZipf, kServeUniform, kColdDisk };

struct Args {
  std::string workload;
  Kind kind = Kind::kServeZipf;
  uint64_t seed = 1;
  double seconds = 10;
  int setups = 3;
  bool traced = false;
  std::string data_dir = ".bench_build/perfbench-data";
  std::string trace_out;
};

// Paper shapes (Table 1), smaller than the repository's default bench scale
// (0.08) so that three set-ups fit in every run (README.md, "Sizes").
constexpr double kRestaurantsScale = 0.05;
constexpr double kHotelsScale = 0.05;
constexpr uint32_t kRestaurantsSignatureBits = 8 * 8;
constexpr uint32_t kHotelsSignatureBits = 189 * 8;
constexpr uint32_t kHashesPerWord = 3;

// Closed loop: kClients callers each wait for their answer before sending
// the next request; kWorkers ServerLoop workers serve them. The callers'
// next request is sent from the completion callback, so no generator
// thread competes with the workers for the host's cores.
constexpr size_t kWorkers = 3;
constexpr uint32_t kClients = 4;
constexpr uint32_t kZipfPool = 4096;  // 4x the result cache's 1024 entries.
constexpr double kWarmupSeconds = 0.5;  // Per window, before measuring.
// Request records of one run (16 bytes each, 48 MiB in all, resident from
// the start): several times what the fastest workload sends here. A run
// that fills them stops sending, and measures what it sent.
constexpr size_t kRecordCapacity = size_t{3} << 20;
// The simulated and counted per-request metrics are taken over a fixed
// prefix of the stream, which the first window of every run sends whatever
// the host's speed (it runs on until the prefix is sent), so they do not
// depend on how many requests fit into the timed windows. The traced run's
// serial replays replay the same prefix. A cold request costs about seven
// warm ones, so cold_disk's prefix is shorter.
constexpr uint64_t kServeFixedRequests = 32768;
constexpr uint64_t kColdFixedRequests = 4096;
// Chrome trace size cap, per phase.
constexpr size_t kTraceEventsPerPhase = 20000;

// Span whose durations give server_loop.submit_us.
constexpr const char* kSubmitSpan = "server_loop.submit";

// Span phases (the top byte of a span id).
enum Phase : uint64_t {
  kPhaseSetup = 1,
  kPhaseLoop = 2,
  kPhaseReplayQuery = 3,
  kPhaseReplayExplain = 4,
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(ir2::StatusOr<T> value, const char* what) {
  if (!value.ok()) Die(std::string(what) + ": " + value.status().ToString());
  return std::move(value).value();
}

void Check(const ir2::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (flag == "--setups") {
      args.setups = std::atoi(value().c_str());
    } else if (flag == "--traced") {
      args.traced = true;
    } else if (flag == "--data-dir") {
      args.data_dir = value();
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload == "serve_zipf") {
    args.kind = Kind::kServeZipf;
  } else if (args.workload == "serve_uniform") {
    args.kind = Kind::kServeUniform;
  } else if (args.workload == "cold_disk") {
    args.kind = Kind::kColdDisk;
  } else {
    Die("unknown --workload '" + args.workload + "'");
  }
  if (args.seconds <= 0 || args.setups < 1) Die("bad --seconds or --setups");
  return args;
}

// ---------------------------------------------------------------------------
// Small statistics helpers.

// Nearest-rank quantile.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

// Samples strictly beyond the nearest-rank quantile `q`.
uint64_t BeyondQuantile(size_t n, double q) {
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(n, std::max<size_t>(rank, 1));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

// Insertion-ordered name -> number map, printed as a JSON object.
class JsonFields {
 public:
  void Set(const std::string& name, double value) {
    for (auto& [key, v] : fields_) {
      if (key == name) {
        v = value;
        return;
      }
    }
    fields_.emplace_back(name, value);
  }
  std::string ToJson() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < fields_.size(); ++i) {
      const double v = std::isfinite(fields_[i].second) ? fields_[i].second : 0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += (i ? ", \"" : "\"") + fields_[i].first + "\": " + buf;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, double>> fields_;
};

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Library-side sums the metrics are made of.

struct IoTotals {
  std::atomic<uint64_t> random_reads{0};
  std::atomic<uint64_t> sequential_reads{0};
  std::atomic<uint64_t> random_writes{0};
  std::atomic<uint64_t> sequential_writes{0};

  void Add(const IoStats& io) {
    random_reads.fetch_add(io.random_reads, std::memory_order_relaxed);
    sequential_reads.fetch_add(io.sequential_reads, std::memory_order_relaxed);
    random_writes.fetch_add(io.random_writes, std::memory_order_relaxed);
    sequential_writes.fetch_add(io.sequential_writes,
                                std::memory_order_relaxed);
  }
  IoStats Get() const {
    IoStats io;
    io.random_reads = random_reads.load();
    io.sequential_reads = sequential_reads.load();
    io.random_writes = random_writes.load();
    io.sequential_writes = sequential_writes.load();
    return io;
  }
};

// Per-request QueryStats I/O summed over the answered requests of the
// stream's fixed prefix.
struct StatsTotals {
  IoTotals priced;  // QueryStats.io + speculative_io: what the model prices.
  IoTotals demand;  // QueryStats.demand_io.
  std::atomic<uint64_t> requests{0};

  void Add(const QueryStats& stats) {
    requests.fetch_add(1, std::memory_order_relaxed);
    priced.Add(stats.io);
    priced.Add(stats.speculative_io);
    demand.Add(stats.demand_io);
  }
};

struct StructureBytes {
  uint64_t objects = 0, rtree = 0, ir2 = 0, mir2 = 0, kctree = 0, iio = 0;
  void Add(const SpatialKeywordDatabase& db) {
    objects += db.ObjectFileBytes();
    rtree += db.RTreeBytes();
    ir2 += db.Ir2TreeBytes();
    mir2 += db.Mir2TreeBytes();
    kctree += db.KcTreeBytes();
    iio += db.IioBytes();
  }
  double SpaceAmp() const {
    return Ratio(static_cast<double>(rtree + ir2 + mir2 + kctree + iio),
                 static_cast<double>(objects));
  }
};

// Tree buffer pools of one database (the object and inverted-index pools
// run in bypass mode with prefetching off, so only the trees cache).
ir2::BufferPoolStats TreePoolStats(SpatialKeywordDatabase& db) {
  ir2::BufferPoolStats total;
  for (ir2::RTreeBase* tree :
       {static_cast<ir2::RTreeBase*>(db.rtree()),
        static_cast<ir2::RTreeBase*>(db.ir2_tree()),
        static_cast<ir2::RTreeBase*>(db.mir2_tree()),
        static_cast<ir2::RTreeBase*>(db.kc_tree())}) {
    if (tree != nullptr) total += tree->pool()->Stats();
  }
  return total;
}

ir2::BufferPoolStats TreePoolStats(ShardedDatabase& tier) {
  ir2::BufferPoolStats total;
  for (size_t s = 0; s < tier.num_shards(); ++s) {
    total += TreePoolStats(*tier.shard(s));
  }
  return total;
}

// Serving-metrics histogram snapshot, for percentiles over a time window.
std::vector<uint64_t> Buckets(const ir2::obs::Histogram& histogram) {
  std::vector<uint64_t> out(ir2::obs::Histogram::kNumBuckets);
  for (int i = 0; i < ir2::obs::Histogram::kNumBuckets; ++i) {
    out[i] = histogram.BucketCount(i);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The run: what every workload reports.

enum Outcome : uint8_t { kPending = 0, kOk, kShed, kError };

// One sent request; the sender fills every field before Submit.
struct RequestRecord {
  uint64_t digest;
  float latency_us;
  uint8_t outcome;
  bool measured;  // Sent at or after its window's measure start.
};

// Fixed-capacity record array, written in full before the first set-up, so
// its share of peak_rss_mb is the same however many requests a run sends.
class Records {
 public:
  Records() : data_(new RequestRecord[kRecordCapacity]) {
    std::fill_n(data_.get(), kRecordCapacity,
                RequestRecord{0, -1.0f, kPending, false});
  }
  RequestRecord& operator[](size_t i) { return data_[i]; }
  const RequestRecord& operator[](size_t i) const { return data_[i]; }
  static constexpr size_t capacity() { return kRecordCapacity; }

 private:
  std::unique_ptr<RequestRecord[]> data_;
};

struct RunReport {
  JsonFields metrics;
  JsonFields samples;
  JsonFields details;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
};

// Wall seconds of each set-up of a run, and of its steps.
struct Setup {
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::vector<double> save_s;
  std::vector<double> open_s;
};

void RecordSetupSpan(SpanLog& spans, const char* name, uint64_t slot,
                     uint64_t run, int64_t start, int64_t end) {
  spans.Record(Span{name, SpanId(kPhaseSetup, run, slot), 0, run, 0, start,
                    end});
}

// ---------------------------------------------------------------------------
// Answer checking, outside every timed phase.

struct Verdict {
  uint64_t mismatches = 0;
  std::vector<uint64_t> first_mismatches;
};

// Checks the digests of answered requests [0, count) of the stream against
// the reference.
template <typename DigestAt, typename OkAt>
Verdict VerifyAnswers(const Reference& reference, const RequestStream& stream,
                      uint64_t count, DigestAt digest_at, OkAt ok_at) {
  const unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::vector<uint64_t>> bad(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ReferenceMemo memo(reference);
      for (uint64_t i = t; i < count; i += threads) {
        if (!ok_at(i)) continue;
        if (memo.Digest(stream.Make(i)) != digest_at(i)) bad[t].push_back(i);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  Verdict verdict;
  for (const auto& list : bad) {
    verdict.mismatches += list.size();
    verdict.first_mismatches.insert(verdict.first_mismatches.end(),
                                    list.begin(), list.end());
  }
  std::sort(verdict.first_mismatches.begin(), verdict.first_mismatches.end());
  if (verdict.first_mismatches.size() > 3) {
    verdict.first_mismatches.resize(3);
  }
  return verdict;
}

void PrintMismatch(const Reference& reference, const RequestStream& stream,
                   uint64_t index,
                   const std::vector<QueryResult>* served_again) {
  const DistanceFirstQuery q = stream.Make(index);
  std::string keywords;
  for (const std::string& k : q.keywords) keywords += " " + k;
  std::fprintf(stderr, "perfbench: wrong answer for request %llu: k=%u "
                       "point=(%.6f, %.6f) keywords:%s\n",
               static_cast<unsigned long long>(index), q.k, q.point[0],
               q.point[1], keywords.c_str());
  for (const Answer& a : reference.TopK(q)) {
    std::fprintf(stderr, "  expected id=%u distance=%.17g\n", a.object_id,
                 a.distance);
  }
  if (served_again != nullptr) {
    for (const QueryResult& r : *served_again) {
      std::fprintf(stderr, "  served (re-run) id=%u distance=%.17g\n",
                   r.object_id, r.distance);
    }
  }
}

// ---------------------------------------------------------------------------
// Serving tier: closed loop through ServerLoop.

DatabaseOptions ServeOptions() {
  DatabaseOptions options;
  options.ir2_signature =
      ir2::SignatureConfig{kRestaurantsSignatureBits, kHashesPerWord};
  options.cold_queries = false;  // Warm serving regime (ServerLoop needs it).
  return options;
}

// One timed set-up of the serving tier: generated objects in memory to
// ready to serve.
std::unique_ptr<ShardedDatabase> SetUpTier(
    const std::vector<StoredObject>& objects, int run, Setup* setup,
    SpanLog& spans) {
  const int64_t t0 = NowNs();
  auto tier = Unwrap(ShardedDatabase::Build(objects, ServeOptions(),
                                            ir2::serving::ShardingOptions()),
                     "ShardedDatabase::Build");
  const int64_t t1 = NowNs();
  tier->EnableResultCache(ir2::serving::ResultCacheOptions());
  const int64_t t2 = NowNs();
  RecordSetupSpan(spans, "sharded_database.build", 1, run, t0, t1);
  RecordSetupSpan(spans, "result_cache.enable", 2, run, t1, t2);
  setup->setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
  setup->build_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  return tier;
}

// One measured window of a run: requests [first, end) of the stream were
// sent; those sent from measure_start_ns on are measured, and the last of
// them completed at last_done_ns.
struct Window {
  uint64_t first = 0;
  uint64_t end = 0;
  int64_t measure_start_ns = 0;
  int64_t last_done_ns = 0;
};

// Public counters of the tier read around one measured window.
struct TierSnapshot {
  ir2::serving::ResultCache::Stats cache;
  ir2::BufferPoolStats pools;
  ir2::serving::ServerStats loop;
  std::vector<uint64_t> queue_wait;

  static TierSnapshot Take(ShardedDatabase& tier, const ServerLoop& loop) {
    return TierSnapshot{
        tier.result_cache()->GetStats(), TreePoolStats(tier), loop.stats(),
        Buckets(*ir2::serving::DefaultServingMetrics().server_queue_wait_ms)};
  }
};

// Counter deltas summed over the measured windows of a run.
struct TierDeltas {
  double cache_hits = 0, cache_near_hits = 0, cache_misses = 0;
  double cache_admitted = 0, cache_evictions = 0;
  double pool_hits = 0, pool_misses = 0, pool_evictions = 0;
  double shed = 0;
  std::vector<uint64_t> queue_wait =
      std::vector<uint64_t>(ir2::obs::Histogram::kNumBuckets, 0);

  void Add(const TierSnapshot& before, const TierSnapshot& after) {
    auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
    cache_hits += d(after.cache.hits, before.cache.hits);
    cache_near_hits += d(after.cache.near_hits, before.cache.near_hits);
    cache_misses += d(after.cache.misses, before.cache.misses);
    cache_admitted += d(after.cache.admitted, before.cache.admitted);
    cache_evictions += d(after.cache.evictions, before.cache.evictions);
    pool_hits += d(after.pools.hits, before.pools.hits);
    pool_misses += d(after.pools.misses, before.pools.misses);
    pool_evictions += d(after.pools.evictions, before.pools.evictions);
    shed += d(after.loop.rejected_queue_full + after.loop.rejected_quota,
              before.loop.rejected_queue_full + before.loop.rejected_quota);
    for (size_t b = 0; b < queue_wait.size(); ++b) {
      queue_wait[b] += after.queue_wait[b] - before.queue_wait[b];
    }
  }
};

// One measured window of the closed loop: a fresh ServerLoop over `tier`,
// kClients callers sending requests first, first+1, ... of the stream for
// warmup_s + seconds, and on until requests [first, min_end) are sent,
// then a drain.
class ClosedLoop {
 public:
  ClosedLoop(ShardedDatabase* tier, const RequestStream& stream,
             Records* records, SpanLog* spans, StatsTotals* totals)
      : tier_(tier),
        stream_(stream),
        records_(*records),
        spans_(*spans),
        totals_(*totals) {}

  Window Run(uint64_t first, uint64_t min_end, double warmup_s,
             double seconds, TierDeltas* deltas) {
    ir2::serving::ServerLoopOptions options;
    options.num_workers = kWorkers;
    ServerLoop loop(tier_, options);
    loop_ = &loop;
    next_ = first;
    min_end_ = min_end;
    const int64_t start = NowNs();
    measure_start_ns_ = start + static_cast<int64_t>(warmup_s * 1e9);
    stop_ns_ = measure_start_ns_ + static_cast<int64_t>(seconds * 1e9);
    last_done_ns_ = measure_start_ns_;
    active_clients_ = kClients;
    for (uint32_t c = 0; c < kClients; ++c) Continue(c);

    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(measure_start_ns_)));
    const TierSnapshot before = TierSnapshot::Take(*tier_, loop);
    {
      std::unique_lock<std::mutex> lock(mu_);
      clients_done_.wait(lock, [this] { return active_clients_ == 0; });
    }
    loop.Drain();
    deltas->Add(before, TierSnapshot::Take(*tier_, loop));
    loop.Stop();
    loop_ = nullptr;
    return Window{first, std::min<uint64_t>(next_.load(), records_.capacity()),
                  measure_start_ns_, last_done_ns_.load()};
  }

 private:
  // Sends client `client`'s next request, unless the window is over.
  void Continue(uint32_t client) {
    for (;;) {
      const bool more = NowNs() < stop_ns_ ||
                        next_.load(std::memory_order_relaxed) < min_end_;
      const uint64_t index =
          more ? next_.fetch_add(1, std::memory_order_relaxed)
               : records_.capacity();
      if (index >= records_.capacity()) {
        std::lock_guard<std::mutex> lock(mu_);
        if (--active_clients_ == 0) clients_done_.notify_all();
        return;
      }
      DistanceFirstQuery query = stream_.Make(index);
      RequestRecord& record = records_[index];
      const int64_t start = NowNs();
      record = RequestRecord{0, 0, kPending, start >= measure_start_ns_};
      const ServerLoop::Admission admission = loop_->Submit(
          "bench", std::move(query),
          [this, index, client, start](
              ir2::StatusOr<std::vector<QueryResult>> results,
              const QueryStats& stats) {
            Done(index, client, start, results, stats);
          });
      if (spans_.enabled()) {
        spans_.Record(Span{kSubmitSpan, SpanId(kPhaseLoop, index, 1),
                           SpanId(kPhaseLoop, index, 0), index, 100 + client,
                           start, NowNs()});
      }
      if (admission.outcome == ServerLoop::Admission::Outcome::kAdmitted) {
        return;
      }
      record.outcome = kShed;  // Closed loop: the client moves on.
    }
  }

  void Done(uint64_t index, uint32_t client, int64_t start,
            const ir2::StatusOr<std::vector<QueryResult>>& results,
            const QueryStats& stats) {
    const int64_t end = NowNs();
    RequestRecord& record = records_[index];
    record.latency_us =
        static_cast<float>(static_cast<double>(end - start) / 1e3);
    if (results.ok()) {
      record.digest = DigestOf(results.value());
      record.outcome = kOk;
    } else {
      record.outcome = kError;
    }
    if (index < kServeFixedRequests && results.ok()) totals_.Add(stats);
    if (record.measured) {
      int64_t last = last_done_ns_.load(std::memory_order_relaxed);
      while (end > last && !last_done_ns_.compare_exchange_weak(last, end)) {
      }
    }
    spans_.Record(Span{"server_loop.request", SpanId(kPhaseLoop, index, 0), 0,
                       index, 100 + client, start, end});
    Continue(client);
  }

  ShardedDatabase* tier_;
  const RequestStream& stream_;
  Records& records_;
  SpanLog& spans_;
  StatsTotals& totals_;
  ServerLoop* loop_ = nullptr;
  int64_t measure_start_ns_ = 0;
  int64_t stop_ns_ = 0;
  uint64_t min_end_ = 0;
  std::atomic<uint64_t> next_{0};
  std::atomic<int64_t> last_done_ns_{0};
  std::mutex mu_;
  std::condition_variable clients_done_;
  uint32_t active_clients_ = 0;
};

// Answers of a replay, for the correctness check.
struct ReplayDigests {
  std::vector<uint64_t> digest;
  std::vector<uint8_t> ok;
};

// Serial replay of the fixed prefix of the stream on the tier, with a fresh
// result cache, for the layers ServerLoop runs on its own threads: each
// ShardedDatabase::Query call is timed, and split by whether the cache
// answered it.
void ReplayTierCalls(ShardedDatabase& tier, const RequestStream& stream,
                     SpanLog& spans, RunReport* report,
                     ReplayDigests* replay) {
  tier.EnableResultCache(ir2::serving::ResultCacheOptions());
  std::vector<double> hit_us, miss_us, overhead_us;
  uint64_t legs = 0, pruned = 0;
  for (uint64_t i = 0; i < kServeFixedRequests; ++i) {
    const DistanceFirstQuery q = stream.Make(i);
    QueryStats stats;
    const int64_t t0 = NowNs();
    auto results = tier.Query(q, Algorithm::kAuto, &stats);
    const int64_t t1 = NowNs();
    const double us = static_cast<double>(t1 - t0) / 1e3;
    const bool hit = stats.result_cache_hits + stats.result_cache_near_hits > 0;
    spans.Record(Span{hit ? "result_cache.hit" : "sharded_database.query",
                      SpanId(kPhaseReplayQuery, i, 0), 0, i, 2, t0, t1});
    replay->ok.push_back(results.ok());
    replay->digest.push_back(results.ok() ? DigestOf(results.value()) : 0);
    if (hit) {
      hit_us.push_back(us);
    } else {
      miss_us.push_back(us);
      overhead_us.push_back(us - stats.seconds * 1e6);
      legs += stats.shards_queried;
      pruned += stats.shards_pruned;
    }
  }
  JsonFields& m = report->metrics;
  m.Set("result_cache.hit_us.p50", Quantile(hit_us, 0.5));
  m.Set("sharded_database.miss_us.p50", Quantile(miss_us, 0.5));
  m.Set("sharded_database.miss_us.p99", Quantile(miss_us, 0.99));
  m.Set("sharded_database.legs_per_query",
        Ratio(static_cast<double>(legs), static_cast<double>(miss_us.size())));
  m.Set("sharded_database.pruned_per_query",
        Ratio(static_cast<double>(pruned),
              static_cast<double>(miss_us.size())));
  m.Set("sharded_database.overhead_us.p50", Quantile(overhead_us, 0.5));
  report->samples.Set("replay.requests",
                      static_cast<double>(replay->digest.size()));
  report->samples.Set("replay.cache_hits", static_cast<double>(hit_us.size()));
  report->samples.Set("replay.tier_misses",
                      static_cast<double>(miss_us.size()));
}

// Per-leg numbers of one executed leg or one facade query.
struct LegSamples {
  std::vector<double> us;
  std::vector<double> plan_us;
  std::vector<double> predicted_over_observed;
  double nodes_visited = 0, entries_pruned = 0, objects_loaded = 0,
         false_positives = 0, results = 0;
  uint64_t picks[ir2::kNumPlannableAlgorithms] = {};

  void Add(const QueryStats& stats, uint64_t results_returned,
           Algorithm executed) {
    us.push_back(stats.seconds * 1e6);
    nodes_visited += static_cast<double>(stats.nodes_visited);
    entries_pruned += static_cast<double>(stats.entries_pruned);
    objects_loaded += static_cast<double>(stats.objects_loaded);
    false_positives += static_cast<double>(stats.false_positives);
    results += static_cast<double>(results_returned);
    if (executed != Algorithm::kAuto) ++picks[static_cast<size_t>(executed)];
  }

  void AddPlan(const ir2::QueryPlan& plan, Algorithm executed,
               double planning_us, double observed_ms) {
    plan_us.push_back(planning_us);
    if (executed != Algorithm::kAuto && observed_ms > 0) {
      predicted_over_observed.push_back(
          plan.Candidate(executed).predicted_ms / observed_ms);
    }
  }

  void Report(RunReport* report) const {
    JsonFields& m = report->metrics;
    const double n = static_cast<double>(us.size());
    m.Set("planner.plan_us.p50", Quantile(plan_us, 0.5));
    for (Algorithm algo : {Algorithm::kIio, Algorithm::kRTree, Algorithm::kIr2,
                           Algorithm::kMir2, Algorithm::kKcTree}) {
      m.Set(std::string("planner.pick.") + ir2::AlgorithmName(algo),
            Ratio(static_cast<double>(picks[static_cast<size_t>(algo)]), n));
    }
    m.Set("planner.predicted_over_observed.p50",
          Quantile(predicted_over_observed, 0.5));
    m.Set("leg.us.p50", Quantile(us, 0.5));
    m.Set("leg.us.p99", Quantile(us, 0.99));
    m.Set("leg.nodes_visited", Ratio(nodes_visited, n));
    m.Set("leg.entries_pruned", Ratio(entries_pruned, n));
    m.Set("leg.objects_loaded", Ratio(objects_loaded, n));
    m.Set("leg.false_positives", Ratio(false_positives, n));
    m.Set("leg.verify_yield", Ratio(results, objects_loaded));
    report->samples.Set("leg.count", n);
    report->samples.Set("planner.plans", static_cast<double>(plan_us.size()));
  }
};

// Serial replay through Explain, which returns each shard leg's QueryStats
// and the algorithm its planner chose. Before each request every shard's
// planner is asked for its plan directly (timed): in a serial replay that
// is the state the leg's own planning sees, so the prediction for the
// algorithm the leg then ran is compared with what the leg observed.
void ReplayLegs(ShardedDatabase& tier, const RequestStream& stream,
                SpanLog& spans, RunReport* report) {
  tier.EnableResultCache(ir2::serving::ResultCacheOptions());
  LegSamples legs;
  std::vector<ir2::QueryPlan> plans(tier.num_shards());
  std::vector<double> plan_us(tier.num_shards());
  for (uint64_t i = 0; i < kServeFixedRequests; ++i) {
    const DistanceFirstQuery q = stream.Make(i);
    const uint64_t root = SpanId(kPhaseReplayExplain, i, 0);
    const int64_t start = NowNs();
    for (size_t s = 0; s < tier.num_shards(); ++s) {
      const int64_t p0 = NowNs();
      plans[s] = tier.shard(s)->planner()->Plan(q);
      const int64_t p1 = NowNs();
      plan_us[s] = static_cast<double>(p1 - p0) / 1e3;
      spans.Record(Span{"planner.plan", SpanId(kPhaseReplayExplain, i, 2 + s),
                        root, i, 3, p0, p1});
    }
    const int64_t t0 = NowNs();
    auto explain =
        Unwrap(tier.Explain(q, Algorithm::kAuto), "ShardedDatabase::Explain");
    const int64_t t1 = NowNs();
    spans.Record(Span{"sharded_database.explain",
                      SpanId(kPhaseReplayExplain, i, 1), root, i, 3, t0, t1});
    spans.Record(Span{"replay.request", root, 0, i, 3, start, NowNs()});
    for (const ir2::serving::ShardLeg& leg : explain.legs) {
      if (leg.pruned) continue;
      legs.Add(leg.stats, leg.results_returned, leg.executed);
      legs.AddPlan(plans[leg.shard], leg.executed, plan_us[leg.shard],
                   leg.stats.simulated_disk_ms);
    }
  }
  legs.Report(report);
}

// Latencies and outcomes of the sent requests of a run's windows.
struct Measured {
  std::vector<double> latency_ms;  // Measured, answered requests.
  double seconds = 0;  // Summed over the measured windows.
  uint64_t issued = 0;  // Requests [0, issued) were sent.
};

Measured CollectWindows(const Records& records,
                        const std::vector<Window>& windows,
                        RunReport* report) {
  Measured out;
  for (const Window& w : windows) {
    out.seconds += static_cast<double>(w.last_done_ns - w.measure_start_ns) /
                   1e9;
    out.issued = std::max(out.issued, w.end);
    for (uint64_t i = w.first; i < w.end; ++i) {
      const RequestRecord& r = records[i];
      if (r.outcome == kShed) ++report->shed;
      if (r.outcome == kError) ++report->errors;
      if (!r.measured || r.outcome != kOk) continue;
      out.latency_ms.push_back(static_cast<double>(r.latency_us) / 1e3);
    }
  }
  return out;
}

void ReportEndToEnd(const Setup& setup, const Measured& measured,
                    const StatsTotals& totals, const ir2::DiskModel& model,
                    const StructureBytes& bytes, double peak_rss_mb,
                    RunReport* report) {
  const double n = static_cast<double>(measured.latency_ms.size());
  JsonFields& m = report->metrics;
  m.Set("setup_s", Quantile(setup.setup_s, 0.5));
  m.Set("query_p50_ms", Quantile(measured.latency_ms, 0.5));
  m.Set("query_p99_ms", Quantile(measured.latency_ms, 0.99));
  m.Set("throughput_qps", Ratio(n, measured.seconds));
  // Simulated and counted per-request metrics: over the fixed requests.
  const double fixed = static_cast<double>(totals.requests.load());
  m.Set("sim_disk_ms_per_query", Ratio(model.Ms(totals.priced.Get()), fixed));
  m.Set("space_amp", bytes.SpaceAmp());
  m.Set("peak_rss_mb", peak_rss_mb);
  report->samples.Set("latency", n);
  report->samples.Set("beyond_p99", static_cast<double>(BeyondQuantile(
                                        measured.latency_ms.size(), 0.99)));
  report->samples.Set("setups", static_cast<double>(setup.setup_s.size()));
  report->samples.Set("requests_issued", static_cast<double>(measured.issued));
  report->samples.Set("fixed_requests", fixed);
  report->details.Set("measured_seconds", measured.seconds);
  for (size_t r = 0; r < setup.setup_s.size(); ++r) {
    report->details.Set("setup_s." + std::to_string(r), setup.setup_s[r]);
  }

  // Storage layer: per-request I/O from QueryStats, set-up steps, sizes.
  const IoStats demand = totals.demand.Get();
  const IoStats priced = totals.priced.Get();
  m.Set("storage.demand_random_reads",
        Ratio(static_cast<double>(demand.random_reads), fixed));
  m.Set("storage.demand_seq_reads",
        Ratio(static_cast<double>(demand.sequential_reads), fixed));
  m.Set("storage.physical_reads",
        Ratio(static_cast<double>(priced.TotalReads()), fixed));
  m.Set("storage.build_s", Quantile(setup.build_s, 0.5));
  m.Set("storage.save_s", Quantile(setup.save_s, 0.5));
  m.Set("storage.open_s", Quantile(setup.open_s, 0.5));
  m.Set("storage.bytes.objects", static_cast<double>(bytes.objects));
  m.Set("storage.bytes.rtree", static_cast<double>(bytes.rtree));
  m.Set("storage.bytes.ir2", static_cast<double>(bytes.ir2));
  m.Set("storage.bytes.mir2", static_cast<double>(bytes.mir2));
  m.Set("storage.bytes.kctree", static_cast<double>(bytes.kctree));
  m.Set("storage.bytes.iio", static_cast<double>(bytes.iio));
}

void RunServe(const Args& args, const std::vector<StoredObject>& objects,
              SpanLog& spans, RunReport* report) {
  const RequestStream stream(objects, args.seed,
                             args.kind == Kind::kServeZipf ? kZipfPool : 0);

  // One measured window per set-up, each on the tier just set up: the
  // run's measurement is spread over its whole length, so a slow spell of
  // the host weighs on one window rather than on the whole run.
  Records records;
  Setup setup;
  StatsTotals totals;
  TierDeltas deltas;
  std::vector<Window> windows;
  std::unique_ptr<ShardedDatabase> tier;
  for (int r = 0; r < args.setups; ++r) {
    tier.reset();
    tier = SetUpTier(objects, r, &setup, spans);
    ClosedLoop loop(tier.get(), stream, &records, &spans, &totals);
    windows.push_back(loop.Run(windows.empty() ? 0 : windows.back().end,
                               kServeFixedRequests, kWarmupSeconds,
                               args.seconds / args.setups, &deltas));
  }
  const double peak_rss_mb = PeakRssMb();
  StructureBytes bytes;
  for (size_t s = 0; s < tier->num_shards(); ++s) bytes.Add(*tier->shard(s));
  const Measured measured = CollectWindows(records, windows, report);
  ReportEndToEnd(setup, measured, totals,
                 ir2::DiskModel(ServeOptions().disk_model), bytes, peak_rss_mb,
                 report);

  // Per-layer numbers of the loop: public counters and QueryStats.
  JsonFields& m = report->metrics;
  const double lookups =
      deltas.cache_hits + deltas.cache_near_hits + deltas.cache_misses;
  m.Set("result_cache.hit_ratio", Ratio(deltas.cache_hits, lookups));
  m.Set("result_cache.near_hit_ratio", Ratio(deltas.cache_near_hits, lookups));
  m.Set("result_cache.lookups", lookups);
  m.Set("result_cache.admitted_per_1k",
        1000 * Ratio(deltas.cache_admitted, lookups));
  m.Set("result_cache.evictions_per_1k",
        1000 * Ratio(deltas.cache_evictions, lookups));
  std::vector<double> submit_us;
  if (spans.enabled()) {
    for (const Span& span : spans.Collect()) {
      if (span.name == kSubmitSpan && records[span.request].measured) {
        submit_us.push_back(static_cast<double>(span.end_ns - span.start_ns) /
                            1e3);
      }
    }
  }
  m.Set("server_loop.submit_us.p50", Quantile(submit_us, 0.5));
  m.Set("server_loop.queue_wait_ms.p50",
        ir2::obs::Histogram::PercentileFromBuckets(deltas.queue_wait, 0.5));
  m.Set("server_loop.queue_wait_ms.p99",
        ir2::obs::Histogram::PercentileFromBuckets(deltas.queue_wait, 0.99));
  m.Set("server_loop.shed", deltas.shed);
  m.Set("storage.pool_hit_ratio",
        Ratio(deltas.pool_hits, deltas.pool_hits + deltas.pool_misses));
  m.Set("storage.pool_evictions", deltas.pool_evictions);
  m.Set("storage.drop_caches_us.p50", 0);
  report->samples.Set("cache_lookups", lookups);

  ReplayDigests replay;
  if (args.traced) {
    ReplayTierCalls(*tier, stream, spans, report, &replay);
    ReplayLegs(*tier, stream, spans, report);
  }

  // Correctness: every answered request of the loop and the replay.
  const int64_t check_start = NowNs();
  const Reference reference(objects);
  const Verdict loop_verdict = VerifyAnswers(
      reference, stream, measured.issued,
      [&](uint64_t i) { return records[i].digest; },
      [&](uint64_t i) { return records[i].outcome == kOk; });
  const Verdict replay_verdict = VerifyAnswers(
      reference, stream, replay.digest.size(),
      [&](uint64_t i) { return replay.digest[i]; },
      [&](uint64_t i) { return replay.ok[i] != 0; });
  tier->DisableResultCache();
  for (uint64_t index : loop_verdict.first_mismatches) {
    auto again = tier->Query(stream.Make(index), Algorithm::kAuto);
    PrintMismatch(reference, stream, index,
                  again.ok() ? &again.value() : nullptr);
  }
  report->details.Set("check_s",
                      static_cast<double>(NowNs() - check_start) / 1e9);
  report->mismatches = loop_verdict.mismatches + replay_verdict.mismatches;
  report->attempted = measured.issued + replay.digest.size();
  for (uint8_t ok : replay.ok) report->errors += ok ? 0 : 1;
  report->failed = report->shed + report->errors + report->mismatches;
}

// ---------------------------------------------------------------------------
// Cold disk: one serial client over a saved and re-opened database.

DatabaseOptions ColdOptions() {
  DatabaseOptions options;
  options.ir2_signature =
      ir2::SignatureConfig{kHotelsSignatureBits, kHashesPerWord};
  return options;
}

// One timed set-up of the cold database: Build, Save into `dir`, Open.
std::unique_ptr<SpatialKeywordDatabase> SetUpColdDatabase(
    const std::vector<StoredObject>& objects, const std::string& dir, int run,
    Setup* setup, SpanLog& spans) {
  // The client drops the caches before each query, outside the timed call,
  // so the opened database itself leaves them alone.
  DatabaseOptions runtime = ColdOptions();
  runtime.cold_queries = false;
  std::filesystem::remove_all(dir);
  const int64_t t0 = NowNs();
  auto built = Unwrap(SpatialKeywordDatabase::Build(objects, ColdOptions()),
                      "SpatialKeywordDatabase::Build");
  const int64_t t1 = NowNs();
  Check(built->Save(dir), "SpatialKeywordDatabase::Save");
  const int64_t t2 = NowNs();
  auto opened = Unwrap(SpatialKeywordDatabase::Open(dir, runtime),
                       "SpatialKeywordDatabase::Open");
  const int64_t t3 = NowNs();
  RecordSetupSpan(spans, "database.build", 1, run, t0, t1);
  RecordSetupSpan(spans, "database.save", 2, run, t1, t2);
  RecordSetupSpan(spans, "database.open", 3, run, t2, t3);
  setup->setup_s.push_back(static_cast<double>(t3 - t0) / 1e9);
  setup->build_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  setup->save_s.push_back(static_cast<double>(t2 - t1) / 1e9);
  setup->open_s.push_back(static_cast<double>(t3 - t2) / 1e9);
  return opened;
}

// Per-layer sums of the traced cold loop.
struct ColdLayers {
  LegSamples legs;
  std::vector<double> drop_us;
  double pool_hits = 0, pool_misses = 0, pool_evictions = 0;
};

// One measured window of the serial cold client: before every request the
// caches are dropped (outside the timed call), then the facade's kAuto
// Query is timed. It sends requests first, first+1, ... for the warm-up
// plus `seconds`, and on until requests [first, min_end) are sent.
Window RunColdWindow(SpatialKeywordDatabase& db, const RequestStream& stream,
                     uint64_t first, uint64_t min_end, double seconds,
                     Records* records, StatsTotals* totals, SpanLog& spans,
                     ColdLayers* layers) {
  const int64_t measure_start =
      NowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t stop = measure_start + static_cast<int64_t>(seconds * 1e9);
  Window window{first, first, measure_start, measure_start};
  for (uint64_t i = first;
       i < records->capacity() && (NowNs() < stop || i < min_end); ++i) {
    const DistanceFirstQuery q = stream.Make(i);
    const int64_t d0 = NowNs();
    Check(db.DropCaches(), "DropCaches");
    const int64_t d1 = NowNs();
    QueryStats stats;
    ir2::QueryPlan plan;
    RequestRecord& record = (*records)[i];
    const int64_t start = NowNs();
    const bool measured = start >= measure_start;
    record = RequestRecord{0, 0, kPending, measured};
    auto results = spans.enabled() ? db.QueryAuto(q, &stats, &plan)
                                   : db.Query(q, Algorithm::kAuto, &stats);
    const int64_t end = NowNs();
    window.end = i + 1;
    record.latency_us =
        static_cast<float>(static_cast<double>(end - start) / 1e3);
    record.outcome = results.ok() ? kOk : kError;
    if (results.ok()) record.digest = DigestOf(results.value());
    if (i < kColdFixedRequests && results.ok()) totals->Add(stats);
    if (measured) window.last_done_ns = end;
    if (!spans.enabled()) continue;
    // Per-layer reads, outside the timed call, kept for the fixed requests:
    // the planner asked again for this request (timed; the prediction
    // compared is the executed plan's), and the tree pools' counters, which
    // DropCaches reset, so they are this query's alone.
    const int64_t p0 = NowNs();
    db.planner()->Plan(q);
    const int64_t p1 = NowNs();
    const ir2::BufferPoolStats pools = TreePoolStats(db);
    const Algorithm chosen = plan.has_choice ? plan.chosen : Algorithm::kAuto;
    if (i < kColdFixedRequests) {
      layers->drop_us.push_back(static_cast<double>(d1 - d0) / 1e3);
      layers->legs.Add(stats, results.ok() ? results.value().size() : 0,
                       chosen);
      layers->legs.AddPlan(plan, chosen, static_cast<double>(p1 - p0) / 1e3,
                           stats.simulated_disk_ms);
      layers->pool_hits += static_cast<double>(pools.hits);
      layers->pool_misses += static_cast<double>(pools.misses);
      layers->pool_evictions += static_cast<double>(pools.evictions);
    }
    const uint64_t root = SpanId(kPhaseLoop, i, 0);
    spans.Record(Span{"storage.drop_caches", SpanId(kPhaseLoop, i, 1), root,
                      i, 1, d0, d1});
    spans.Record(Span{"database.query", SpanId(kPhaseLoop, i, 2), root, i, 1,
                      start, end});
    spans.Record(Span{"planner.plan", SpanId(kPhaseLoop, i, 3), root, i, 1,
                      p0, p1});
    spans.Record(Span{"client.request", root, 0, i, 1, d0, NowNs()});
  }
  return window;
}

void RunCold(const Args& args, const std::vector<StoredObject>& objects,
             SpanLog& spans, RunReport* report) {
  const RequestStream stream(objects, args.seed, 0);
  Records records;
  Setup setup;
  StatsTotals totals;
  ColdLayers layers;
  std::vector<Window> windows;
  std::unique_ptr<SpatialKeywordDatabase> db;
  for (int r = 0; r < args.setups; ++r) {
    db.reset();
    std::filesystem::remove_all(args.data_dir);
    db = SetUpColdDatabase(objects, args.data_dir + "/setup", r, &setup,
                           spans);
    windows.push_back(RunColdWindow(
        *db, stream, windows.empty() ? 0 : windows.back().end,
        kColdFixedRequests, args.seconds / args.setups, &records, &totals,
        spans, &layers));
  }
  const double peak_rss_mb = PeakRssMb();
  StructureBytes bytes;
  bytes.Add(*db);
  const Measured measured = CollectWindows(records, windows, report);
  ReportEndToEnd(setup, measured, totals, db->disk_model(), bytes,
                 peak_rss_mb, report);

  // Per-layer: the serving layers do no work on this workload.
  JsonFields& m = report->metrics;
  for (const char* name :
       {"server_loop.submit_us.p50", "server_loop.queue_wait_ms.p50",
        "server_loop.queue_wait_ms.p99", "server_loop.shed",
        "result_cache.hit_ratio", "result_cache.near_hit_ratio",
        "result_cache.lookups", "result_cache.hit_us.p50",
        "result_cache.admitted_per_1k", "result_cache.evictions_per_1k",
        "sharded_database.miss_us.p50", "sharded_database.miss_us.p99",
        "sharded_database.legs_per_query", "sharded_database.pruned_per_query",
        "sharded_database.overhead_us.p50"}) {
    m.Set(name, 0);
  }
  if (spans.enabled()) layers.legs.Report(report);
  m.Set("storage.pool_hit_ratio",
        Ratio(layers.pool_hits, layers.pool_hits + layers.pool_misses));
  m.Set("storage.pool_evictions", layers.pool_evictions);
  m.Set("storage.drop_caches_us.p50", Quantile(layers.drop_us, 0.5));

  const int64_t check_start = NowNs();
  const Reference reference(objects);
  const Verdict verdict = VerifyAnswers(
      reference, stream, measured.issued,
      [&](uint64_t i) { return records[i].digest; },
      [&](uint64_t i) { return records[i].outcome == kOk; });
  for (uint64_t index : verdict.first_mismatches) {
    auto again = db->Query(stream.Make(index), Algorithm::kAuto);
    PrintMismatch(reference, stream, index,
                  again.ok() ? &again.value() : nullptr);
  }
  report->details.Set("check_s",
                      static_cast<double>(NowNs() - check_start) / 1e9);
  report->mismatches = verdict.mismatches;
  report->attempted = measured.issued;
  report->failed = report->errors + report->mismatches;
  db.reset();
  std::filesystem::remove_all(args.data_dir);
}

// ---------------------------------------------------------------------------

std::string LayerSummaryJson(const std::map<std::string, SpanSummary>& rows) {
  std::string out = "{";
  char buf[160];
  bool first = true;
  for (const auto& [name, row] : rows) {
    std::snprintf(buf, sizeof(buf),
                  "%s%s: {\"count\": %llu, \"total_ms\": %.6f, "
                  "\"self_ms\": %.6f}",
                  first ? "" : ", ", Quoted(name).c_str(),
                  static_cast<unsigned long long>(row.count), row.total_ms,
                  row.self_ms);
    out += buf;
    first = false;
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  SpanLog spans(args.traced);

  const int64_t g0 = NowNs();
  const std::vector<StoredObject> objects = ir2::GenerateDataset(
      args.kind == Kind::kColdDisk
          ? ir2::HotelsLikeConfig(kHotelsScale)
          : ir2::RestaurantsLikeConfig(kRestaurantsScale));
  for (uint32_t i = 0; i < objects.size(); ++i) {
    if (objects[i].id != i || objects[i].coords.size() != 2) {
      Die("generated objects are not dense two-dimensional ids");
    }
  }
  RecordSetupSpan(spans, "datagen.generate", 0, 0, g0, NowNs());

  RunReport report;
  if (args.kind == Kind::kColdDisk) {
    RunCold(args, objects, spans, &report);
  } else {
    RunServe(args, objects, spans, &report);
  }
  report.metrics.Set("failed_frac",
                     Ratio(static_cast<double>(report.failed),
                           static_cast<double>(report.attempted)));
  report.metrics.Set("answered_frac",
                     1.0 - Ratio(static_cast<double>(report.failed),
                                 static_cast<double>(report.attempted)));

  std::string layers = "{}";
  uint64_t span_count = 0;
  size_t trace_events = 0;
  if (args.traced) {
    const std::vector<Span> all = spans.Collect();
    span_count = all.size();
    layers = LayerSummaryJson(Summarize(all));
    if (!args.trace_out.empty()) {
      std::map<uint64_t, size_t> per_phase;
      std::vector<Span> kept;
      for (const Span& span : all) {
        if (per_phase[span.id >> 56]++ < kTraceEventsPerPhase) {
          kept.push_back(span);
        }
      }
      if (!WriteChromeTrace(kept, args.trace_out)) {
        Die("cannot write " + args.trace_out);
      }
      trace_events = kept.size();
    }
  }
  report.samples.Set("spans", static_cast<double>(span_count));
  report.samples.Set("trace_events", static_cast<double>(trace_events));

  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"traced\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"mismatches\": %llu, "
      "\"errors\": %llu, \"shed\": %llu, \"metrics\": %s, \"samples\": %s, "
      "\"details\": %s, \"layers\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"workers\": %zu, \"clients\": %u}\n",
      Quoted(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      args.traced ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      static_cast<unsigned long long>(report.mismatches),
      static_cast<unsigned long long>(report.errors),
      static_cast<unsigned long long>(report.shed),
      report.metrics.ToJson().c_str(), report.samples.ToJson().c_str(),
      report.details.ToJson().c_str(), layers.c_str(),
      Quoted(PERFBENCH_COMPILER).c_str(), Quoted(PERFBENCH_BUILD_TYPE).c_str(),
      args.kind == Kind::kColdDisk ? size_t{0} : kWorkers,
      args.kind == Kind::kColdDisk ? 1u : kClients);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
