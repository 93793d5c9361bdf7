#ifndef IR2TREE_OBS_METRICS_H_
#define IR2TREE_OBS_METRICS_H_

// Process-wide metrics: named counters, gauges, and log-bucketed
// histograms. Hot paths pay exactly one relaxed atomic add — counters and
// histograms accumulate into cache-line-padded cells sharded by thread so
// concurrent writers never contend on a line; snapshots sum the cells.
// Registries render as Prometheus text or a JSON snapshot. See
// docs/observability.md for the metric catalogue.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>

namespace ir2 {
namespace obs {

// Number of accumulation cells per sharded metric. Threads hash onto a
// cell; collisions are correct (atomic adds), just slower.
inline constexpr size_t kMetricCells = 16;

namespace internal {

struct alignas(64) MetricCell {
  std::atomic<uint64_t> value{0};
};

// Stable small index for the calling thread, assigned on first use.
size_t ThisThreadCellIndex();

}  // namespace internal

// Monotonic counter. Add() is one relaxed fetch_add on this thread's cell.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    cells_[internal::ThisThreadCellIndex()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  // Sum over all cells. Monotone but not a point-in-time cut of concurrent
  // writers (each cell is read once, relaxed).
  uint64_t Value() const;
  void Reset();

 private:
  internal::MetricCell cells_[kMetricCells];
};

// Last-writer-wins signed value (sizes, capacities, high-water marks).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log-bucketed histogram of non-negative doubles. Buckets subdivide each
// octave [2^e, 2^(e+1)) into kSubBuckets linear sub-buckets, so relative
// quantization error is at most 1/kSubBuckets ≈ 12.5% before the linear
// interpolation Percentile() applies within the landing bucket. Record()
// is one relaxed fetch_add on the landing bucket (buckets are naturally
// spread across lines; the count/sum cells are thread-sharded).
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;
  static constexpr int kMinExponent = -20;  // < ~1e-6 clamps to bucket 0.
  static constexpr int kMaxExponent = 30;   // >= 2^30 clamps to the top.
  static constexpr int kNumBuckets =
      (kMaxExponent - kMinExponent) * kSubBuckets + 2;

  void Record(double value);

  uint64_t Count() const;
  double Sum() const;
  // Interpolated value at `fraction` in [0, 1]; 0 when empty.
  double Percentile(double fraction) const;
  // The same estimator over an externally merged bucket array (size
  // kNumBuckets) — what WindowedHistogram uses for sliding-window
  // quantiles. The ranked value's bucket is found, then the rank's position
  // within it interpolates linearly between the bucket's bounds, so the
  // estimate always lies in (lower, upper] of the bucket the true value
  // landed in: relative error is bounded by the sub-bucket width
  // 1/kSubBuckets, and a bucket-boundary value is overestimated by at most
  // that width (pinned by obs_test; see docs/observability.md).
  static double PercentileFromBuckets(std::span<const uint64_t> buckets,
                                      double fraction);
  void Reset();

  // Inclusive lower bound of bucket `index` (0 is the underflow bucket
  // with lower bound 0; the last bucket is the overflow bucket).
  static double BucketLowerBound(int index);
  static int BucketFor(double value);
  uint64_t BucketCount(int index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  internal::MetricCell count_cells_[kMetricCells];
  // Sum sharded as bit-cast doubles would lose adds; a double CAS loop
  // would spin under contention. Per-cell atomic<double> fetch-add keeps
  // the one-atomic-op guarantee (C++20).
  struct alignas(64) SumCell {
    std::atomic<double> value{0.0};
  };
  SumCell sum_cells_[kMetricCells];
};

// Named metric registry. Get*() registers on first use and returns a
// pointer that stays valid for the registry's lifetime — callers cache it
// so steady state never takes the registry lock. Global() is the
// process-wide instance.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name, std::string_view help = "");
  Gauge* GetGauge(std::string_view name, std::string_view help = "");
  Histogram* GetHistogram(std::string_view name, std::string_view help = "");

  // Spelled name of a labelled series: `name{key="value"}` (value is
  // escaped). Pass the result to GetCounter/GetGauge — the exporters group
  // series of one family (everything before '{') under a single HELP/TYPE
  // header, so per-tenant counters such as
  // ir2_server_admitted_total{tenant="alice"} scrape as one Prometheus
  // family. Labelled histograms are not supported (their _bucket series
  // would need the label merged into `le`).
  static std::string LabelledName(std::string_view name,
                                  std::string_view label_key,
                                  std::string_view label_value);

  // Prometheus text exposition (families sorted by name; histograms emit
  // cumulative non-empty buckets + _sum/_count).
  std::string RenderPrometheus() const;
  // One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string RenderJson() const;

  // Zeroes every registered metric (metrics stay registered).
  void Reset();

 private:
  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  // Ordered so rendering is deterministic without a sort.
  std::map<std::string, Entry, std::less<>> entries_;
};

// The hot-path metrics, registered once in Global() and cached here so
// instrumentation sites pay a function-local-static load + one atomic add.
struct CoreMetrics {
  Counter* pool_hits;
  Counter* pool_misses;
  Counter* pool_evictions;
  Counter* node_cache_hits;
  Counter* node_cache_misses;
  Counter* node_decodes;
  Counter* sched_runs;
  Counter* sched_blocks_fetched;
  Counter* sched_read_errors;
  Counter* nn_heap_pops;
  Counter* nn_nodes_expanded;
  Counter* signature_tests;
  Counter* signature_prunes;
  // KC-Tree entry tests and their prune attribution: the hot-word posting
  // bitmap (exact) vs the cold-tail superimposed signature (lossy). See
  // docs/performance.md, KC-Tree chapter.
  Counter* kctree_bitmap_tests;
  Counter* kctree_bitmap_prunes;
  Counter* kctree_signature_prunes;
  Counter* objects_verified;
  Counter* verification_false_positives;
  Counter* queries_total;
  // Cost-based planner decisions (one counter per winning algorithm; the
  // registry carries no label dimension, so the algorithm is in the name)
  // and hindsight mispredictions (observed cost exceeded a rejected
  // candidate's prediction). See docs/planner.md.
  Counter* plan_chosen_rtree;
  Counter* plan_chosen_iio;
  Counter* plan_chosen_ir2;
  Counter* plan_chosen_mir2;
  Counter* plan_chosen_kctree;
  Counter* plan_mispredict;
  Histogram* query_latency_ms;
  Histogram* query_sim_disk_ms;
  Histogram* query_demand_blocks;
};

const CoreMetrics& DefaultMetrics();

}  // namespace obs
}  // namespace ir2

#endif  // IR2TREE_OBS_METRICS_H_
