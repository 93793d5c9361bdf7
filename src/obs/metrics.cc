#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <vector>

namespace ir2 {
namespace obs {
namespace internal {

size_t ThisThreadCellIndex() {
  // Dense per-thread indices (modulo kMetricCells) beat hashing the thread
  // id: the first kMetricCells threads are guaranteed collision-free.
  static std::atomic<size_t> next{0};
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricCells;
  return index;
}

}  // namespace internal

namespace {

// Shortest %g form that round-trips typical metric values; matches what
// the benches print, so goldens stay readable.
std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

// Family of a (possibly labelled) series name: everything before '{'.
std::string_view FamilyOf(std::string_view name) {
  const size_t brace = name.find('{');
  return brace == std::string_view::npos ? name : name.substr(0, brace);
}

}  // namespace

std::string MetricsRegistry::LabelledName(std::string_view name,
                                          std::string_view label_key,
                                          std::string_view label_value) {
  std::string out(name);
  out += '{';
  out += label_key;
  out += "=\"";
  for (char c : label_value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += "\"}";
  return out;
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const internal::MetricCell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (internal::MetricCell& cell : cells_) {
    cell.value.store(0, std::memory_order_relaxed);
  }
}

int Histogram::BucketFor(double value) {
  if (!(value > 0)) return 0;  // Also catches NaN.
  int exponent;
  const double mantissa = std::frexp(value, &exponent);  // [0.5, 1).
  --exponent;                                            // value in [2^e, 2^(e+1)).
  if (exponent < kMinExponent) return 0;
  if (exponent >= kMaxExponent) return kNumBuckets - 1;
  const int sub = static_cast<int>((mantissa * 2.0 - 1.0) * kSubBuckets);
  return 1 + (exponent - kMinExponent) * kSubBuckets +
         (sub < kSubBuckets ? sub : kSubBuckets - 1);
}

double Histogram::BucketLowerBound(int index) {
  if (index <= 0) return 0;
  const int slot = index - 1;
  const int exponent = kMinExponent + slot / kSubBuckets;
  const int sub = slot % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, exponent);
}

void Histogram::Record(double value) {
  buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  const size_t cell = internal::ThisThreadCellIndex();
  count_cells_[cell].value.fetch_add(1, std::memory_order_relaxed);
  sum_cells_[cell].value.fetch_add(value, std::memory_order_relaxed);
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const internal::MetricCell& cell : count_cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0;
  for (const SumCell& cell : sum_cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Percentile(double fraction) const {
  uint64_t counts[kNumBuckets];
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[i] = BucketCount(i);
  }
  return PercentileFromBuckets(counts, fraction);
}

double Histogram::PercentileFromBuckets(std::span<const uint64_t> buckets,
                                        double fraction) {
  const int n = static_cast<int>(
      buckets.size() < static_cast<size_t>(kNumBuckets) ? buckets.size()
                                                        : kNumBuckets);
  uint64_t total = 0;
  for (int i = 0; i < n; ++i) {
    total += buckets[i];
  }
  if (total == 0) return 0;
  if (fraction < 0) fraction = 0;
  if (fraction > 1) fraction = 1;
  // Rank of the requested order statistic, 1-based.
  const uint64_t rank = static_cast<uint64_t>(
      std::ceil(fraction * static_cast<double>(total - 1))) + 1;
  uint64_t cumulative = 0;
  for (int i = 0; i < n; ++i) {
    const uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket >= rank) {
      const double lower = BucketLowerBound(i);
      const double upper = i + 1 < kNumBuckets ? BucketLowerBound(i + 1)
                                               : lower * 2.0;
      const double within =
          static_cast<double>(rank - cumulative) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * within;
    }
    cumulative += in_bucket;
  }
  return BucketLowerBound(kNumBuckets - 1);
}

void Histogram::Reset() {
  for (std::atomic<uint64_t>& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  for (internal::MetricCell& cell : count_cells_) {
    cell.value.store(0, std::memory_order_relaxed);
  }
  for (SumCell& cell : sum_cells_) {
    cell.value.store(0.0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[std::string(name)];
  if (entry.counter == nullptr) {
    entry.counter = std::make_unique<Counter>();
    if (entry.help.empty()) entry.help = std::string(help);
  }
  return entry.counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[std::string(name)];
  if (entry.gauge == nullptr) {
    entry.gauge = std::make_unique<Gauge>();
    if (entry.help.empty()) entry.help = std::string(help);
  }
  return entry.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[std::string(name)];
  if (entry.histogram == nullptr) {
    entry.histogram = std::make_unique<Histogram>();
    if (entry.help.empty()) entry.help = std::string(help);
  }
  return entry.histogram.get();
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  // Labelled series of one family sit adjacent in the sorted map (the bare
  // family name, if registered, sorts first since '{' > any metric-name
  // character), so HELP/TYPE are emitted once per family, on its first
  // series. Unlabelled-only registries render exactly as before.
  std::string last_counter_family;
  std::string last_gauge_family;
  for (const auto& [name, entry] : entries_) {
    if (entry.counter != nullptr) {
      const std::string family(FamilyOf(name));
      if (family != last_counter_family) {
        last_counter_family = family;
        if (!entry.help.empty()) {
          out += "# HELP " + family + " " + entry.help + "\n";
        }
        out += "# TYPE " + family + " counter\n";
      }
      out += name + " " + std::to_string(entry.counter->Value()) + "\n";
    }
    if (entry.gauge != nullptr) {
      const std::string family(FamilyOf(name));
      if (family != last_gauge_family) {
        last_gauge_family = family;
        if (!entry.help.empty()) {
          out += "# HELP " + family + " " + entry.help + "\n";
        }
        out += "# TYPE " + family + " gauge\n";
      }
      out += name + " " + std::to_string(entry.gauge->Value()) + "\n";
    }
    if (entry.histogram != nullptr) {
      if (!entry.help.empty()) out += "# HELP " + name + " " + entry.help + "\n";
      out += "# TYPE " + name + " histogram\n";
      const Histogram& h = *entry.histogram;
      uint64_t cumulative = 0;
      for (int i = 0; i < Histogram::kNumBuckets; ++i) {
        const uint64_t in_bucket = h.BucketCount(i);
        if (in_bucket == 0) continue;
        cumulative += in_bucket;
        // Upper bound of the landing bucket = lower bound of the next.
        const double upper = i + 1 < Histogram::kNumBuckets
                                 ? Histogram::BucketLowerBound(i + 1)
                                 : Histogram::BucketLowerBound(i) * 2.0;
        out += name + "_bucket{le=\"" + FormatDouble(upper) + "\"} " +
               std::to_string(cumulative) + "\n";
      }
      out += name + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
      out += name + "_sum " + FormatDouble(h.Sum()) + "\n";
      out += name + "_count " + std::to_string(h.Count()) + "\n";
    }
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, entry] : entries_) {
    if (entry.counter == nullptr) continue;
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":";
    out += std::to_string(entry.counter->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, entry] : entries_) {
    if (entry.gauge == nullptr) continue;
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":";
    out += std::to_string(entry.gauge->Value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, entry] : entries_) {
    if (entry.histogram == nullptr) continue;
    if (!first) out += ",";
    first = false;
    const Histogram& h = *entry.histogram;
    AppendJsonString(&out, name);
    out += ":{\"count\":" + std::to_string(h.Count());
    out += ",\"sum\":" + FormatDouble(h.Sum());
    out += ",\"p50\":" + FormatDouble(h.Percentile(0.50));
    out += ",\"p95\":" + FormatDouble(h.Percentile(0.95));
    out += ",\"p99\":" + FormatDouble(h.Percentile(0.99));
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      const uint64_t in_bucket = h.BucketCount(i);
      if (in_bucket == 0) continue;
      if (!first_bucket) out += ",";
      first_bucket = false;
      const double upper = i + 1 < Histogram::kNumBuckets
                               ? Histogram::BucketLowerBound(i + 1)
                               : Histogram::BucketLowerBound(i) * 2.0;
      out += "[" + FormatDouble(upper) + "," + std::to_string(in_bucket) + "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    if (entry.counter != nullptr) entry.counter->Reset();
    if (entry.gauge != nullptr) entry.gauge->Set(0);
    if (entry.histogram != nullptr) entry.histogram->Reset();
  }
}

const CoreMetrics& DefaultMetrics() {
  static const CoreMetrics* metrics = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    auto* m = new CoreMetrics;
    m->pool_hits = r.GetCounter("ir2_pool_hits_total",
                                "BufferPool reads served from a shard");
    m->pool_misses = r.GetCounter("ir2_pool_misses_total",
                                  "BufferPool reads that went to the device");
    m->pool_evictions =
        r.GetCounter("ir2_pool_evictions_total", "BufferPool LRU evictions");
    m->node_cache_hits = r.GetCounter(
        "ir2_node_cache_hits_total", "Decoded-node cache hits (decode skipped)");
    m->node_cache_misses =
        r.GetCounter("ir2_node_cache_misses_total", "Decoded-node cache misses");
    m->node_decodes =
        r.GetCounter("ir2_node_decodes_total", "R-Tree node deserializations");
    m->sched_runs = r.GetCounter("ir2_sched_runs_total",
                                 "Coalesced prefetch runs issued by workers");
    m->sched_blocks_fetched = r.GetCounter(
        "ir2_sched_blocks_fetched_total", "Blocks read by prefetch workers");
    m->sched_read_errors = r.GetCounter("ir2_sched_read_errors_total",
                                        "Failed prefetch worker reads");
    m->nn_heap_pops = r.GetCounter("ir2_nn_heap_pops_total",
                                   "Incremental-NN priority queue pops");
    m->nn_nodes_expanded = r.GetCounter("ir2_nn_nodes_expanded_total",
                                        "R-Tree nodes expanded during NN");
    m->signature_tests = r.GetCounter("ir2_signature_tests_total",
                                      "Entry signature containment tests");
    m->signature_prunes = r.GetCounter(
        "ir2_signature_prunes_total", "Entries pruned by a signature test");
    m->kctree_bitmap_tests =
        r.GetCounter("ir2_kctree_bitmap_tests_total",
                     "KC-Tree entry containment tests (bitmap + signature)");
    m->kctree_bitmap_prunes =
        r.GetCounter("ir2_kctree_bitmap_prunes_total",
                     "KC-Tree entries pruned by the exact hot-word bitmap");
    m->kctree_signature_prunes =
        r.GetCounter("ir2_kctree_signature_prunes_total",
                     "KC-Tree entries pruned by the cold-tail signature");
    m->objects_verified = r.GetCounter(
        "ir2_objects_verified_total", "Objects loaded and checked for keywords");
    m->verification_false_positives =
        r.GetCounter("ir2_verification_false_positives_total",
                     "Verified objects that failed the keyword check");
    m->queries_total =
        r.GetCounter("ir2_queries_total", "Top-k queries executed");
    m->plan_chosen_rtree = r.GetCounter(
        "ir2_plan_chosen_rtree_total", "Auto plans won by the R-Tree baseline");
    m->plan_chosen_iio =
        r.GetCounter("ir2_plan_chosen_iio_total", "Auto plans won by IIO");
    m->plan_chosen_ir2 =
        r.GetCounter("ir2_plan_chosen_ir2_total", "Auto plans won by IR2");
    m->plan_chosen_mir2 =
        r.GetCounter("ir2_plan_chosen_mir2_total", "Auto plans won by MIR2");
    m->plan_chosen_kctree = r.GetCounter("ir2_plan_chosen_kctree_total",
                                         "Auto plans won by the KC-Tree");
    m->plan_mispredict = r.GetCounter(
        "ir2_plan_mispredict_total",
        "Executed auto plans whose observed cost exceeded a rejected "
        "candidate's prediction");
    m->query_latency_ms = r.GetHistogram("ir2_query_latency_ms",
                                         "Wall-clock query latency (ms)");
    m->query_sim_disk_ms = r.GetHistogram(
        "ir2_query_sim_disk_ms", "DiskModel-priced query time (ms)");
    m->query_demand_blocks = r.GetHistogram(
        "ir2_query_demand_blocks", "Demand block reads per query");
    return m;
  }();
  return *metrics;
}

}  // namespace obs
}  // namespace ir2
