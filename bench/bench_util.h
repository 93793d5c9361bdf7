#ifndef IR2TREE_BENCH_BENCH_UTIL_H_
#define IR2TREE_BENCH_BENCH_UTIL_H_

// Shared harness for the paper-reproduction benchmarks. Each bench binary
// regenerates one table or figure of Section VI; this header provides the
// datasets (Table 1 shapes), the per-algorithm workload runner, and the
// fixed-width table printer used by every binary.
//
// Dataset sizes default to a laptop-friendly fraction of the paper's and
// scale with the IR2_SCALE environment variable (1.0 = full paper size).

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/database.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "obs/metrics.h"

namespace ir2 {
namespace bench {

// The paper's experimental defaults.
inline constexpr uint32_t kHotelsSignatureBytes = 189;     // Section VI.
inline constexpr uint32_t kRestaurantsSignatureBytes = 8;  // Section VI.
inline constexpr uint32_t kHashesPerWord = 3;
inline constexpr double kDefaultScale = 0.08;

struct BenchDataset {
  std::string name;
  SyntheticConfig config;
  std::vector<StoredObject> objects;
  std::unique_ptr<SpatialKeywordDatabase> db;
};

inline DatabaseOptions DefaultOptions(uint32_t signature_bytes) {
  DatabaseOptions options;
  options.ir2_signature =
      SignatureConfig{signature_bytes * 8, kHashesPerWord};
  return options;
}

inline BenchDataset BuildDataset(const char* name, SyntheticConfig config,
                                 const DatabaseOptions& options) {
  BenchDataset dataset;
  dataset.name = name;
  dataset.config = config;
  Stopwatch watch;
  dataset.objects = GenerateDataset(config);
  std::fprintf(stderr, "[%s] generated %zu objects in %.1fs\n", name,
               dataset.objects.size(), watch.ElapsedSeconds());
  watch.Reset();
  auto db = SpatialKeywordDatabase::Build(dataset.objects, options);
  IR2_CHECK(db.ok()) << db.status().ToString();
  dataset.db = std::move(db).value();
  std::fprintf(stderr, "[%s] built indexes in %.1fs\n", name,
               watch.ElapsedSeconds());
  return dataset;
}

inline BenchDataset BuildHotels(
    const DatabaseOptions& options = DefaultOptions(kHotelsSignatureBytes),
    double scale_multiplier = 1.0) {
  double scale = DatasetScale(kDefaultScale) * scale_multiplier;
  return BuildDataset("Hotels", HotelsLikeConfig(scale), options);
}

inline BenchDataset BuildRestaurants(
    const DatabaseOptions& options =
        DefaultOptions(kRestaurantsSignatureBytes),
    double scale_multiplier = 1.0) {
  double scale = DatasetScale(kDefaultScale) * scale_multiplier;
  return BuildDataset("Restaurants", RestaurantsLikeConfig(scale), options);
}

// Latency distribution shared by the bench binaries — replaces each
// binary's own sort-and-index percentile code with the obs histogram.
// Percentiles are bucket-interpolated (the sub-bucket layout bounds the
// quantization error well below what the figure tables print).
class LatencyHistogram {
 public:
  void Record(double value) { histogram_.Record(value); }
  uint64_t Count() const { return histogram_.Count(); }
  double P50() const { return histogram_.Percentile(0.50); }
  double P95() const { return histogram_.Percentile(0.95); }
  double P99() const { return histogram_.Percentile(0.99); }

 private:
  obs::Histogram histogram_;
};

// The bench binaries historically had their own algorithm enum; it is now
// the core one, so every bench (and its --algo flag) understands kAuto.
using Algo = ir2::Algorithm;

// Display names for the figure tables (the CLI spelling is
// AlgorithmName(): "rtree", "iio", "ir2", "mir2", "kctree", "auto").
inline const char* AlgoName(Algo algo) {
  switch (algo) {
    case Algo::kRTree:
      return "R-Tree";
    case Algo::kIio:
      return "IIO";
    case Algo::kIr2:
      return "IR2";
    case Algo::kMir2:
      return "MIR2";
    case Algo::kKcTree:
      return "KC-Tree";
    case Algo::kAuto:
      return "Auto";
  }
  return "?";
}

// Per-query means over a workload.
struct AlgoResult {
  double ms = 0;
  // Simulated disk time under the database's DiskModel — the paper-style
  // query-time metric (seek + rotation per random access, transfer per
  // block), priced over demand *and* speculative physical I/O.
  double sim_ms = 0;
  double random_reads = 0;
  double sequential_reads = 0;
  double speculative_reads = 0;
  double object_accesses = 0;
  double nodes_visited = 0;
  double false_positives = 0;
};

inline AlgoResult RunWorkload(SpatialKeywordDatabase& db, Algo algo,
                              const std::vector<DistanceFirstQuery>& queries) {
  QueryStats total;
  for (const DistanceFirstQuery& query : queries) {
    StatusOr<std::vector<QueryResult>> results = db.Query(query, algo, &total);
    IR2_CHECK(results.ok()) << results.status().ToString();
  }
  double n = queries.empty() ? 1.0 : static_cast<double>(queries.size());
  AlgoResult result;
  result.ms = total.seconds * 1000.0 / n;
  result.sim_ms = total.simulated_disk_ms / n;
  result.random_reads = static_cast<double>(total.io.random_reads) / n;
  result.sequential_reads =
      static_cast<double>(total.io.sequential_reads) / n;
  result.speculative_reads =
      static_cast<double>(total.speculative_io.TotalReads()) / n;
  result.object_accesses = static_cast<double>(total.objects_loaded) / n;
  result.nodes_visited = static_cast<double>(total.nodes_visited) / n;
  result.false_positives = static_cast<double>(total.false_positives) / n;
  return result;
}

// Fixed-width series printer: one row per algorithm, one column per x
// value — the shape of the paper's figures.
class FigurePrinter {
 public:
  FigurePrinter(std::string title, std::string x_label,
                std::vector<std::string> x_values)
      : title_(std::move(title)),
        x_label_(std::move(x_label)),
        x_values_(std::move(x_values)) {}

  void AddRow(const std::string& series, const std::vector<double>& values,
              const char* fmt = "%12.3f") {
    IR2_CHECK_EQ(values.size(), x_values_.size());
    Row row;
    row.series = series;
    char buf[64];
    for (double value : values) {
      std::snprintf(buf, sizeof(buf), fmt, value);
      row.cells.push_back(buf);
    }
    rows_.push_back(std::move(row));
  }

  void Print() const {
    std::printf("\n%s\n", title_.c_str());
    std::printf("  %-10s", x_label_.c_str());
    for (const std::string& x : x_values_) {
      std::printf("%12s", x.c_str());
    }
    std::printf("\n");
    for (const Row& row : rows_) {
      std::printf("  %-10s", row.series.c_str());
      for (const std::string& cell : row.cells) {
        std::printf("%12s", cell.c_str());
      }
      std::printf("\n");
    }
  }

 private:
  struct Row {
    std::string series;
    std::vector<std::string> cells;
  };
  std::string title_;
  std::string x_label_;
  std::vector<std::string> x_values_;
  std::vector<Row> rows_;
};

// Runs the standard four-algorithm sweep used by Figures 9/10/12/13: for
// each x value, `make_queries(x)` produces the workload; prints the
// (a) execution-time figure and (b) disk/object access figures.
inline void RunAlgorithmSweep(
    SpatialKeywordDatabase& db, const std::string& figure,
    const std::string& x_label, const std::vector<uint32_t>& xs,
    const std::function<std::vector<DistanceFirstQuery>(uint32_t)>&
        make_queries) {
  std::vector<std::string> x_names;
  for (uint32_t x : xs) x_names.push_back(std::to_string(x));

  const std::vector<Algo> algos = {Algo::kIio, Algo::kRTree, Algo::kIr2,
                                   Algo::kMir2};
  std::vector<std::vector<AlgoResult>> results(algos.size());
  for (uint32_t x : xs) {
    std::vector<DistanceFirstQuery> queries = make_queries(x);
    for (size_t a = 0; a < algos.size(); ++a) {
      results[a].push_back(RunWorkload(db, algos[a], queries));
    }
  }

  FigurePrinter time_figure(figure + "(a): mean execution time (ms/query)",
                            x_label, x_names);
  FigurePrinter sim_figure(
      figure + "(a): simulated disk time (ms/query, DiskModel)", x_label,
      x_names);
  FigurePrinter random_figure(
      figure + "(b): random disk block accesses (per query)", x_label,
      x_names);
  FigurePrinter seq_figure(
      figure + "(b): sequential disk block accesses (per query)", x_label,
      x_names);
  FigurePrinter object_figure(figure + ": object accesses (per query)",
                              x_label, x_names);
  for (size_t a = 0; a < algos.size(); ++a) {
    std::vector<double> ms, sim, random, seq, objects;
    for (const AlgoResult& r : results[a]) {
      ms.push_back(r.ms);
      sim.push_back(r.sim_ms);
      random.push_back(r.random_reads);
      seq.push_back(r.sequential_reads);
      objects.push_back(r.object_accesses);
    }
    time_figure.AddRow(AlgoName(algos[a]), ms);
    sim_figure.AddRow(AlgoName(algos[a]), sim);
    random_figure.AddRow(AlgoName(algos[a]), random, "%12.1f");
    seq_figure.AddRow(AlgoName(algos[a]), seq, "%12.1f");
    object_figure.AddRow(AlgoName(algos[a]), objects, "%12.1f");
  }
  time_figure.Print();
  sim_figure.Print();
  random_figure.Print();
  seq_figure.Print();
  object_figure.Print();
}

}  // namespace bench
}  // namespace ir2

#endif  // IR2TREE_BENCH_BENCH_UTIL_H_
