// EXPLAIN one spatial keyword query: build a small synthetic dataset,
// run a distance-first top-k query through the chosen algorithm, and
// print the observability report — traversal counters, per-level
// signature pruning, the demand/physical/speculative I/O split, the
// DiskModel time breakdown, pool and cache hit ratios, and a span
// summary. See docs/observability.md.
//
//   ./explain_query [--algo=rtree|iio|ir2|mir2|auto] [--k=N]
//                   [--keywords=word1,word2] [--prefetch]
//                   [--trace=FILE]    write the query's Chrome trace JSON
//                   [--metrics=FILE]  write the Prometheus metrics dump

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/database.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "obs/metrics.h"

namespace {

using ir2::SpatialKeywordDatabase;

std::vector<std::string> SplitCommas(const std::string& arg) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= arg.size()) {
    size_t comma = arg.find(',', start);
    if (comma == std::string::npos) comma = arg.size();
    if (comma > start) out.push_back(arg.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--algo=rtree|iio|ir2|mir2|auto] [--k=N]\n"
               "          [--keywords=word1,word2] [--prefetch]\n"
               "          [--trace=FILE] [--metrics=FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ir2::Algorithm algo = ir2::Algorithm::kIr2;
  uint32_t k = 10;
  std::string keywords_arg, trace_path, metrics_path;
  bool prefetch = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--algo=", 7) == 0) {
      if (!ir2::ParseAlgorithm(arg + 7, &algo)) {
        return Usage(argv[0]);
      }
    } else if (std::strncmp(arg, "--k=", 4) == 0) {
      k = static_cast<uint32_t>(std::atoi(arg + 4));
      if (k == 0) return Usage(argv[0]);
    } else if (std::strncmp(arg, "--keywords=", 11) == 0) {
      keywords_arg = arg + 11;
    } else if (std::strcmp(arg, "--prefetch") == 0) {
      prefetch = true;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      trace_path = arg + 8;
    } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
      metrics_path = arg + 10;
    } else {
      return Usage(argv[0]);
    }
  }

  // A small hotels-like dataset — big enough for a multi-level tree, small
  // enough to build in well under a second.
  ir2::SyntheticConfig config = ir2::HotelsLikeConfig(0.02);
  std::vector<ir2::StoredObject> objects = ir2::GenerateDataset(config);
  ir2::DatabaseOptions options;
  options.ir2_signature = ir2::SignatureConfig{64 * 8, 3};
  options.prefetch = prefetch;
  auto db = SpatialKeywordDatabase::Build(objects, options);
  if (!db.ok()) {
    std::fprintf(stderr, "build failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "built indexes over %zu objects\n", objects.size());

  // Default query: drawn from the workload generator so it has matches.
  ir2::WorkloadConfig workload;
  workload.seed = 7;
  workload.num_queries = 1;
  workload.num_keywords = 2;
  workload.k = k;
  std::vector<ir2::DistanceFirstQuery> queries =
      ir2::GenerateWorkload(objects, (*db)->tokenizer(), workload);
  ir2::DistanceFirstQuery query = queries.front();
  query.k = k;
  if (!keywords_arg.empty()) {
    query.keywords = SplitCommas(keywords_arg);
  }

  auto result = (*db)->Explain(query, algo);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::fputs(result->report.ToString().c_str(), stdout);

  if (!trace_path.empty()) {
    if (!WriteFile(trace_path, result->trace_json)) return 1;
    std::printf("\nwrote trace to %s (load in ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    const std::string text =
        ir2::obs::MetricsRegistry::Global().RenderPrometheus();
    if (!WriteFile(metrics_path, text)) return 1;
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }
  return 0;
}
