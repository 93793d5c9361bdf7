// Ablation: R-Tree construction heuristics under the IR2-Tree.
//
// The paper uses Guttman's quadratic split. This bench swaps in the
// R*-Tree improvements — margin/overlap-driven splits and forced
// reinsertion — and measures what tree quality buys the spatial-keyword
// workload: build time, index size, and per-query disk/object cost.

#include "bench/bench_util.h"

int main() {
  double scale = ir2::DatasetScale(ir2::bench::kDefaultScale);
  ir2::SyntheticConfig config = ir2::RestaurantsLikeConfig(scale);
  std::vector<ir2::StoredObject> objects = ir2::GenerateDataset(config);

  ir2::Tokenizer tokenizer;
  ir2::WorkloadConfig workload_config;
  workload_config.seed = 6000;
  workload_config.num_queries = 20;
  workload_config.num_keywords = 2;
  workload_config.k = 10;
  std::vector<ir2::DistanceFirstQuery> queries =
      ir2::GenerateWorkload(objects, tokenizer, workload_config);

  struct Variant {
    const char* name;
    ir2::SplitPolicy policy;
    double reinsert;
  };
  const Variant variants[] = {
      {"quadratic", ir2::SplitPolicy::kQuadratic, 0.0},
      {"R* split", ir2::SplitPolicy::kRStar, 0.0},
      {"R* + reinsert", ir2::SplitPolicy::kRStar, 0.3},
  };

  std::printf("\nAblation: insertion heuristics (Restaurants IR2-Tree, "
              "%zu objects, k=10, 2 keywords)\n",
              objects.size());
  std::printf("  %-14s %10s %10s %10s %12s %12s %9s\n", "variant",
              "build(s)", "size(MB)", "ms/query", "random", "sequential",
              "objects");
  for (const Variant& variant : variants) {
    ir2::DatabaseOptions options =
        ir2::bench::DefaultOptions(ir2::bench::kRestaurantsSignatureBytes);
    options.tree_options.split_policy = variant.policy;
    options.tree_options.forced_reinsert_fraction = variant.reinsert;
    options.structures = {ir2::Structure::kIr2};

    ir2::Stopwatch watch;
    auto db = ir2::SpatialKeywordDatabase::Build(objects, options).value();
    double build_seconds = watch.ElapsedSeconds();
    ir2::bench::AlgoResult result =
        ir2::bench::RunWorkload(*db, ir2::bench::Algo::kIr2, queries);
    std::printf("  %-14s %10.2f %10.1f %10.3f %12.1f %12.1f %9.1f\n",
                variant.name, build_seconds,
                db->Ir2TreeBytes() / 1048576.0, result.ms,
                result.random_reads, result.sequential_reads,
                result.object_accesses);
  }
  std::printf("\nShape check: R* heuristics pack tighter, less-overlapping "
              "nodes, cutting\nthe nodes a query descends; forced "
              "reinsertion costs build time for a\nfurther packing gain — "
              "while signature pruning dominates object accesses.\n");
  return 0;
}
