// Ablation: IR2-Tree node layout (Section IV / VI).
//
// The paper keeps the plain R-Tree fan-out (113 children) and lets
// signature-carrying nodes spill into extra contiguous disk blocks, arguing
// the overhead is minor because the extra blocks are read sequentially.
// The alternative is to shrink the fan-out so a node (entries + signatures)
// fits one block, making the tree deeper.
//
// This bench builds both layouts over the Hotels dataset and compares
// query cost — regenerating the claim "the extra disk block overhead adds
// to the size ... but has little effect on the execution time".

#include "bench/bench_util.h"

int main() {
  double scale = ir2::DatasetScale(ir2::bench::kDefaultScale);
  ir2::SyntheticConfig config = ir2::HotelsLikeConfig(scale);
  std::vector<ir2::StoredObject> objects = ir2::GenerateDataset(config);

  ir2::Tokenizer tokenizer;
  ir2::WorkloadConfig workload_config;
  workload_config.seed = 4242;
  workload_config.num_queries = 30;
  workload_config.num_keywords = 2;
  workload_config.k = 10;
  std::vector<ir2::DistanceFirstQuery> queries =
      ir2::GenerateWorkload(objects, tokenizer, workload_config);

  const uint32_t signature_bytes = ir2::bench::kHotelsSignatureBytes;
  struct Layout {
    const char* name;
    uint32_t capacity;  // 0 = paper layout (113 entries, multi-block).
  };
  // One 4096-byte block fits (4096-8)/(36+189) = 18 signature entries.
  const Layout layouts[] = {{"113/multi-block", 0}, {"18/one-block", 18}};

  std::printf("\nAblation: IR2-Tree node layout (Hotels, k=10, 2 keywords, "
              "%u-byte signatures)\n",
              signature_bytes);
  std::printf("  %-16s %7s %7s %9s %10.10s %10.10s %10s %9s\n", "layout",
              "fanout", "height", "size(MB)", "ms/query", "random",
              "sequential", "objects");
  for (const Layout& layout : layouts) {
    ir2::DatabaseOptions options;
    options.ir2_signature =
        ir2::SignatureConfig{signature_bytes * 8, ir2::bench::kHashesPerWord};
    options.tree_options.capacity_override = layout.capacity;
    options.structures = {ir2::Structure::kIr2};
    auto db = ir2::SpatialKeywordDatabase::Build(objects, options).value();
    std::fprintf(stderr, "[%s] built\n", layout.name);

    ir2::bench::AlgoResult result =
        ir2::bench::RunWorkload(*db, ir2::bench::Algo::kIr2, queries);
    std::printf("  %-16s %7u %7u %9.1f %10.3f %10.1f %10.1f %9.1f\n",
                layout.name, db->ir2_tree()->node_capacity(),
                db->ir2_tree()->height() + 1,
                db->Ir2TreeBytes() / (1024.0 * 1024.0), result.ms,
                result.random_reads, result.sequential_reads,
                result.object_accesses);
  }
  std::printf(
      "\nShape check: the one-block layout is smaller but deeper; the "
      "paper's\nmulti-block layout trades sequential reads for fewer "
      "random seeks.\n");
  return 0;
}
