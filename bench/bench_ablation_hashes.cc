// Ablation: hashes per word (the k of superimposed coding).
//
// The paper's signature lengths imply k = 3 (189 B = 3*349/ln2 bits for
// Hotels; 8 B = 3*14/ln2 for Restaurants). This bench fixes the signature
// *size* at the Restaurants default and sweeps k: too few hashes waste the
// bits (high per-word false-positive rate), too many saturate the
// signature; the optimum sits where the fill is ~50%.

#include "bench/bench_util.h"

int main() {
  double scale = ir2::DatasetScale(ir2::bench::kDefaultScale);
  ir2::SyntheticConfig config = ir2::RestaurantsLikeConfig(scale);
  std::vector<ir2::StoredObject> objects = ir2::GenerateDataset(config);

  ir2::Tokenizer tokenizer;
  ir2::WorkloadConfig workload_config;
  workload_config.seed = 555;
  workload_config.num_queries = 20;
  workload_config.num_keywords = 2;
  workload_config.k = 10;
  std::vector<ir2::DistanceFirstQuery> queries =
      ir2::GenerateWorkload(objects, tokenizer, workload_config);

  const uint32_t signature_bits = ir2::bench::kRestaurantsSignatureBytes * 8;
  std::printf("\nAblation: hashes per word, fixed %u-bit signatures "
              "(Restaurants, k=10, 2 keywords)\n",
              signature_bits);
  std::printf("  %-3s %12s %12s %14s %18s\n", "k", "ms/query",
              "objects", "false pos.", "predicted fp rate");
  for (uint32_t hashes = 1; hashes <= 6; ++hashes) {
    ir2::DatabaseOptions options;
    options.ir2_signature = ir2::SignatureConfig{signature_bits, hashes};
    options.structures = {ir2::Structure::kIr2};
    auto db = ir2::SpatialKeywordDatabase::Build(objects, options).value();

    ir2::bench::AlgoResult result =
        ir2::bench::RunWorkload(*db, ir2::bench::Algo::kIr2, queries);
    double predicted = ir2::ExpectedFalsePositiveRate(
        db->stats().AvgDistinctWordsPerObject(), signature_bits, hashes);
    std::printf("  %-3u %12.3f %12.1f %14.1f %18.4f\n", hashes, result.ms,
                result.object_accesses, result.false_positives, predicted);
  }
  std::printf("\nShape check: the per-word false-positive bound "
              "(1-e^{-kD/F})^k is minimized\nnear k = F ln2 / D (~3 for "
              "these parameters); measured object accesses track it.\n");
  return 0;
}
