// Table 1: dataset details — size (MB), total objects, average distinct
// words per object, vocabulary size, and average disk blocks per object —
// for the synthetic Hotels-like and Restaurants-like datasets.
//
// Paper values (full scale):
//   Hotels      55.2 MB  129,319 objects  349 words/object  53,906 vocab  2 blocks
//   Restaurants 61.3 MB  456,288 objects   14 words/object  73,855 vocab  1 block
// (The paper's Hotels "size" column is inconsistent with 349 words/object;
// we follow the word statistics, which drive every experiment. See
// EXPERIMENTS.md.)

#include "bench/bench_util.h"

namespace {

void PrintRow(const ir2::bench::BenchDataset& dataset) {
  const ir2::DatasetStats& stats = dataset.db->stats();
  std::printf("  %-12s %9.1f %12llu %15.1f %14llu %12.2f\n",
              dataset.name.c_str(),
              stats.object_file_bytes / (1024.0 * 1024.0),
              static_cast<unsigned long long>(stats.num_objects),
              stats.AvgDistinctWordsPerObject(),
              static_cast<unsigned long long>(stats.vocabulary_size),
              stats.AvgBlocksPerObject());
}

}  // namespace

int main() {
  // Only the object file matters here; skip the index builds for speed.
  ir2::DatabaseOptions options;
  options.structures = {};

  ir2::bench::BenchDataset hotels = ir2::bench::BuildHotels(options);
  ir2::bench::BenchDataset restaurants =
      ir2::bench::BuildRestaurants(options);

  std::printf("\nTable 1: dataset details (IR2_SCALE=%.3g of paper size)\n",
              ir2::DatasetScale(ir2::bench::kDefaultScale));
  std::printf("  %-12s %9s %12s %15s %14s %12s\n", "Dataset", "Size(MB)",
              "#objects", "words/object", "vocabulary",
              "blocks/object");
  PrintRow(hotels);
  PrintRow(restaurants);
  return 0;
}
