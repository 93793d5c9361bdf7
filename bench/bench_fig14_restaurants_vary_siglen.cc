// Figure 14: varying the signature length on the Restaurants dataset.
// k = 10, 2 keywords; the sweep brackets the 8-byte default chosen for the
// terse (~14 distinct words) restaurant descriptions.
//
// Paper shape: as Figure 11 — fewer false positives with longer signatures,
// larger trees, no clear winner in time.

#include "bench/bench_util.h"

int main() {
  const std::vector<uint32_t> signature_bytes = {2, 4, 8, 16, 32};

  double scale = ir2::DatasetScale(ir2::bench::kDefaultScale);
  ir2::SyntheticConfig config = ir2::RestaurantsLikeConfig(scale);
  std::vector<ir2::StoredObject> objects = ir2::GenerateDataset(config);

  ir2::Tokenizer tokenizer;
  ir2::WorkloadConfig workload_config;
  workload_config.seed = 1414;
  workload_config.num_queries = 20;
  workload_config.num_keywords = 2;
  workload_config.k = 10;
  std::vector<ir2::DistanceFirstQuery> queries =
      ir2::GenerateWorkload(objects, tokenizer, workload_config);

  std::vector<std::string> x_names;
  std::vector<double> ir2_ms, mir2_ms, ir2_sim, mir2_sim;
  std::vector<double> ir2_objects, mir2_objects;
  std::vector<double> ir2_fp, mir2_fp, ir2_size, mir2_size;
  for (uint32_t bytes : signature_bytes) {
    x_names.push_back(std::to_string(bytes));
    ir2::DatabaseOptions options;
    options.ir2_signature =
        ir2::SignatureConfig{bytes * 8, ir2::bench::kHashesPerWord};
    options.structures = {ir2::Structure::kIr2, ir2::Structure::kMir2};
    auto db = ir2::SpatialKeywordDatabase::Build(objects, options).value();
    std::fprintf(stderr, "[Restaurants %uB] indexes built\n", bytes);

    ir2::bench::AlgoResult ir2_result =
        ir2::bench::RunWorkload(*db, ir2::bench::Algo::kIr2, queries);
    ir2::bench::AlgoResult mir2_result =
        ir2::bench::RunWorkload(*db, ir2::bench::Algo::kMir2, queries);
    ir2_ms.push_back(ir2_result.ms);
    mir2_ms.push_back(mir2_result.ms);
    ir2_sim.push_back(ir2_result.sim_ms);
    mir2_sim.push_back(mir2_result.sim_ms);
    ir2_objects.push_back(ir2_result.object_accesses);
    mir2_objects.push_back(mir2_result.object_accesses);
    ir2_fp.push_back(ir2_result.false_positives);
    mir2_fp.push_back(mir2_result.false_positives);
    ir2_size.push_back(db->Ir2TreeBytes() / (1024.0 * 1024.0));
    mir2_size.push_back(db->Mir2TreeBytes() / (1024.0 * 1024.0));
  }

  ir2::bench::FigurePrinter time_figure(
      "Figure 14(a) (Restaurants, k=10, 2 keywords): execution time "
      "(ms/query)",
      "sig bytes", x_names);
  time_figure.AddRow("IR2", ir2_ms);
  time_figure.AddRow("MIR2", mir2_ms);
  time_figure.Print();

  ir2::bench::FigurePrinter sim_figure(
      "Figure 14(a): simulated disk time (ms/query, DiskModel)",
      "sig bytes", x_names);
  sim_figure.AddRow("IR2", ir2_sim);
  sim_figure.AddRow("MIR2", mir2_sim);
  sim_figure.Print();

  ir2::bench::FigurePrinter object_figure(
      "Figure 14(b): object accesses (per query)", "sig bytes", x_names);
  object_figure.AddRow("IR2", ir2_objects, "%12.1f");
  object_figure.AddRow("MIR2", mir2_objects, "%12.1f");
  object_figure.Print();

  ir2::bench::FigurePrinter fp_figure(
      "Figure 14 (supplement): signature false positives (per query)",
      "sig bytes", x_names);
  fp_figure.AddRow("IR2", ir2_fp, "%12.1f");
  fp_figure.AddRow("MIR2", mir2_fp, "%12.1f");
  fp_figure.Print();

  ir2::bench::FigurePrinter size_figure(
      "Figure 14 (supplement): index size (MB)", "sig bytes", x_names);
  size_figure.AddRow("IR2", ir2_size, "%12.1f");
  size_figure.AddRow("MIR2", mir2_size, "%12.1f");
  size_figure.Print();
  return 0;
}
