// Figure 11: varying the signature length on the Hotels dataset. k = 10,
// 2 keywords; lengths are the leaf widths (the MIR2-Tree derives longer
// upper-level widths from each, as in the paper).
//
// Paper shape: longer signatures cut false positives (fewer object and
// inner-node accesses) but inflate the trees, so extra blocks per node push
// back — there is no clear monotone trend in execution time.

#include "bench/bench_util.h"

int main() {
  const std::vector<uint32_t> signature_bytes = {63, 126, 189, 252, 315};

  // Dataset generated once; IR2/MIR2 rebuilt per signature length.
  double scale = ir2::DatasetScale(ir2::bench::kDefaultScale);
  ir2::SyntheticConfig config = ir2::HotelsLikeConfig(scale);
  std::vector<ir2::StoredObject> objects = ir2::GenerateDataset(config);

  ir2::Tokenizer tokenizer;
  ir2::WorkloadConfig workload_config;
  workload_config.seed = 1111;
  workload_config.num_queries = 20;
  workload_config.num_keywords = 2;
  workload_config.k = 10;
  std::vector<ir2::DistanceFirstQuery> queries =
      ir2::GenerateWorkload(objects, tokenizer, workload_config);

  std::vector<std::string> x_names;
  std::vector<double> ir2_ms, mir2_ms, ir2_sim, mir2_sim;
  std::vector<double> ir2_objects, mir2_objects;
  std::vector<double> ir2_random, mir2_random, ir2_seq, mir2_seq;
  std::vector<double> ir2_size, mir2_size;
  for (uint32_t bytes : signature_bytes) {
    x_names.push_back(std::to_string(bytes));
    ir2::DatabaseOptions options;
    options.ir2_signature =
        ir2::SignatureConfig{bytes * 8, ir2::bench::kHashesPerWord};
    options.structures = {ir2::Structure::kIr2, ir2::Structure::kMir2};
    auto db = ir2::SpatialKeywordDatabase::Build(objects, options).value();
    std::fprintf(stderr, "[Hotels %uB] indexes built\n", bytes);

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
    ir2_random.push_back(ir2_result.random_reads);
    mir2_random.push_back(mir2_result.random_reads);
    ir2_seq.push_back(ir2_result.sequential_reads);
    mir2_seq.push_back(mir2_result.sequential_reads);
    ir2_size.push_back(db->Ir2TreeBytes() / (1024.0 * 1024.0));
    mir2_size.push_back(db->Mir2TreeBytes() / (1024.0 * 1024.0));
  }

  ir2::bench::FigurePrinter time_figure(
      "Figure 11(a) (Hotels, k=10, 2 keywords): execution time (ms/query)",
      "sig bytes", x_names);
  time_figure.AddRow("IR2", ir2_ms);
  time_figure.AddRow("MIR2", mir2_ms);
  time_figure.Print();

  ir2::bench::FigurePrinter sim_figure(
      "Figure 11(a): simulated disk time (ms/query, DiskModel)",
      "sig bytes", x_names);
  sim_figure.AddRow("IR2", ir2_sim);
  sim_figure.AddRow("MIR2", mir2_sim);
  sim_figure.Print();

  ir2::bench::FigurePrinter object_figure(
      "Figure 11(b): object accesses (per query)", "sig bytes", x_names);
  object_figure.AddRow("IR2", ir2_objects, "%12.1f");
  object_figure.AddRow("MIR2", mir2_objects, "%12.1f");
  object_figure.Print();

  ir2::bench::FigurePrinter io_figure(
      "Figure 11 (supplement): disk block accesses (per query)",
      "sig bytes", x_names);
  io_figure.AddRow("IR2 rand", ir2_random, "%12.1f");
  io_figure.AddRow("IR2 seq", ir2_seq, "%12.1f");
  io_figure.AddRow("MIR2 rand", mir2_random, "%12.1f");
  io_figure.AddRow("MIR2 seq", mir2_seq, "%12.1f");
  io_figure.Print();

  ir2::bench::FigurePrinter size_figure(
      "Figure 11 (supplement): index size (MB)", "sig bytes", x_names);
  size_figure.AddRow("IR2", ir2_size, "%12.1f");
  size_figure.AddRow("MIR2", mir2_size, "%12.1f");
  size_figure.Print();
  return 0;
}
