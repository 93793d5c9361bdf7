// Related-work comparison: sequential signature file [FC84] vs inverted
// index vs the IR2-Tree, on distance-first spatial keyword queries.
//
// Context: the paper builds on signature files, and the classic debate
// ([ZMR98], "Inverted Files Versus Signature Files") found flat signature
// files inferior to inverted files for text queries. This bench shows both
// effects on our substrate: the flat signature scan reads the whole file
// per query (sequential but linear in N, plus false-positive object
// loads), the inverted index reads only the query terms' lists — and the
// IR2-Tree's contribution is precisely that it embeds the signatures into
// the spatial hierarchy instead of a flat file, turning the linear scan
// into a pruned tree descent.

#include "bench/bench_util.h"
#include "text/signature_file.h"

namespace {

// Distance-first top-k via the flat signature file: scan for candidates,
// verify and rank by distance (the signature-file analogue of IIOTopK).
ir2::StatusOr<std::vector<ir2::QueryResult>> SsfTopK(
    const ir2::SignatureFile& file, const ir2::ObjectStore& objects,
    const ir2::Tokenizer& tokenizer, const ir2::DistanceFirstQuery& query,
    ir2::QueryStats* stats) {
  std::vector<std::string> keywords =
      tokenizer.NormalizeKeywords(query.keywords);
  std::vector<uint64_t> hashes;
  for (const std::string& keyword : keywords) {
    hashes.push_back(ir2::HashWord(keyword));
  }
  IR2_ASSIGN_OR_RETURN(std::vector<ir2::ObjectRef> candidates,
                       file.Candidates(hashes));
  const ir2::Rect target = query.Target();
  std::vector<ir2::QueryResult> verified;
  for (ir2::ObjectRef ref : candidates) {
    IR2_ASSIGN_OR_RETURN(ir2::StoredObject object, objects.Load(ref));
    if (stats != nullptr) ++stats->objects_loaded;
    if (!ir2::ContainsAllKeywords(tokenizer, object.text, keywords)) {
      if (stats != nullptr) ++stats->false_positives;
      continue;
    }
    ir2::Point location(object.coords);
    double distance = target.MinDist(location);
    verified.push_back(
        ir2::QueryResult{ref, object.id, distance, 0.0, -distance, location});
  }
  std::sort(verified.begin(), verified.end(),
            [](const ir2::QueryResult& a, const ir2::QueryResult& b) {
              return a.distance < b.distance;
            });
  if (verified.size() > query.k) verified.resize(query.k);
  return verified;
}

}  // namespace

int main() {
  double scale = ir2::DatasetScale(ir2::bench::kDefaultScale);
  ir2::SyntheticConfig config = ir2::RestaurantsLikeConfig(scale);
  std::vector<ir2::StoredObject> objects = ir2::GenerateDataset(config);

  ir2::DatabaseOptions options =
      ir2::bench::DefaultOptions(ir2::bench::kRestaurantsSignatureBytes);
  options.structures = {ir2::Structure::kIr2, ir2::Structure::kIio};
  auto db = ir2::SpatialKeywordDatabase::Build(objects, options).value();

  // Flat signature file over the same object refs.
  ir2::MemoryBlockDevice object_device, ssf_device;
  ir2::ObjectStoreWriter writer(&object_device);
  ir2::Tokenizer tokenizer;
  ir2::SignatureFileBuilder ssf_builder(
      &ssf_device, options.ir2_signature);
  for (const ir2::StoredObject& object : objects) {
    ir2::ObjectRef ref = writer.Append(object).value();
    std::vector<uint64_t> hashes;
    for (const std::string& word : tokenizer.DistinctTokens(object.text)) {
      hashes.push_back(ir2::HashWord(word));
    }
    ssf_builder.AddObject(ref, hashes);
  }
  IR2_CHECK_OK(writer.Finish());
  IR2_CHECK_OK(ssf_builder.Finish());
  ir2::ObjectStore store(&object_device, writer.bytes_written());
  auto ssf = ir2::SignatureFile::Open(&ssf_device).value();

  std::printf("\nRelated-work comparison: flat signature file [FC84] vs "
              "inverted index vs IR2-Tree\n(Restaurants, %zu objects, "
              "%u-byte signatures, k=10, 2 keywords)\n",
              objects.size(), options.ir2_signature.bytes());
  std::printf("  %-10s %10s %12s %12s %12s %10s\n", "algo", "ms/query",
              "random", "sequential", "objects", "false+");

  ir2::WorkloadConfig workload_config;
  workload_config.seed = 5150;
  workload_config.num_queries = 20;
  workload_config.num_keywords = 2;
  workload_config.k = 10;
  std::vector<ir2::DistanceFirstQuery> queries =
      ir2::GenerateWorkload(objects, tokenizer, workload_config);

  // Flat signature file.
  {
    ir2::QueryStats stats;
    ir2::IoStats before =
        ssf_device.stats() + object_device.stats();
    ir2::Stopwatch watch;
    for (const ir2::DistanceFirstQuery& query : queries) {
      IR2_CHECK(SsfTopK(*ssf, store, tokenizer, query, &stats).ok());
    }
    double seconds = watch.ElapsedSeconds();
    ir2::IoStats io = ssf_device.stats() + object_device.stats() - before;
    double n = queries.size();
    std::printf("  %-10s %10.3f %12.1f %12.1f %12.1f %10.1f\n", "SSF",
                seconds * 1000.0 / n, io.random_reads / n,
                io.sequential_reads / n, stats.objects_loaded / n,
                stats.false_positives / n);
  }
  // IIO and IR2 via the facade.
  for (auto [algo, name] :
       {std::pair{ir2::bench::Algo::kIio, "IIO"},
        std::pair{ir2::bench::Algo::kIr2, "IR2"}}) {
    ir2::QueryStats stats;
    ir2::bench::AlgoResult result =
        ir2::bench::RunWorkload(*db, algo, queries);
    std::printf("  %-10s %10.3f %12.1f %12.1f %12.1f %10.1f\n", name,
                result.ms, result.random_reads, result.sequential_reads,
                result.object_accesses, result.false_positives);
  }

  std::printf("\nShape check: the flat signature scan is linear in N "
              "(every signature\nblock read per query) and loads every "
              "false positive; the inverted index\ntouches only the query "
              "terms' lists [ZMR98]; the IR2-Tree turns the\nsignature "
              "scan into a spatially pruned descent.\n");
  return 0;
}
