// Micro-benchmarks (google-benchmark) of the primitive operations every
// query composes: signature construction / superimposition / containment,
// tokenization, posting-list decoding, R-Tree insert and incremental NN
// steps, and the block device + buffer pool.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "core/ir2_tree.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "datagen/zipf.h"
#include "obs/trace.h"
#include "rtree/incremental_nn.h"
#include "rtree/node_cache.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "text/inverted_index.h"
#include "text/signature.h"
#include "text/tokenizer.h"

namespace ir2 {
namespace {

void BM_SignatureBuild(benchmark::State& state) {
  const uint32_t bits = static_cast<uint32_t>(state.range(0));
  const uint32_t words = static_cast<uint32_t>(state.range(1));
  Rng rng(1);
  std::vector<uint64_t> hashes(words);
  for (uint64_t& hash : hashes) hash = rng.NextUint64();
  SignatureConfig config{bits, 3};
  for (auto _ : state) {
    Signature sig = MakeSignatureFromHashes(hashes, config);
    benchmark::DoNotOptimize(sig);
  }
  state.SetItemsProcessed(state.iterations() * words);
}
BENCHMARK(BM_SignatureBuild)->Args({64, 14})->Args({1512, 349});

void BM_SignatureContainment(benchmark::State& state) {
  const uint32_t bits = static_cast<uint32_t>(state.range(0));
  Rng rng(2);
  SignatureConfig config{bits, 3};
  std::vector<uint64_t> doc_words(40), query_words(2);
  for (uint64_t& w : doc_words) w = rng.NextUint64();
  for (uint64_t& w : query_words) w = rng.NextUint64();
  Signature doc = MakeSignatureFromHashes(doc_words, config);
  Signature query = MakeSignatureFromHashes(query_words, config);
  std::vector<uint8_t> payload(doc.bytes().begin(), doc.bytes().end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(PayloadContainsSignature(payload, query));
  }
}
BENCHMARK(BM_SignatureContainment)->Arg(64)->Arg(512)->Arg(1512);

// The word-wide kernel at the paper's two signature widths: 64 bits
// (Restaurants) is a single uint64 AND+compare, 1512 bits (Hotels) is a
// 24-word loop. Bytes/s here is what bounds the signature filter.
void BM_SignatureContainsAllOf(benchmark::State& state) {
  const uint32_t bits = static_cast<uint32_t>(state.range(0));
  Rng rng(9);
  SignatureConfig config{bits, 3};
  std::vector<uint64_t> doc_words(40), query_words(2);
  for (uint64_t& w : doc_words) w = rng.NextUint64();
  for (uint64_t& w : query_words) w = rng.NextUint64();
  Signature doc = MakeSignatureFromHashes(doc_words, config);
  Signature query = MakeSignatureFromHashes(query_words, config);
  // The kernel's claim to speed: storage really is whole 64-bit words.
  IR2_CHECK_EQ(doc.words().size(), (bits + 63) / 64);
  IR2_CHECK_EQ(query.words().size(), doc.words().size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(doc.ContainsAllOf(query));
  }
  state.SetBytesProcessed(state.iterations() * doc.num_bytes());
}
BENCHMARK(BM_SignatureContainsAllOf)->Arg(64)->Arg(1512);

void BM_SignatureSuperimpose(benchmark::State& state) {
  const uint32_t bits = static_cast<uint32_t>(state.range(0));
  Signature a(bits), b(bits);
  Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    b.SetBit(static_cast<uint32_t>(rng.NextUint64(bits)));
  }
  for (auto _ : state) {
    a.Superimpose(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_SignatureSuperimpose)->Arg(64)->Arg(1512)->Arg(16384);

void BM_Tokenize(benchmark::State& state) {
  Tokenizer tokenizer;
  std::string text;
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    text += "word" + std::to_string(rng.NextUint64(1000)) + " ";
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(text));
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_Tokenize);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(static_cast<uint64_t>(state.range(0)), 1.0);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(73855);

void BM_PostingListDecode(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  MemoryBlockDevice device;
  std::vector<StoredObject> objects(n);
  std::vector<ObjectRef> refs(n);
  for (uint32_t i = 0; i < n; ++i) {
    objects[i].text = "term";
    refs[i] = i * 37;
  }
  InvertedIndexBuilder builder(&device);
  IR2_CHECK_OK(builder.Build(CorpusTerms::Build(Tokenizer(), objects), refs));
  auto index = InvertedIndex::Open(&device).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->RetrieveList("term").value());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PostingListDecode)->Arg(1000)->Arg(100000);

void BM_RTreeInsert(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    state.PauseTiming();
    MemoryBlockDevice device;
    BufferPool pool(&device, 1 << 14);
    RTree tree(&pool, RTreeOptions{});
    IR2_CHECK_OK(tree.Init());
    state.ResumeTiming();
    for (uint32_t i = 0; i < 2000; ++i) {
      IR2_CHECK_OK(tree.Insert(
          i, Rect::ForPoint(
                 Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)))));
    }
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_RTreeInsert);

void BM_IncrementalNN(benchmark::State& state) {
  MemoryBlockDevice device;
  BufferPool pool(&device, 1 << 14);
  RTree tree(&pool, RTreeOptions{});
  IR2_CHECK_OK(tree.Init());
  Rng rng(7);
  for (uint32_t i = 0; i < 20000; ++i) {
    IR2_CHECK_OK(tree.Insert(
        i, Rect::ForPoint(
               Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)))));
  }
  for (auto _ : state) {
    IncrementalNNCursor cursor(&tree, Point(500, 500));
    for (int i = 0; i < 10; ++i) {
      benchmark::DoNotOptimize(cursor.Next().value());
    }
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_IncrementalNN);

// An Ir2Tree whose nodes carry signature payloads, shared by the node
// decode benches below.
struct DecodeBenchTree {
  MemoryBlockDevice device;
  BufferPool pool{&device, 1 << 14};
  Ir2Tree tree{&pool, RTreeOptions{}, SignatureConfig{512, 3}};

  DecodeBenchTree() {
    IR2_CHECK_OK(tree.Init());
    Rng rng(10);
    std::vector<uint64_t> hashes(20);
    for (uint32_t i = 0; i < 3000; ++i) {
      for (uint64_t& hash : hashes) hash = rng.NextUint64();
      IR2_CHECK_OK(tree.InsertObject(
          i,
          Rect::ForPoint(
              Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000))),
          hashes));
    }
  }
};

// The per-node decode tax of a traversal: LoadNode re-parses every entry
// (rect fields plus a payload vector allocation each) even when the raw
// block is resident in the buffer pool. This is the cost a NodeCache hit
// skips.
void BM_NodeDecode(benchmark::State& state) {
  DecodeBenchTree bench;
  const BlockId root = bench.tree.root_id();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench.tree.LoadNode(root).value());
  }
}
BENCHMARK(BM_NodeDecode);

// The same load served by the decoded-node cache: a shared_ptr copy of the
// already-decoded Node.
void BM_NodeCacheHit(benchmark::State& state) {
  DecodeBenchTree bench;
  NodeCache cache;
  bench.tree.SetNodeCache(&cache);
  const BlockId root = bench.tree.root_id();
  IR2_CHECK_OK(bench.tree.LoadNodeShared(root).status());  // Populate.
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench.tree.LoadNodeShared(root).value());
  }
  bench.tree.SetNodeCache(nullptr);
}
BENCHMARK(BM_NodeCacheHit);

// The cost of span tracing on a whole warm query: BM_UntracedQuery is the
// production configuration (one relaxed flag load per instrumentation
// site); BM_TracedQuery installs a tracer, so every heap pop, node expand,
// signature test and verification records into the ring. The delta between
// the two is the price of turning tracing on — the untraced number must
// stay indistinguishable from the pre-observability baseline.
struct QueryBenchDb {
  std::vector<StoredObject> objects;
  std::unique_ptr<SpatialKeywordDatabase> db;
  DistanceFirstQuery query;

  QueryBenchDb() {
    objects = GenerateDataset(HotelsLikeConfig(0.005));
    DatabaseOptions options;
    options.ir2_signature = SignatureConfig{512, 3};
    options.cold_queries = false;  // Warm: isolate CPU cost from disk noise.
    auto built = SpatialKeywordDatabase::Build(objects, options);
    IR2_CHECK(built.ok()) << built.status().ToString();
    db = std::move(built).value();
    WorkloadConfig workload;
    workload.seed = 3;
    workload.num_queries = 1;
    workload.num_keywords = 2;
    workload.k = 10;
    query = GenerateWorkload(objects, db->tokenizer(), workload).front();
  }

  static QueryBenchDb& Get() {
    static QueryBenchDb instance;
    return instance;
  }
};

void BM_UntracedQuery(benchmark::State& state) {
  QueryBenchDb& bench = QueryBenchDb::Get();
  QueryStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench.db->QueryIr2(bench.query, &stats));
  }
}
BENCHMARK(BM_UntracedQuery);

void BM_TracedQuery(benchmark::State& state) {
  QueryBenchDb& bench = QueryBenchDb::Get();
  obs::Tracer tracer;
  obs::ScopedTracer scoped(&tracer);
  QueryStats stats;
  for (auto _ : state) {
    tracer.Clear();  // Bound memory; keeps every Record on the fast path.
    benchmark::DoNotOptimize(bench.db->QueryIr2(bench.query, &stats));
  }
}
BENCHMARK(BM_TracedQuery);

void BM_BufferPoolRead(benchmark::State& state) {
  MemoryBlockDevice device;
  (void)device.Allocate(256).value();
  BufferPool pool(&device, 128);
  std::vector<uint8_t> buffer(device.block_size());
  Rng rng(8);
  for (auto _ : state) {
    IR2_CHECK_OK(pool.Read(rng.NextUint64(256), buffer));
  }
  state.SetBytesProcessed(state.iterations() * device.block_size());
}
BENCHMARK(BM_BufferPoolRead);

}  // namespace
}  // namespace ir2

BENCHMARK_MAIN();
