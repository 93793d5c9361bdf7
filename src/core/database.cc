#include "core/database.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "common/parallel.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "core/general_search.h"
#include "core/iio.h"
#include "core/ir2_search.h"
#include "core/kc_tree.h"
#include "core/rtree_baseline.h"
#include "core/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtree/node_cache.h"
#include "rtree/tree_stats.h"
#include "text/corpus_terms.h"

namespace ir2 {

double DatasetStats::AvgBlocksPerObject() const {
  if (num_objects == 0) {
    return 0.0;
  }
  double record_bytes = static_cast<double>(object_file_bytes) /
                        static_cast<double>(num_objects);
  // A b-byte record starting at a uniform offset crosses (b - 1) / bs block
  // boundaries in expectation, touching 1 + (b - 1) / bs blocks.
  return 1.0 + (record_bytes - 1.0) / 4096.0;
}

namespace {

// The tree slots, in table order.
constexpr Structure kTreeStructures[] = {Structure::kRTree, Structure::kIr2,
                                         Structure::kMir2, Structure::kKcTree};

// The structure each fixed algorithm runs over, indexed by Algorithm.
constexpr Structure kAlgorithmStructure[kNumPlannableAlgorithms] = {
    Structure::kRTree, Structure::kIio, Structure::kIr2, Structure::kMir2,
    Structure::kKcTree};

}  // namespace

SpatialKeywordDatabase::~SpatialKeywordDatabase() {
  // Scheduler workers read through the pools and submit to the async
  // backends: stop them, then the backends. The trees go next, while their
  // pools, the object store and the KC vocabulary are alive; the remaining
  // members tear down in reverse declaration order.
  for (StructureSlot& slot : slots_) {
    slot.scheduler.reset();
  }
  async_backends_.clear();
  for (StructureSlot& slot : slots_) {
    slot.tree.reset();
  }
}

std::unique_ptr<RTreeBase> SpatialKeywordDatabase::MakeTree(
    Structure s, BufferPool* pool) const {
  const RTreeOptions& tree_options = options_.tree_options;
  switch (s) {
    case kRTree:
      return std::make_unique<RTree>(pool, tree_options);
    case kIr2:
      return std::make_unique<Ir2Tree>(pool, tree_options,
                                       options_.ir2_signature);
    case kMir2:
      return std::make_unique<Mir2Tree>(pool, tree_options,
                                        options_.mir2_scheme,
                                        object_store_.get(), &tokenizer_);
    case kKcTree:
      return std::make_unique<KcTree>(pool, tree_options, kc_vocab_.get());
    case kObjects:
    case kIio:
      break;
  }
  return nullptr;
}

StatusOr<std::unique_ptr<SpatialKeywordDatabase>> SpatialKeywordDatabase::
    Build(std::span<const StoredObject> objects,
          const DatabaseOptions& options) {
  return Build(objects, options, HardwareWorkers());
}

StatusOr<std::unique_ptr<SpatialKeywordDatabase>> SpatialKeywordDatabase::
    Build(std::span<const StoredObject> objects, const DatabaseOptions& options,
          size_t workers) {
  std::unique_ptr<SpatialKeywordDatabase> db(new SpatialKeywordDatabase());
  db->options_ = options;
  db->tokenizer_ = Tokenizer(options.stopwords);
  // The object file and the IIO read through pools only so prefetched
  // blocks have somewhere to land. Without prefetching those pools run in
  // bypass mode (capacity 0): no caching layer, physical counts
  // byte-identical to reading the device directly.
  const size_t stream_pool_blocks = options.prefetch ? options.pool_blocks : 0;

  // 1. Object file (the paper's tab-delimited plain text file).
  StructureSlot& object_slot = db->slot(kObjects);
  object_slot.device = std::make_unique<MemoryBlockDevice>();
  ObjectStoreWriter writer(object_slot.device.get());
  std::vector<ObjectRef> refs;
  refs.reserve(objects.size());
  for (const StoredObject& object : objects) {
    IR2_ASSIGN_OR_RETURN(ObjectRef ref, writer.Append(object));
    refs.push_back(ref);
  }
  IR2_RETURN_IF_ERROR(writer.Finish());
  object_slot.pool = std::make_unique<BufferPool>(object_slot.device.get(),
                                                  stream_pool_blocks);
  db->object_store_ = std::make_unique<ObjectStore>(object_slot.pool.get(),
                                                    writer.bytes_written());

  // 2. Tokenize once into term ids; gather corpus statistics.
  const CorpusTerms corpus = CorpusTerms::Build(db->tokenizer_, objects);
  DatasetStats& stats = db->stats_;
  stats.num_objects = objects.size();
  stats.total_tokens = corpus.total_tokens();
  stats.total_distinct_words = corpus.num_pairs();
  stats.vocabulary_size = corpus.num_terms();
  stats.object_file_bytes = writer.bytes_written();
  stats.object_file_blocks = object_slot.device->NumBlocks();

  // 3. Structural options the trees are made with, resolved up front. The
  // MIR2 per-level widths, unless given, derive from the dataset statistics
  // (the probe tree only computes the node capacity).
  DatabaseOptions& resolved = db->options_;
  if (options.structures.Has(kMir2) && resolved.mir2_scheme.per_level.empty()) {
    RTree capacity_probe(object_slot.pool.get(), options.tree_options);
    const uint32_t capacity = capacity_probe.node_capacity();
    const uint32_t max_levels =
        2 + static_cast<uint32_t>(
                std::log(std::max<double>(2.0, objects.size())) /
                std::log(std::max(2.0, 0.7 * capacity)));
    resolved.mir2_scheme = DeriveMultilevelScheme(
        options.ir2_signature.bits, options.ir2_signature.hashes_per_word,
        stats.AvgDistinctWordsPerObject(), stats.vocabulary_size, capacity,
        /*expected_fill=*/0.7, max_levels);
  }
  // The KC-Tree's keyword clustering: exact bitmaps for the hot vocabulary
  // (clustered by frequency tier + co-occurrence), a shared cold-tail
  // signature for everything else.
  if (options.structures.Has(kKcTree)) {
    db->kc_vocab_ = std::make_unique<KcVocabulary>(KcVocabulary::Build(
        corpus, options.kc_vocabulary, options.ir2_signature));
  }

  // 4. The index structures, one task each. They share only read-only
  // inputs (the corpus, the refs, the resolved options, the object store
  // and the KC vocabulary), and each task fills only its own slot, so they
  // build concurrently. Each tree goes on a fresh memory device behind a
  // pool of pool_blocks, filled by the STR bulk loader or by repeated
  // inserts.
  const auto point_rect = [&objects](size_t i) {
    return Rect::ForPoint(Point(objects[i].coords));
  };
  std::vector<uint64_t> bulk_hashes;
  std::vector<RTreeBase::BulkObject> bulk_objects;
  if (options.bulk_load) {
    bulk_hashes = corpus.AllDocHashes();
    bulk_objects.reserve(objects.size());
    for (size_t i = 0; i < objects.size(); ++i) {
      bulk_objects.push_back(RTreeBase::BulkObject{
          refs[i], point_rect(i), corpus.DocSlice(bulk_hashes, i)});
    }
  }
  // The MIR2 fix-up pass reads each object's hashes from the corpus (refs
  // ascend with the object index), so it loads no object.
  const Mir2Tree::HashSource corpus_hashes =
      [&](ObjectRef ref, std::vector<uint64_t>* hashes) {
        const auto it = std::lower_bound(refs.begin(), refs.end(), ref);
        if (it == refs.end() || *it != ref) {
          return Status::Internal("MIR2 fix-up: unknown object ref");
        }
        corpus.DocHashes(static_cast<size_t>(it - refs.begin()), hashes);
        return Status::Ok();
      };
  const auto build_tree = [&](Structure s) -> Status {
    StructureSlot& slot = db->slot(s);
    slot.device = std::make_unique<MemoryBlockDevice>();
    slot.pool =
        std::make_unique<BufferPool>(slot.device.get(), options.pool_blocks);
    std::unique_ptr<RTreeBase> tree = db->MakeTree(s, slot.pool.get());
    IR2_RETURN_IF_ERROR(tree->Init());
    // A MIR2 parent signature superimposes every object below it (§IV), so
    // the load defers the inner signatures and one pass then rebuilds them
    // from the corpus's hashes.
    auto* mir2 = s == kMir2 ? static_cast<Mir2Tree*>(tree.get()) : nullptr;
    if (mir2 != nullptr) {
      mir2->set_defer_inner_payload_maintenance(true);
    }
    if (options.bulk_load) {
      IR2_RETURN_IF_ERROR(
          tree->BulkLoad(bulk_objects, options.bulk_fill_fraction));
    } else {
      std::vector<uint64_t> hashes;
      for (size_t i = 0; i < objects.size(); ++i) {
        corpus.DocHashes(i, &hashes);
        IR2_RETURN_IF_ERROR(tree->InsertObject(refs[i], point_rect(i), hashes));
      }
    }
    if (mir2 != nullptr) {
      IR2_RETURN_IF_ERROR(mir2->RecomputeAllSignatures(corpus_hashes));
      mir2->set_defer_inner_payload_maintenance(false);
    }
    IR2_RETURN_IF_ERROR(tree->Flush());
    if (options.locality_placement && !options.bulk_load) {
      // Incremental splits scatter siblings, so rewrite the finished tree
      // into the DFS layout (bulk loads already produce it natively) on a
      // fresh slot; payloads are copied verbatim.
      auto device = std::make_unique<MemoryBlockDevice>();
      auto pool =
          std::make_unique<BufferPool>(device.get(), options.pool_blocks);
      std::unique_ptr<RTreeBase> compacted = db->MakeTree(s, pool.get());
      IR2_RETURN_IF_ERROR(compacted->Init());
      IR2_RETURN_IF_ERROR(tree->CompactInto(compacted.get()));
      tree = std::move(compacted);
      slot.pool = std::move(pool);
      slot.device = std::move(device);
    }
    slot.tree = std::move(tree);
    return Status::Ok();
  };
  // The inverted index (IIO baseline).
  const auto build_iio = [&]() -> Status {
    StructureSlot& slot = db->slot(kIio);
    slot.device = std::make_unique<MemoryBlockDevice>();
    InvertedIndexBuilder builder(slot.device.get(), options.iio_options);
    IR2_RETURN_IF_ERROR(builder.Build(corpus, refs));
    slot.pool =
        std::make_unique<BufferPool>(slot.device.get(), stream_pool_blocks);
    IR2_ASSIGN_OR_RETURN(db->iio_, InvertedIndex::Open(slot.pool.get()));
    return Status::Ok();
  };
  // Task 0 runs on the calling thread: the IIO, so that its buffers come
  // from (and go back to) the caller's heap, which Open and the queries
  // reuse (docs/performance.md, "Concurrent structure build"). The helpers
  // take the trees longest first.
  std::vector<Structure> tasks;
  for (Structure s : {kIio, kMir2, kKcTree, kIr2, kRTree}) {
    if (options.structures.Has(s)) tasks.push_back(s);
  }
  std::array<Status, kNumStructures> status;
  RunTasks(tasks.size(), workers, [&](size_t t) {
    const Structure s = tasks[t];
    status[static_cast<size_t>(s)] = s == kIio ? build_iio() : build_tree(s);
  });
  for (const Status& structure_status : status) {
    IR2_RETURN_IF_ERROR(structure_status);
  }

  db->scorer_ = std::make_unique<IrScorer>(
      CorpusStats{stats.num_objects, stats.AvgDocLen()});
  db->WireIoEngine();
  // The planner's tree-shape snapshot reads nodes; take it before the
  // stats reset so measurements start from zero.
  IR2_RETURN_IF_ERROR(db->WirePlanner());
  db->ResetIoStats();
  return db;
}

namespace {

// One tree's shape as the planner prices it, each level's signature
// geometry from the tree's payload filter (none for the plain R-Tree,
// whose levels keep signature_bits == 0: no filter, fp = 1).
StatusOr<PlannerTreeShape> SnapshotTreeShape(const RTreeBase& tree) {
  IR2_ASSIGN_OR_RETURN(TreeStatsReport report, ComputeTreeStats(tree));
  PlannerTreeShape shape;
  shape.levels.reserve(report.levels.size());
  for (const LevelStats& level : report.levels) {
    PlannerLevel out;
    out.nodes = level.nodes;
    out.entries = level.entries;
    out.blocks_per_node =
        level.nodes == 0 ? 1.0
                         : static_cast<double>(level.blocks_used) /
                               static_cast<double>(level.nodes);
    const PayloadFilter filter = tree.PayloadFilterAt(level.level);
    if (filter.bits > 0) {
      out.signature_bits = filter.bits;
      out.hashes_per_word = filter.hashes_per_word;
      out.payload_density = level.PayloadDensity();
    }
    shape.levels.push_back(out);
  }
  return shape;
}

}  // namespace

Status SpatialKeywordDatabase::WirePlanner() {
  PlannerInputs inputs;
  inputs.num_objects = stats_.num_objects;
  inputs.avg_blocks_per_object = std::max(stats_.AvgBlocksPerObject(), 1.0);
  inputs.object_file_blocks = stats_.object_file_blocks;
  inputs.iio_present = iio_ != nullptr;
  inputs.disk_model = options_.disk_model;
  inputs.block_size = slot(kObjects).device->block_size();
  for (size_t a = 0; a < kNumPlannableAlgorithms; ++a) {
    const RTreeBase* algo_tree = tree(kAlgorithmStructure[a]);
    if (algo_tree != nullptr) {
      IR2_ASSIGN_OR_RETURN(*inputs.TreeShape(static_cast<Algorithm>(a)),
                           SnapshotTreeShape(*algo_tree));
    }
  }
  if (kc_vocab_ != nullptr) {
    // The KC cost model prices hot keywords through exact containment and
    // only the cold tail through the superimposed-coding model.
    inputs.kc_hot_bits = kc_vocab_->hot_bits();
    inputs.kc_cold_bits = kc_vocab_->cold_config().bits;
    inputs.kc_cold_hashes = kc_vocab_->cold_config().hashes_per_word;
    inputs.kc_hot_word_dfs.reserve(kc_vocab_->words().size());
    for (const KcVocabulary::Word& word : kc_vocab_->words()) {
      inputs.kc_hot_word_dfs.emplace_back(word.hash, word.df);
    }
    std::sort(inputs.kc_hot_word_dfs.begin(), inputs.kc_hot_word_dfs.end());
  }
  planner_ = std::make_unique<QueryPlanner>(std::move(inputs), iio_.get(),
                                            &tokenizer_);
  return Status::Ok();
}

void SpatialKeywordDatabase::WireIoEngine() {
  // Schedulers may hold pointers into async_backends_; tear them down first
  // if this is ever re-run.
  for (StructureSlot& slot : slots_) {
    slot.scheduler.reset();
  }
  async_backends_.clear();
  for (StructureSlot& slot : slots_) {
    if (slot.pool == nullptr) {
      continue;
    }
    slot.scheduler =
        std::make_unique<IoScheduler>(slot.pool.get(), options_.scheduler);
    if (options_.async_io_threads > 0) {
      AsyncIoOptions async_options;
      async_options.num_threads = options_.async_io_threads;
      async_backends_.push_back(
          std::make_unique<AsyncIoBackend>(slot.pool.get(), async_options));
      slot.scheduler->SetAsyncBackend(async_backends_.back().get());
    }
  }
  if (iio_ != nullptr && slot(kIio).scheduler != nullptr) {
    // Posting lists always stream through the scheduler's ReadRun path —
    // the identical block sequence as direct reads, so this is safe to
    // wire unconditionally (prefetch on or off).
    iio_->SetScheduler(slot(kIio).scheduler.get());
  }
}

Status SpatialKeywordDatabase::DropCaches() {
  // Let in-flight speculation finish first so a racing prefetch cannot
  // re-populate a pool between the Clear and the next query.
  DrainSchedulers();
  for (const StructureSlot& slot : slots_) {
    if (slot.pool != nullptr) {
      IR2_RETURN_IF_ERROR(slot.pool->Clear());
    }
  }
  // A decoded-node cache attached to a tree would also short-circuit cold
  // reads; drop it so cold_queries keeps its per-query purity.
  for (RTreeBase* tree : trees()) {
    if (tree->node_cache() != nullptr) {
      tree->node_cache()->Clear();
    }
  }
  ForgetThreadCursors(QueryContext());
  return Status::Ok();
}

std::vector<RTreeBase*> SpatialKeywordDatabase::trees() const {
  std::vector<RTreeBase*> built;
  for (const StructureSlot& slot : slots_) {
    if (slot.tree != nullptr) built.push_back(slot.tree.get());
  }
  return built;
}

void SpatialKeywordDatabase::ResetIoStats() {
  // Pools cascade to their backing devices; the device reset covers any
  // device not behind a pool.
  for (const StructureSlot& slot : slots_) {
    if (slot.pool != nullptr) slot.pool->ResetStats();
    if (slot.device != nullptr) slot.device->ResetStats();
    if (slot.scheduler != nullptr) slot.scheduler->ResetStats();
  }
}

void SpatialKeywordDatabase::DrainSchedulers() {
  for (const StructureSlot& slot : slots_) {
    if (slot.scheduler != nullptr) {
      slot.scheduler->Drain();
    }
  }
}

void SpatialKeywordDatabase::MaybeSweepObjectFile(
    const DistanceFirstQuery& q) {
  IoScheduler* scheduler = slot(kObjects).scheduler.get();
  if (!options_.prefetch || scheduler == nullptr || q.k == 0) {
    return;
  }
  const BufferPool* pool = slot(kObjects).pool.get();
  const uint64_t blocks = pool->NumBlocks();
  if (blocks == 0) {
    return;
  }
  const DiskModel model(options_.disk_model, pool->block_size());
  const double sweep_ms =
      model.RandomAccessMs() +
      static_cast<double>(blocks - 1) * model.SequentialAccessMs();
  // A distance-first top-k query keeps loading candidates until k of them
  // pass keyword verification, so it performs about k / p object loads —
  // each one a seek — where p is the selectivity of the keyword
  // conjunction (core/stats.h, the same estimate the planner prices
  // traversals with). The inverted index's in-memory dictionary prices p
  // from document frequencies without any I/O. Without the IIO the
  // estimate degrades to the bare lower bound of k loads.
  double expected_loads = static_cast<double>(q.k);
  if (iio_ != nullptr && stats_.num_objects > 0) {
    const std::vector<std::string> keywords =
        tokenizer_.NormalizeKeywords(q.keywords);
    const ConjunctionEstimate estimate =
        EstimateConjunction(*iio_, keywords, stats_.num_objects);
    expected_loads =
        ExpectedVerificationLoads(estimate.selectivity, q.k,
                                  stats_.num_objects);
  }
  const double seek_ms = expected_loads * model.RandomAccessMs();
  if (sweep_ms < seek_ms) {
    scheduler->PrefetchRange(
        0, static_cast<uint32_t>(std::min<uint64_t>(blocks, ~0u)));
  }
}

IoStats SpatialKeywordDatabase::AggregateIo() const {
  IoStats total;
  for (const StructureSlot& slot : slots_) {
    if (slot.device != nullptr) {
      total += slot.device->stats();
    }
  }
  return total;
}

SpatialKeywordDatabase::ThreadCounters
SpatialKeywordDatabase::CurrentThreadCounters(const QueryContext& ctx) const {
  ThreadCounters counters;
  counters.node_decodes = RTreeBase::ThreadNodeDecodes();
  for (size_t s = 0; s < kNumStructures; ++s) {
    const StructureSlot& slot = slots_[s];
    if (slot.device == nullptr) {
      continue;
    }
    // A tree's demand is counted at the pool the query reads it through.
    const BufferPool* pool = slot.tree != nullptr
                                 ? ReadPool(ctx, static_cast<Structure>(s))
                                 : slot.pool.get();
    counters.demand += pool->thread_stats();
    counters.physical += slot.device->thread_stats();
    counters.speculative += slot.scheduler->speculative_stats();
  }
  return counters;
}

void SpatialKeywordDatabase::ForgetThreadCursors(const QueryContext& ctx) {
  for (size_t s = 0; s < kNumStructures; ++s) {
    if (slots_[s].device == nullptr) continue;
    // A pool's reset cascades to the device behind it.
    ReadPool(ctx, static_cast<Structure>(s))->ResetThreadCursor();
  }
}

void SpatialKeywordDatabase::AccountSince(const ThreadCounters& before,
                                          const QueryContext& ctx,
                                          QueryStats* stats) const {
  const ThreadCounters after = CurrentThreadCounters(ctx);
  stats->io = after.physical - before.physical;
  stats->demand_io = after.demand - before.demand;
  stats->speculative_io = after.speculative - before.speculative;
  stats->node_decodes = after.node_decodes - before.node_decodes;
  const DiskModel model(options_.disk_model);
  stats->simulated_disk_ms =
      model.Ms(stats->io) + model.Ms(stats->speculative_io);
}

template <typename Fn>
StatusOr<std::vector<QueryResult>> SpatialKeywordDatabase::RunQuery(
    QueryContext& ctx, Fn&& body, double* simulated_disk_ms) {
  // Three-way diff, all per-thread so concurrent work cannot bleed in:
  //   pools      -> demand_io       (logical requests by this thread)
  //   devices    -> io              (physical reads by this thread)
  //   schedulers -> speculative_io  (physical reads by prefetch threads)
  // With prefetching off the schedulers stay idle and the bypass pools add
  // nothing, so io reproduces the historical device-diff values exactly.
  const ThreadCounters before = CurrentThreadCounters(ctx);
  // One kQuery span per query (covering the algorithm and the drain);
  // free when no tracer is installed.
  obs::TraceSpan query_span(obs::SpanKind::kQuery);
  Stopwatch watch;
  IR2_ASSIGN_OR_RETURN(std::vector<QueryResult> results, body());
  if (options_.prefetch) {
    // Speculation issued on this query's behalf settles before accounting
    // (and before a next query's DropCaches could discard it half-done).
    DrainSchedulers();
  }
  QueryStats measured;
  measured.seconds = watch.ElapsedSeconds();
  AccountSince(before, ctx, &measured);
  const obs::CoreMetrics& metrics = obs::DefaultMetrics();
  metrics.queries_total->Add();
  metrics.query_latency_ms->Record(measured.seconds * 1000.0);
  metrics.query_sim_disk_ms->Record(measured.simulated_disk_ms);
  metrics.query_demand_blocks->Record(
      static_cast<double>(measured.demand_io.TotalReads()));
  ctx.stats += measured;
  if (simulated_disk_ms != nullptr) {
    *simulated_disk_ms = measured.simulated_disk_ms;
  }
  return results;
}

StatusOr<std::vector<QueryResult>> SpatialKeywordDatabase::RunAlgorithm(
    const DistanceFirstQuery& q, Algorithm algo, QueryContext& ctx) {
  if (algo == Algorithm::kAuto) {
    return Status::Internal("RunAlgorithm needs a fixed algorithm");
  }
  const Structure s = kAlgorithmStructure[static_cast<size_t>(algo)];
  if (slot(s).device == nullptr) {
    return Status::FailedPrecondition(
        std::string(kStructureNames[static_cast<size_t>(s)]) +
        " was not built");
  }
  QueryStats* stats = &ctx.stats;
  if (algo == Algorithm::kIio) {
    return IioTopK(*iio_, *object_store_, tokenizer_, q, stats,
                   options_.prefetch ? slot(kObjects).scheduler.get()
                                     : nullptr);
  }
  // The tree traversals speculate on their frontier through the tree's own
  // scheduler and read nodes through the context's pool for the tree.
  IoScheduler* node_scheduler =
      options_.prefetch ? slot(s).scheduler.get() : nullptr;
  BufferPool* read_pool = ReadPool(ctx, s);
  const RTreeBase& algo_tree = *tree(s);
  MaybeSweepObjectFile(q);
  switch (algo) {
    case Algorithm::kRTree:
      return RTreeTopK(algo_tree, *object_store_, tokenizer_, q, stats,
                       node_scheduler, read_pool);
    case Algorithm::kIr2:
    case Algorithm::kMir2:
      return Ir2TopK(static_cast<const Ir2Tree&>(algo_tree), *object_store_,
                     tokenizer_, q, stats, ctx.scratch, node_scheduler,
                     read_pool);
    case Algorithm::kKcTree:
      return KcTopK(static_cast<const KcTree&>(algo_tree), *object_store_,
                    tokenizer_, q, stats, ctx.scratch, node_scheduler,
                    read_pool);
    case Algorithm::kIio:
    case Algorithm::kAuto:
      break;
  }
  return Status::Internal("unreachable algorithm dispatch");
}

uint64_t SpatialKeywordDatabase::MutationEpoch() const {
  uint64_t epoch = 0;
  for (const RTreeBase* built : trees()) {
    epoch += built->version();
  }
  return epoch;
}

StatusOr<std::vector<QueryResult>> SpatialKeywordDatabase::Query(
    const DistanceFirstQuery& q, Algorithm algo, QueryContext& ctx) {
  if (options_.cold_queries) {
    IR2_RETURN_IF_ERROR(DropCaches());
  }
  return ExecuteQuery(q, algo, ctx);
}

StatusOr<std::vector<QueryResult>> SpatialKeywordDatabase::Query(
    const DistanceFirstQuery& q, Algorithm algo, QueryStats* stats,
    QueryPlan* plan_out) {
  QueryContext ctx;
  StatusOr<std::vector<QueryResult>> results = Query(q, algo, ctx);
  if (stats != nullptr) *stats += ctx.stats;
  if (plan_out != nullptr) *plan_out = ctx.plan;
  return results;
}

StatusOr<std::vector<QueryResult>> SpatialKeywordDatabase::ExecuteQuery(
    const DistanceFirstQuery& q, Algorithm algo, QueryContext& ctx) {
  const bool planned = algo == Algorithm::kAuto;
  if (planned) {
    // Planning is pure in-memory arithmetic (pinned by
    // cold_regime_regression_test), so the executed query's disk profile is
    // exactly what a direct call to the chosen algorithm would produce.
    ctx.plan = planner_->Plan(q);
    if (!ctx.plan.has_choice) {
      return Status::FailedPrecondition(
          "No structure available to answer the query");
    }
    algo = ctx.plan.chosen;
  }
  double observed_ms = 0.0;
  IR2_ASSIGN_OR_RETURN(
      std::vector<QueryResult> results,
      RunQuery(ctx, [&] { return RunAlgorithm(q, algo, ctx); }, &observed_ms));
  if (planned) {
    planner_->RecordOutcome(ctx.plan, observed_ms, ctx.feedback);
    ctx.audit.Add(ctx.plan, observed_ms);
  }
  return results;
}

namespace {

// Selectivities span many decades; %.3g keeps 1e-7 readable where FormatMs
// would render 0.00.
std::string FormatSelectivity(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", value);
  return buf;
}

// Under cold_queries the query itself clears the pools (zeroing their
// counters) before running, so a plain before/after diff can underflow;
// when it would, the after value alone is the query's epoch.
uint64_t CounterDelta(uint64_t after, uint64_t before) {
  return after >= before ? after - before : after;
}

std::string JoinKeywords(const std::vector<std::string>& keywords) {
  std::string out;
  for (const std::string& keyword : keywords) {
    if (!out.empty()) out += ", ";
    out += keyword;
  }
  return out;
}

void AddIoRow(obs::ExplainSection* section, const char* label,
              const IoStats& io) {
  section->AddRow({label, obs::FormatCount(io.random_reads),
                   obs::FormatCount(io.sequential_reads),
                   obs::FormatCount(io.TotalReads())});
}

}  // namespace

StatusOr<SpatialKeywordDatabase::ExplainResult> SpatialKeywordDatabase::
    Explain(const DistanceFirstQuery& q, Algorithm algo) {
  // Pool and scheduler counters before the query, per built structure
  // (WireIoEngine gives every pool a scheduler).
  struct SlotRow {
    const char* name;
    const StructureSlot* slot;
    BufferPoolStats pool_before;
    IoSchedulerStats scheduler_before;
  };
  std::vector<SlotRow> slot_rows;
  for (size_t s = 0; s < kNumStructures; ++s) {
    const StructureSlot& slot = slots_[s];
    if (slot.pool != nullptr) {
      slot_rows.push_back(SlotRow{kStructureNames[s], &slot,
                                  slot.pool->Stats(),
                                  slot.scheduler->stats()});
    }
  }

  // Run the query through the regular path with a tracer installed; the
  // instrumentation adds no I/O, so every count matches an untraced run.
  ExplainResult out;
  obs::Tracer tracer;
  QueryPlan plan;
  StatusOr<std::vector<QueryResult>> results(std::vector<QueryResult>{});
  {
    obs::ScopedTracer scoped(&tracer);
    results = Query(q, algo, &out.stats, &plan);
  }
  IR2_RETURN_IF_ERROR(results.status());
  out.results = std::move(results).value();
  out.trace_json = tracer.ToChromeTraceJson();
  const QueryStats& stats = out.stats;

  obs::ExplainReport& report = out.report;
  report.title = std::string("EXPLAIN ") + AlgorithmName(algo) +
                 " distance-first top-" + std::to_string(q.k);

  obs::ExplainSection* query = report.AddSection("Query");
  if (algo == Algorithm::kAuto) {
    query->AddRow("algorithm", std::string("auto -> ") +
                                   AlgorithmName(plan.chosen) +
                                   " (cost-based)");
  } else {
    query->AddRow("algorithm", AlgorithmName(algo));
  }
  if (q.area.has_value()) {
    query->AddRow("target", "area (MINDIST to rectangle)");
  } else {
    std::string target;
    for (uint32_t d = 0; d < q.point.dims(); ++d) {
      target += (d > 0 ? ", " : "(") + obs::FormatMs(q.point[d]);
    }
    query->AddRow("target", target + ")");
  }
  query->AddRow("keywords", JoinKeywords(q.keywords));
  query->AddRow("k", std::to_string(q.k));
  query->AddRow("regime", options_.cold_queries ? "cold (caches dropped)"
                                                : "warm");
  query->AddRow("prefetch", options_.prefetch ? "on" : "off");
  query->AddRow("simd", simd::LevelName(simd::ActiveLevel()));

  if (algo == Algorithm::kAuto) {
    // How the decision was made (docs/planner.md): every candidate's
    // static DiskModel estimate, the feedback-corrected prediction the
    // choice minimized, and how the chosen plan's prediction compared to
    // what execution actually cost.
    obs::ExplainSection* plan_section =
        report.AddSection("Planner (cost-based candidate pricing)");
    plan_section->columns = {"candidate", "feasible", "static est ms",
                             "predicted ms", ""};
    for (const PlanCandidate& candidate : plan.candidates) {
      plan_section->AddRow(
          {AlgorithmName(candidate.algo), candidate.feasible ? "yes" : "no",
           candidate.feasible ? obs::FormatMs(candidate.static_ms) : "-",
           candidate.feasible ? obs::FormatMs(candidate.predicted_ms) : "-",
           candidate.algo == plan.chosen ? "<- chosen" : ""});
    }
    plan_section->AddRow({"conjunction selectivity",
                          FormatSelectivity(plan.estimate.selectivity),
                          "bucket " + std::to_string(plan.bucket), "", ""});
    plan_section->AddRow({"estimated vs actual",
                          obs::FormatMs(plan.chosen_predicted_ms) + " est",
                          obs::FormatMs(stats.simulated_disk_ms) + " actual",
                          plan.chosen_predicted_ms > 0.0
                              ? FormatSelectivity(stats.simulated_disk_ms /
                                                  plan.chosen_predicted_ms) +
                                    "x"
                              : "-",
                          ""});
  }

  obs::ExplainSection* answers = report.AddSection("Results");
  answers->columns = {"rank", "ref", "object_id", "distance"};
  for (size_t i = 0; i < out.results.size(); ++i) {
    const QueryResult& r = out.results[i];
    answers->AddRow({std::to_string(i + 1), std::to_string(r.ref),
                     std::to_string(r.object_id), obs::FormatMs(r.distance)});
  }

  obs::ExplainSection* traversal = report.AddSection("Traversal");
  traversal->AddRow("nodes visited / decoded",
                    obs::FormatCount(stats.nodes_visited) + " / " +
                        obs::FormatCount(stats.node_decodes));
  traversal->AddRow("entries pruned (signature)",
                    obs::FormatCount(stats.entries_pruned));
  traversal->AddRow("objects loaded", obs::FormatCount(stats.objects_loaded));
  traversal->AddRow("false positives",
                    obs::FormatCount(stats.false_positives));
  traversal->AddRow("wall clock ms", obs::FormatMs(stats.seconds * 1000.0));

  if (!stats.entries_pruned_per_level.empty()) {
    obs::ExplainSection* pruning = report.AddSection(
        "Signature pruning per level (0 = leaf entries -> objects skipped)");
    pruning->columns = {"level", "entries pruned"};
    for (size_t level = 0; level < stats.entries_pruned_per_level.size();
         ++level) {
      pruning->AddRow({std::to_string(level),
                       obs::FormatCount(stats.entries_pruned_per_level[level])});
    }
  }

  if (stats.kc_bitmap_tests > 0) {
    // KC-Tree breakdown: which hot cluster's exact bitmap (zero false
    // positives) vs the cold-tail signature decided each prune. Attribution
    // is scalar and SIMD-tier-invariant (core/kc_tree.cc).
    obs::ExplainSection* kc_section = report.AddSection(
        "KC-Tree pruning (exact hot clusters vs cold-tail signature)");
    kc_section->columns = {"source", "words", "entries pruned"};
    for (size_t c = 0; c < stats.kc_cluster_prunes.size(); ++c) {
      if (stats.kc_cluster_prunes[c] == 0) {
        continue;
      }
      std::string words;
      if (kc_vocab_ != nullptr) {
        for (const KcVocabulary::Word& word : kc_vocab_->words()) {
          if (word.cluster == c) {
            if (!words.empty()) words += ", ";
            words += word.word;
          }
        }
      }
      kc_section->AddRow({"cluster " + std::to_string(c), words,
                          obs::FormatCount(stats.kc_cluster_prunes[c])});
    }
    kc_section->AddRow({"cold-tail signature", "-",
                        obs::FormatCount(stats.kc_signature_prunes)});
    kc_section->AddRow({"containment tests", "-",
                        obs::FormatCount(stats.kc_bitmap_tests)});
  }

  obs::ExplainSection* io = report.AddSection("Block I/O");
  io->columns = {"class", "random", "sequential", "total"};
  AddIoRow(io, "demand (pool-level requests)", stats.demand_io);
  AddIoRow(io, "physical, query thread", stats.io);
  AddIoRow(io, "speculative (prefetch threads)", stats.speculative_io);

  const DiskModel model(options_.disk_model);
  obs::ExplainSection* disk = report.AddSection("DiskModel time breakdown");
  disk->columns = {"component", "accesses", "ms"};
  const double demand_random_ms =
      static_cast<double>(stats.io.random_reads) * model.RandomAccessMs();
  const double demand_seq_ms = static_cast<double>(stats.io.sequential_reads) *
                               model.SequentialAccessMs();
  const double spec_random_ms =
      static_cast<double>(stats.speculative_io.random_reads) *
      model.RandomAccessMs();
  const double spec_seq_ms =
      static_cast<double>(stats.speculative_io.sequential_reads) *
      model.SequentialAccessMs();
  disk->AddRow({"demand random (seek+rotation)",
                obs::FormatCount(stats.io.random_reads),
                obs::FormatMs(demand_random_ms)});
  disk->AddRow({"demand sequential (transfer)",
                obs::FormatCount(stats.io.sequential_reads),
                obs::FormatMs(demand_seq_ms)});
  disk->AddRow({"speculative random",
                obs::FormatCount(stats.speculative_io.random_reads),
                obs::FormatMs(spec_random_ms)});
  disk->AddRow({"speculative sequential",
                obs::FormatCount(stats.speculative_io.sequential_reads),
                obs::FormatMs(spec_seq_ms)});
  disk->AddRow({"total simulated", "",
                obs::FormatMs(stats.simulated_disk_ms)});
  disk->AddRow(
      {"model", "",
       obs::FormatMs(model.RandomAccessMs()) + " ms/random, " +
           obs::FormatMs(model.SequentialAccessMs()) + " ms/sequential"});

  obs::ExplainSection* pool_section =
      report.AddSection("Buffer pools (this query)");
  pool_section->columns = {"pool", "hits", "misses", "hit ratio"};
  for (const SlotRow& row : slot_rows) {
    const BufferPoolStats after = row.slot->pool->Stats();
    const uint64_t hits = CounterDelta(after.hits, row.pool_before.hits);
    const uint64_t misses = CounterDelta(after.misses, row.pool_before.misses);
    pool_section->AddRow({row.name, obs::FormatCount(hits),
                          obs::FormatCount(misses),
                          obs::FormatRatio(hits, hits + misses)});
  }

  bool any_node_cache = false;
  for (size_t s = 0; s < kNumStructures; ++s) {
    const RTreeBase* tree = slots_[s].tree.get();
    if (tree != nullptr && tree->node_cache() != nullptr) {
      if (!any_node_cache) {
        obs::ExplainSection* caches = report.AddSection("Node caches");
        caches->columns = {"tree", "hits", "misses", "hit ratio", "pinned"};
        any_node_cache = true;
      }
      const NodeCacheStats cache = tree->node_cache()->Stats();
      report.sections.back().AddRow(
          {kStructureNames[s], obs::FormatCount(cache.hits),
           obs::FormatCount(cache.misses),
           obs::FormatRatio(cache.hits, cache.hits + cache.misses),
           obs::FormatCount(cache.pinned)});
    }
  }

  if (options_.prefetch) {
    obs::ExplainSection* sched_section =
        report.AddSection("Prefetch schedulers (this query)");
    sched_section->columns = {"scheduler", "requested", "deduped", "runs",
                              "blocks fetched"};
    for (const SlotRow& row : slot_rows) {
      const IoSchedulerStats after = row.slot->scheduler->stats();
      const IoSchedulerStats& before = row.scheduler_before;
      sched_section->AddRow(
          {row.name,
           obs::FormatCount(CounterDelta(after.requested, before.requested)),
           obs::FormatCount(CounterDelta(after.deduped, before.deduped)),
           obs::FormatCount(CounterDelta(after.runs, before.runs)),
           obs::FormatCount(
               CounterDelta(after.blocks_fetched, before.blocks_fetched))});
    }
  }

  obs::ExplainSection* spans = report.AddSection("Trace spans");
  spans->columns = {"span", "count", "total ms"};
  uint64_t counts[obs::kNumSpanKinds] = {};
  double total_us[obs::kNumSpanKinds] = {};
  for (const obs::TraceEvent& event : tracer.Events()) {
    const int kind = static_cast<int>(event.kind);
    ++counts[kind];
    total_us[kind] += static_cast<double>(event.dur_us);
  }
  for (int kind = 0; kind < obs::kNumSpanKinds; ++kind) {
    if (counts[kind] == 0) continue;
    spans->AddRow({obs::SpanKindName(static_cast<obs::SpanKind>(kind)),
                   obs::FormatCount(counts[kind]),
                   obs::FormatMs(total_us[kind] / 1000.0)});
  }
  if (tracer.dropped() > 0) {
    spans->AddRow({"(dropped, ring full)", obs::FormatCount(tracer.dropped()),
                   "-"});
  }
  return out;
}

StatusOr<std::vector<QueryResult>> SpatialKeywordDatabase::QueryGeneral(
    const GeneralQuery& q, QueryStats* stats, bool use_mir2) {
  Ir2Tree* tree = use_mir2 ? mir2_tree() : ir2_tree();
  if (tree == nullptr) {
    return Status::FailedPrecondition("Requested tree was not built");
  }
  if (iio_ == nullptr) {
    return Status::FailedPrecondition(
        "General queries need the inverted index for keyword idfs");
  }
  if (options_.cold_queries) {
    IR2_RETURN_IF_ERROR(DropCaches());
  }
  QueryContext ctx;
  StatusOr<std::vector<QueryResult>> results = RunQuery(
      ctx,
      [&] {
        std::vector<ScoredQueryTerm> terms =
            BuildQueryTerms(*iio_, *scorer_, tokenizer_, q.keywords);
        return GeneralIr2TopK(*tree, *object_store_, tokenizer_, *scorer_,
                              terms, q, &ctx.stats);
      },
      /*simulated_disk_ms=*/nullptr);
  if (stats != nullptr) *stats += ctx.stats;
  return results;
}

StatusOr<std::vector<ObjectRef>> SpatialKeywordDatabase::KeywordMatches(
    const std::vector<std::string>& keywords, QueryStats* stats) {
  if (iio_ == nullptr) {
    return Status::FailedPrecondition("Inverted index was not built");
  }
  std::vector<std::string> normalized = tokenizer_.NormalizeKeywords(keywords);
  if (normalized.empty()) {
    return Status::InvalidArgument(
        "Keyword query needs at least one (non-stopword) keyword");
  }
  if (options_.cold_queries) {
    IR2_RETURN_IF_ERROR(DropCaches());
  }
  // Same three-way accounting as RunQuery (see the comment there).
  const QueryContext ctx;
  const ThreadCounters before = CurrentThreadCounters(ctx);
  Stopwatch watch;
  std::vector<std::vector<ObjectRef>> lists;
  lists.reserve(normalized.size());
  for (const std::string& keyword : normalized) {
    IR2_ASSIGN_OR_RETURN(std::vector<ObjectRef> list,
                         iio_->RetrieveList(keyword));
    lists.push_back(std::move(list));
  }
  std::vector<ObjectRef> matches = IntersectSorted(lists);
  if (options_.prefetch) {
    DrainSchedulers();
  }
  if (stats != nullptr) {
    QueryStats local;
    local.seconds = watch.ElapsedSeconds();
    AccountSince(before, ctx, &local);
    *stats += local;
  }
  return matches;
}

namespace {

constexpr const char* kManifestName = "manifest.txt";

std::string DevicePath(const std::string& directory, const char* name) {
  return directory + "/" + name;
}

// A structure's file: `<directory>/<name>.dat`.
std::string StructurePath(const std::string& directory, const char* name) {
  return DevicePath(directory, name) + ".dat";
}

// Persists one (possibly absent) device to `<directory>/<name>.dat`,
// ending with a write barrier: the bytes are on stable storage before the
// manifest that references them is written.
Status SaveDevice(BlockDevice* device, const std::string& directory,
                  const char* name) {
  if (device == nullptr) {
    return Status::Ok();
  }
  IR2_ASSIGN_OR_RETURN(std::unique_ptr<FileBlockDevice> file,
                       FileBlockDevice::Create(StructurePath(directory, name),
                                               device->block_size()));
  IR2_RETURN_IF_ERROR(CopyBlocks(device, file.get()));
  return file->Sync();
}

// Durability barrier on an already-written path. Fsyncing the directory
// itself makes the dirents of freshly created files durable too.
Status FsyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("open for fsync " + path + ": " +
                           std::strerror(errno));
  }
  Status status = Status::Ok();
  if (::fsync(fd) != 0) {
    status =
        Status::IoError("fsync " + path + ": " + std::strerror(errno));
  }
  ::close(fd);
  return status;
}

// The manifest is a whitespace-separated token stream, so every stopword
// must be exactly one token. (A stopword with whitespace in it can never
// match anyway: the tokenizer splits on it.)
Status ValidateStopwords(const std::unordered_set<std::string>& stopwords) {
  for (const std::string& word : stopwords) {
    const bool has_space =
        std::any_of(word.begin(), word.end(), [](char c) {
          return std::isspace(static_cast<unsigned char>(c)) != 0;
        });
    if (word.empty() || has_space) {
      return Status::InvalidArgument(
          "stopword \"" + word +
          "\" cannot be saved: it must be one non-empty whitespace-free "
          "token");
    }
  }
  return Status::Ok();
}

}  // namespace

Status SpatialKeywordDatabase::Save(const std::string& directory) {
  // Reject what the manifest cannot hold before creating or writing
  // anything.
  IR2_RETURN_IF_ERROR(ValidateStopwords(options_.stopwords));
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::IoError("create_directories(" + directory +
                           "): " + ec.message());
  }
  // Make sure every dirty page and superblock is on its device.
  for (RTreeBase* tree : trees()) {
    IR2_RETURN_IF_ERROR(tree->Flush());
  }

  for (size_t s = 0; s < kNumStructures; ++s) {
    IR2_RETURN_IF_ERROR(
        SaveDevice(slots_[s].device.get(), directory, kStructureNames[s]));
  }

  std::ofstream manifest(DevicePath(directory, kManifestName),
                         std::ios::trunc);
  if (!manifest) {
    return Status::IoError("cannot write manifest in " + directory);
  }
  manifest << "ir2db 1\n";
  manifest << "num_objects " << stats_.num_objects << "\n";
  manifest << "total_tokens " << stats_.total_tokens << "\n";
  manifest << "total_distinct_words " << stats_.total_distinct_words << "\n";
  manifest << "vocabulary_size " << stats_.vocabulary_size << "\n";
  manifest << "object_file_bytes " << stats_.object_file_bytes << "\n";
  manifest << "object_file_blocks " << stats_.object_file_blocks << "\n";
  manifest << "dims " << options_.tree_options.dims << "\n";
  manifest << "min_fill_fraction " << options_.tree_options.min_fill_fraction
           << "\n";
  manifest << "capacity_override " << options_.tree_options.capacity_override
           << "\n";
  manifest << "ir2_signature " << options_.ir2_signature.bits << " "
           << options_.ir2_signature.hashes_per_word << "\n";
  if (options_.structures.Has(kMir2)) {
    manifest << "mir2_scheme " << options_.mir2_scheme.per_level.size();
    for (const SignatureConfig& config : options_.mir2_scheme.per_level) {
      manifest << " " << config.bits << " " << config.hashes_per_word;
    }
    manifest << "\n";
  }
  manifest << "pool_blocks " << options_.pool_blocks << "\n";
  manifest << "cold_queries " << (options_.cold_queries ? 1 : 0) << "\n";
  manifest << "built";
  for (Structure s : {kRTree, kIr2, kMir2, kIio}) {
    manifest << " " << options_.structures.Has(s);
  }
  manifest << "\n";
  if (kc_vocab_ != nullptr) {
    // KC keys are additive: a manifest without them (pre-KC save) opens
    // with the KC-Tree absent, and the word list is everything FromWords
    // needs to reconstruct the vocabulary bit-for-bit (hashes recomputed).
    manifest << "kc_built 1\n";
    manifest << "kc_cold " << kc_vocab_->cold_config().bits << " "
             << kc_vocab_->cold_config().hashes_per_word << "\n";
    manifest << "kc_hot " << kc_vocab_->words().size();
    for (const KcVocabulary::Word& word : kc_vocab_->words()) {
      manifest << " " << word.word << " " << word.df << " " << word.cluster;
    }
    manifest << "\n";
  }
  manifest << "stopwords " << options_.stopwords.size();
  for (const std::string& word : options_.stopwords) {
    manifest << " " << word;
  }
  manifest << "\n";
  manifest.close();
  if (!manifest) {
    return Status::IoError("manifest write failed in " + directory);
  }
  // The manifest is the commit point: fsync it, then the directory, so a
  // crash after Save() returns can never leave a manifest that references
  // missing or partially written device files.
  IR2_RETURN_IF_ERROR(FsyncPath(DevicePath(directory, kManifestName)));
  IR2_RETURN_IF_ERROR(FsyncPath(directory));
  // Only now drop the files of structures this database did not build (an
  // earlier, fuller save's): the committed manifest no longer names them,
  // so a crash here leaves stale files at worst, never a broken database.
  for (size_t s = 0; s < kNumStructures; ++s) {
    if (slots_[s].device != nullptr) continue;
    const std::string path = StructurePath(directory, kStructureNames[s]);
    std::filesystem::remove(path, ec);
    if (ec) {
      return Status::IoError("remove " + path + ": " + ec.message());
    }
  }
  ResetIoStats();
  return Status::Ok();
}

StatusOr<std::unique_ptr<SpatialKeywordDatabase>> SpatialKeywordDatabase::
    Open(const std::string& directory, const DatabaseOptions& runtime) {
  std::ifstream manifest(DevicePath(directory, kManifestName));
  if (!manifest) {
    return Status::NotFound("no manifest in " + directory);
  }
  std::unique_ptr<SpatialKeywordDatabase> db(new SpatialKeywordDatabase());
  DatabaseOptions& options = db->options_;
  DatasetStats& stats = db->stats_;
  // The manifest's `built` and `kc_built` lines; a structure they do not
  // mention was not built.
  StructureSet built;
  MultilevelScheme mir2_scheme;
  SignatureConfig kc_cold{0, 0};
  std::vector<KcVocabulary::Word> kc_words;

  std::string key;
  while (manifest >> key) {
    if (key == "ir2db") {
      int version = 0;
      manifest >> version;
      if (version != 1) {
        return Status::InvalidArgument("unsupported manifest version");
      }
    } else if (key == "num_objects") {
      manifest >> stats.num_objects;
    } else if (key == "total_tokens") {
      manifest >> stats.total_tokens;
    } else if (key == "total_distinct_words") {
      manifest >> stats.total_distinct_words;
    } else if (key == "vocabulary_size") {
      manifest >> stats.vocabulary_size;
    } else if (key == "object_file_bytes") {
      manifest >> stats.object_file_bytes;
    } else if (key == "object_file_blocks") {
      manifest >> stats.object_file_blocks;
    } else if (key == "dims") {
      manifest >> options.tree_options.dims;
    } else if (key == "min_fill_fraction") {
      manifest >> options.tree_options.min_fill_fraction;
    } else if (key == "capacity_override") {
      manifest >> options.tree_options.capacity_override;
    } else if (key == "ir2_signature") {
      manifest >> options.ir2_signature.bits >>
          options.ir2_signature.hashes_per_word;
    } else if (key == "mir2_scheme") {
      size_t levels = 0;
      manifest >> levels;
      mir2_scheme.per_level.resize(levels);
      for (SignatureConfig& config : mir2_scheme.per_level) {
        manifest >> config.bits >> config.hashes_per_word;
      }
    } else if (key == "pool_blocks" || key == "cold_queries") {
      // Runtime options the manifest records; Open takes them from
      // `runtime` instead.
      uint64_t ignored = 0;
      manifest >> ignored;
    } else if (key == "built") {
      // One 0/1 flag each, in this order.
      for (Structure s : {kRTree, kIr2, kMir2, kIio}) {
        int flag = 0;
        manifest >> flag;
        if (flag != 0) built = built.With(s);
      }
    } else if (key == "kc_built") {
      int flag = 0;
      manifest >> flag;
      if (flag != 0) built = built.With(kKcTree);
    } else if (key == "kc_cold") {
      manifest >> kc_cold.bits >> kc_cold.hashes_per_word;
    } else if (key == "kc_hot") {
      size_t n = 0;
      manifest >> n;
      kc_words.resize(n);
      for (KcVocabulary::Word& word : kc_words) {
        manifest >> word.word >> word.df >> word.cluster;
      }
    } else if (key == "stopwords") {
      size_t n = 0;
      manifest >> n;
      for (size_t i = 0; i < n; ++i) {
        std::string word;
        manifest >> word;
        options.stopwords.insert(std::move(word));
      }
    } else {
      return Status::Corruption("unknown manifest key: " + key);
    }
    if (!manifest && !manifest.eof()) {
      return Status::Corruption("malformed manifest value for " + key);
    }
  }
  options.structures = built;
  options.mir2_scheme = mir2_scheme;
  // Runtime-class knobs come from the caller: how to read the database is
  // the opener's choice, what is in it stays the manifest's.
  options.pool_blocks = runtime.pool_blocks;
  options.cold_queries = runtime.cold_queries;
  options.prefetch = runtime.prefetch;
  options.scheduler = runtime.scheduler;
  options.disk_model = runtime.disk_model;
  options.file_device = runtime.file_device;
  options.async_io_threads = runtime.async_io_threads;
  db->tokenizer_ = Tokenizer(options.stopwords);

  // Opens one structure's file behind a pool of `pool_blocks` (0 = the
  // bypass mode the object file and IIO run in without prefetching).
  const auto open_slot = [&](Structure s,
                             size_t pool_blocks) -> StatusOr<BufferPool*> {
    StructureSlot& slot = db->slot(s);
    IR2_ASSIGN_OR_RETURN(
        slot.device,
        FileBlockDevice::Open(
            StructurePath(directory, kStructureNames[static_cast<size_t>(s)]),
            kDefaultBlockSize, options.file_device));
    slot.pool = std::make_unique<BufferPool>(slot.device.get(), pool_blocks);
    return slot.pool.get();
  };
  const size_t stream_pool_blocks = options.prefetch ? options.pool_blocks : 0;

  IR2_ASSIGN_OR_RETURN(BufferPool* object_pool,
                       open_slot(kObjects, stream_pool_blocks));
  db->object_store_ =
      std::make_unique<ObjectStore>(object_pool, stats.object_file_bytes);

  if (built.Has(kMir2) && mir2_scheme.per_level.empty()) {
    return Status::Corruption("manifest missing mir2_scheme");
  }
  if (built.Has(kKcTree)) {
    IR2_ASSIGN_OR_RETURN(
        KcVocabulary vocab,
        KcVocabulary::FromWords(std::move(kc_words), kc_cold));
    db->kc_vocab_ = std::make_unique<KcVocabulary>(std::move(vocab));
  }
  for (Structure s : kTreeStructures) {
    if (!built.Has(s)) {
      continue;
    }
    IR2_ASSIGN_OR_RETURN(BufferPool* pool, open_slot(s, options.pool_blocks));
    db->slot(s).tree = db->MakeTree(s, pool);
    IR2_RETURN_IF_ERROR(db->slot(s).tree->Load());
  }
  if (built.Has(kIio)) {
    IR2_ASSIGN_OR_RETURN(BufferPool* pool,
                         open_slot(kIio, stream_pool_blocks));
    IR2_ASSIGN_OR_RETURN(db->iio_, InvertedIndex::Open(pool));
  }
  db->scorer_ = std::make_unique<IrScorer>(
      CorpusStats{stats.num_objects, stats.AvgDocLen()});
  db->WireIoEngine();
  // As in Build: snapshot the planner's tree shapes before zeroing stats.
  IR2_RETURN_IF_ERROR(db->WirePlanner());
  db->ResetIoStats();
  return db;
}

}  // namespace ir2
