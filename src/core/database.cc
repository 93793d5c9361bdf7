#include "core/database.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "common/simd.h"
#include "common/stopwatch.h"
#include "core/general_search.h"
#include "core/iio.h"
#include "core/ir2_search.h"
#include "core/kc_tree.h"
#include "core/rtree_baseline.h"
#include "core/stats.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "rtree/node_cache.h"
#include "rtree/tree_stats.h"

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

SpatialKeywordDatabase::~SpatialKeywordDatabase() = default;

StatusOr<std::unique_ptr<SpatialKeywordDatabase>> SpatialKeywordDatabase::
    Build(std::span<const StoredObject> objects,
          const DatabaseOptions& options) {
  std::unique_ptr<SpatialKeywordDatabase> db(new SpatialKeywordDatabase());
  db->options_ = options;
  db->tokenizer_ = Tokenizer(options.stopwords);

  // 1. Object file (the paper's tab-delimited plain text file).
  db->object_device_ = std::make_unique<MemoryBlockDevice>();
  ObjectStoreWriter writer(db->object_device_.get());
  std::vector<ObjectRef> refs;
  refs.reserve(objects.size());
  for (const StoredObject& object : objects) {
    IR2_ASSIGN_OR_RETURN(ObjectRef ref, writer.Append(object));
    refs.push_back(ref);
  }
  IR2_RETURN_IF_ERROR(writer.Finish());
  // The object store reads through a pool so prefetched candidate blocks
  // have somewhere to land. Without prefetching the pool runs in bypass
  // mode (capacity 0): no caching layer, physical counts byte-identical to
  // reading the device directly.
  db->object_pool_ = std::make_unique<BufferPool>(
      db->object_device_.get(), options.prefetch ? options.pool_blocks : 0);
  db->object_store_ = std::make_unique<ObjectStore>(db->object_pool_.get(),
                                                    writer.bytes_written());

  // 2. Tokenize once; gather corpus statistics.
  std::vector<std::vector<std::string>> distinct_words(objects.size());
  std::vector<std::vector<uint64_t>> word_hashes(objects.size());
  std::vector<uint32_t> doc_lengths(objects.size());
  std::unordered_set<std::string> vocabulary;
  DatasetStats& stats = db->stats_;
  for (size_t i = 0; i < objects.size(); ++i) {
    std::vector<std::string> tokens = db->tokenizer_.Tokenize(objects[i].text);
    doc_lengths[i] = static_cast<uint32_t>(tokens.size());
    stats.total_tokens += tokens.size();
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    stats.total_distinct_words += tokens.size();
    word_hashes[i].reserve(tokens.size());
    for (const std::string& word : tokens) {
      word_hashes[i].push_back(HashWord(word));
      vocabulary.insert(word);
    }
    distinct_words[i] = std::move(tokens);
  }
  stats.num_objects = objects.size();
  stats.vocabulary_size = vocabulary.size();
  stats.object_file_bytes = writer.bytes_written();
  stats.object_file_blocks = db->object_device_->NumBlocks();

  const auto point_rect = [](const StoredObject& object) {
    return Rect::ForPoint(Point(object.coords));
  };

  // Shared bulk-load input for the signature trees.
  std::vector<Ir2Tree::BulkObject> bulk_objects;
  if (options.bulk_load) {
    bulk_objects.reserve(objects.size());
    for (size_t i = 0; i < objects.size(); ++i) {
      bulk_objects.push_back(Ir2Tree::BulkObject{
          refs[i], point_rect(objects[i]), word_hashes[i]});
    }
  }

  // 3. Plain R-Tree (baseline).
  if (options.build_rtree) {
    db->rtree_device_ = std::make_unique<MemoryBlockDevice>();
    db->rtree_pool_ = std::make_unique<BufferPool>(db->rtree_device_.get(),
                                                   options.pool_blocks);
    db->rtree_ = std::make_unique<RTree>(db->rtree_pool_.get(),
                                         options.tree_options);
    IR2_RETURN_IF_ERROR(db->rtree_->Init());
    if (options.bulk_load) {
      std::vector<RTreeBase::BulkItem> items;
      items.reserve(objects.size());
      for (size_t i = 0; i < objects.size(); ++i) {
        items.push_back(RTreeBase::BulkItem{refs[i], point_rect(objects[i])});
      }
      EmptyPayloadSource empty;
      IR2_RETURN_IF_ERROR(db->rtree_->BulkLoad(
          std::move(items),
          [&empty](size_t) -> const PayloadSource& { return empty; },
          options.bulk_fill_fraction));
    } else {
      for (size_t i = 0; i < objects.size(); ++i) {
        IR2_RETURN_IF_ERROR(
            db->rtree_->Insert(refs[i], point_rect(objects[i])));
      }
    }
    IR2_RETURN_IF_ERROR(db->rtree_->Flush());
    if (options.locality_placement && !options.bulk_load) {
      // Incremental splits scatter siblings; rewrite into the DFS layout
      // (bulk loads already produce it natively).
      auto device = std::make_unique<MemoryBlockDevice>();
      auto pool =
          std::make_unique<BufferPool>(device.get(), options.pool_blocks);
      auto tree = std::make_unique<RTree>(pool.get(), options.tree_options);
      IR2_RETURN_IF_ERROR(tree->Init());
      IR2_RETURN_IF_ERROR(db->rtree_->CompactInto(tree.get()));
      db->rtree_ = std::move(tree);
      db->rtree_pool_ = std::move(pool);
      db->rtree_device_ = std::move(device);
    }
  }

  // 4. IR2-Tree.
  if (options.build_ir2) {
    db->ir2_device_ = std::make_unique<MemoryBlockDevice>();
    db->ir2_pool_ = std::make_unique<BufferPool>(db->ir2_device_.get(),
                                                 options.pool_blocks);
    db->ir2_ = std::make_unique<Ir2Tree>(db->ir2_pool_.get(),
                                         options.tree_options,
                                         options.ir2_signature);
    IR2_RETURN_IF_ERROR(db->ir2_->Init());
    if (options.bulk_load) {
      IR2_RETURN_IF_ERROR(db->ir2_->BulkLoadObjects(
          bulk_objects, options.bulk_fill_fraction));
    } else {
      for (size_t i = 0; i < objects.size(); ++i) {
        IR2_RETURN_IF_ERROR(db->ir2_->InsertObject(
            refs[i], point_rect(objects[i]),
            std::span<const uint64_t>(word_hashes[i])));
      }
    }
    IR2_RETURN_IF_ERROR(db->ir2_->Flush());
    if (options.locality_placement && !options.bulk_load) {
      auto device = std::make_unique<MemoryBlockDevice>();
      auto pool =
          std::make_unique<BufferPool>(device.get(), options.pool_blocks);
      auto tree = std::make_unique<Ir2Tree>(pool.get(), options.tree_options,
                                            options.ir2_signature);
      IR2_RETURN_IF_ERROR(tree->Init());
      IR2_RETURN_IF_ERROR(db->ir2_->CompactInto(tree.get()));
      db->ir2_ = std::move(tree);
      db->ir2_pool_ = std::move(pool);
      db->ir2_device_ = std::move(device);
    }
  }

  // 5. MIR2-Tree: bulk load with deferred inner signatures, then one
  // recomputation pass (each object loaded once).
  if (options.build_mir2) {
    db->mir2_device_ = std::make_unique<MemoryBlockDevice>();
    db->mir2_pool_ = std::make_unique<BufferPool>(db->mir2_device_.get(),
                                                  options.pool_blocks);
    MultilevelScheme scheme = options.mir2_scheme;
    RTreeOptions mir2_options = options.tree_options;
    mir2_options.defer_inner_payload_maintenance = true;
    if (scheme.per_level.empty()) {
      // Derive per-level widths from the dataset statistics. The probe tree
      // is only used to compute the node capacity.
      RTree capacity_probe(db->mir2_pool_.get(), options.tree_options);
      uint32_t capacity = capacity_probe.node_capacity();
      uint32_t max_levels =
          2 + static_cast<uint32_t>(
                  std::log(std::max<double>(2.0, objects.size())) /
                  std::log(std::max(2.0, 0.7 * capacity)));
      scheme = DeriveMultilevelScheme(
          options.ir2_signature.bits, options.ir2_signature.hashes_per_word,
          stats.AvgDistinctWordsPerObject(), stats.vocabulary_size, capacity,
          /*expected_fill=*/0.7, max_levels);
    }
    db->mir2_ = std::make_unique<Mir2Tree>(
        db->mir2_pool_.get(), mir2_options, std::move(scheme),
        db->object_store_.get(), &db->tokenizer_);
    IR2_RETURN_IF_ERROR(db->mir2_->Init());
    if (options.bulk_load) {
      IR2_RETURN_IF_ERROR(db->mir2_->BulkLoadObjects(
          bulk_objects, options.bulk_fill_fraction));
    } else {
      for (size_t i = 0; i < objects.size(); ++i) {
        IR2_RETURN_IF_ERROR(db->mir2_->InsertObject(
            refs[i], point_rect(objects[i]),
            std::span<const uint64_t>(word_hashes[i])));
      }
    }
    IR2_RETURN_IF_ERROR(db->mir2_->RecomputeAllSignatures());
    IR2_RETURN_IF_ERROR(db->mir2_->Flush());
    if (options.locality_placement && !options.bulk_load) {
      // Signatures are already correct (recomputed above); the compaction
      // copies them verbatim.
      MultilevelScheme built_scheme = db->mir2_->scheme();
      auto device = std::make_unique<MemoryBlockDevice>();
      auto pool =
          std::make_unique<BufferPool>(device.get(), options.pool_blocks);
      auto tree = std::make_unique<Mir2Tree>(
          pool.get(), mir2_options, std::move(built_scheme),
          db->object_store_.get(), &db->tokenizer_);
      IR2_RETURN_IF_ERROR(tree->Init());
      IR2_RETURN_IF_ERROR(db->mir2_->CompactInto(tree.get()));
      db->mir2_ = std::move(tree);
      db->mir2_pool_ = std::move(pool);
      db->mir2_device_ = std::move(device);
    }
  }

  // 6. KC-Tree: keyword-clustered hybrid payloads — exact bitmaps for the
  // hot vocabulary (clustered by frequency tier + co-occurrence), a shared
  // cold-tail signature for everything else. Same node layout and I/O
  // engine as the other trees.
  if (options.build_kc) {
    db->kc_vocab_ = std::make_unique<KcVocabulary>(KcVocabulary::Build(
        distinct_words, options.kc_vocabulary, options.ir2_signature));
    db->kc_device_ = std::make_unique<MemoryBlockDevice>();
    db->kc_pool_ = std::make_unique<BufferPool>(db->kc_device_.get(),
                                                options.pool_blocks);
    db->kc_ = std::make_unique<KcTree>(db->kc_pool_.get(),
                                       options.tree_options,
                                       db->kc_vocab_.get());
    IR2_RETURN_IF_ERROR(db->kc_->Init());
    if (options.bulk_load) {
      std::vector<KcTree::BulkObject> kc_bulk;
      kc_bulk.reserve(objects.size());
      for (size_t i = 0; i < objects.size(); ++i) {
        kc_bulk.push_back(KcTree::BulkObject{
            refs[i], point_rect(objects[i]), word_hashes[i]});
      }
      IR2_RETURN_IF_ERROR(db->kc_->BulkLoadObjects(
          kc_bulk, options.bulk_fill_fraction));
    } else {
      for (size_t i = 0; i < objects.size(); ++i) {
        IR2_RETURN_IF_ERROR(db->kc_->InsertObject(
            refs[i], point_rect(objects[i]),
            std::span<const uint64_t>(word_hashes[i])));
      }
    }
    IR2_RETURN_IF_ERROR(db->kc_->Flush());
    if (options.locality_placement && !options.bulk_load) {
      auto device = std::make_unique<MemoryBlockDevice>();
      auto pool =
          std::make_unique<BufferPool>(device.get(), options.pool_blocks);
      auto tree = std::make_unique<KcTree>(pool.get(), options.tree_options,
                                           db->kc_vocab_.get());
      IR2_RETURN_IF_ERROR(tree->Init());
      IR2_RETURN_IF_ERROR(db->kc_->CompactInto(tree.get()));
      db->kc_ = std::move(tree);
      db->kc_pool_ = std::move(pool);
      db->kc_device_ = std::move(device);
    }
  }

  // 7. Inverted index (IIO baseline).
  if (options.build_iio) {
    db->iio_device_ = std::make_unique<MemoryBlockDevice>();
    InvertedIndexBuilder builder(db->iio_device_.get(), options.iio_options);
    for (size_t i = 0; i < objects.size(); ++i) {
      builder.AddObject(refs[i], distinct_words[i], doc_lengths[i]);
    }
    IR2_RETURN_IF_ERROR(builder.Finish());
    // Bypass pool when prefetching is off, mirroring the object store.
    db->iio_pool_ = std::make_unique<BufferPool>(
        db->iio_device_.get(), options.prefetch ? options.pool_blocks : 0);
    IR2_ASSIGN_OR_RETURN(db->iio_, InvertedIndex::Open(db->iio_pool_.get()));
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

// One tree's shape as the planner prices it. `signatures` supplies the
// per-level signature scheme ((M)IR2-Trees); null for the plain R-Tree,
// whose levels keep signature_bits == 0 (no filter, fp = 1).
StatusOr<PlannerTreeShape> SnapshotTreeShape(const RTreeBase& tree,
                                             const Ir2Tree* signatures) {
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
    if (signatures != nullptr) {
      const SignatureConfig config = signatures->LevelConfig(level.level);
      out.signature_bits = config.bits;
      out.hashes_per_word = config.hashes_per_word;
      out.payload_density = level.PayloadDensity();
    }
    shape.levels.push_back(out);
  }
  return shape;
}

}  // namespace

Status SpatialKeywordDatabase::WirePlanner() {
  if (!options_.build_planner) {
    return Status::Ok();
  }
  PlannerInputs inputs;
  inputs.num_objects = stats_.num_objects;
  inputs.avg_blocks_per_object = std::max(stats_.AvgBlocksPerObject(), 1.0);
  inputs.object_file_blocks = stats_.object_file_blocks;
  inputs.iio_present = iio_ != nullptr;
  inputs.disk_model = options_.disk_model;
  inputs.block_size = object_device_->block_size();
  if (rtree_ != nullptr) {
    IR2_ASSIGN_OR_RETURN(inputs.rtree, SnapshotTreeShape(*rtree_, nullptr));
  }
  if (ir2_ != nullptr) {
    IR2_ASSIGN_OR_RETURN(inputs.ir2, SnapshotTreeShape(*ir2_, ir2_.get()));
  }
  if (mir2_ != nullptr) {
    IR2_ASSIGN_OR_RETURN(inputs.mir2, SnapshotTreeShape(*mir2_, mir2_.get()));
  }
  if (kc_ != nullptr && kc_vocab_ != nullptr) {
    // The KC payload is not an Ir2Tree signature scheme, so snapshot its
    // shape directly: signature_bits spans the whole payload (hot bitmap +
    // cold tail) and payload_density measures set bits over that span —
    // exactly the quantities KcCost's synthetic cold level is derived from.
    IR2_ASSIGN_OR_RETURN(TreeStatsReport kc_report, ComputeTreeStats(*kc_));
    PlannerTreeShape shape;
    shape.levels.reserve(kc_report.levels.size());
    const uint32_t payload_bits =
        static_cast<uint32_t>(kc_vocab_->payload_bytes()) * 8;
    for (const LevelStats& level : kc_report.levels) {
      PlannerLevel out;
      out.nodes = level.nodes;
      out.entries = level.entries;
      out.blocks_per_node =
          level.nodes == 0 ? 1.0
                           : static_cast<double>(level.blocks_used) /
                                 static_cast<double>(level.nodes);
      out.signature_bits = payload_bits;
      out.hashes_per_word = kc_vocab_->cold_config().hashes_per_word;
      out.payload_density = level.PayloadDensity();
      shape.levels.push_back(out);
    }
    inputs.kc = std::move(shape);
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
  object_scheduler_.reset();
  rtree_scheduler_.reset();
  ir2_scheduler_.reset();
  mir2_scheduler_.reset();
  kc_scheduler_.reset();
  iio_scheduler_.reset();
  async_backends_.clear();
  const auto make_scheduler =
      [this](BufferPool* pool) -> std::unique_ptr<IoScheduler> {
    if (pool == nullptr) {
      return nullptr;
    }
    auto scheduler = std::make_unique<IoScheduler>(pool, options_.scheduler);
    if (options_.async_io_threads > 0) {
      AsyncIoOptions async_options;
      async_options.num_threads = options_.async_io_threads;
      async_backends_.push_back(
          std::make_unique<AsyncIoBackend>(pool, async_options));
      scheduler->SetAsyncBackend(async_backends_.back().get());
    }
    return scheduler;
  };
  object_scheduler_ = make_scheduler(object_pool_.get());
  rtree_scheduler_ = make_scheduler(rtree_pool_.get());
  ir2_scheduler_ = make_scheduler(ir2_pool_.get());
  mir2_scheduler_ = make_scheduler(mir2_pool_.get());
  kc_scheduler_ = make_scheduler(kc_pool_.get());
  iio_scheduler_ = make_scheduler(iio_pool_.get());
  if (iio_ != nullptr && iio_scheduler_ != nullptr) {
    // Posting lists always stream through the scheduler's ReadRun path —
    // the identical block sequence as direct reads, so this is safe to
    // wire unconditionally (prefetch on or off).
    iio_->SetScheduler(iio_scheduler_.get());
  }
}

Status SpatialKeywordDatabase::DropCaches() {
  // Let in-flight speculation finish first so a racing prefetch cannot
  // re-populate a pool between the Clear and the next query.
  DrainSchedulers();
  for (BufferPool* pool :
       {object_pool_.get(), rtree_pool_.get(), ir2_pool_.get(),
        mir2_pool_.get(), kc_pool_.get(), iio_pool_.get()}) {
    if (pool != nullptr) {
      IR2_RETURN_IF_ERROR(pool->Clear());
    }
  }
  // A decoded-node cache attached to a tree would also short-circuit cold
  // reads; drop it so cold_queries keeps its per-query purity.
  for (RTreeBase* tree : trees()) {
    if (tree->node_cache() != nullptr) {
      tree->node_cache()->Clear();
    }
  }
  return Status::Ok();
}

std::vector<RTreeBase*> SpatialKeywordDatabase::trees() const {
  std::vector<RTreeBase*> built;
  for (RTreeBase* tree : {static_cast<RTreeBase*>(rtree_.get()),
                          static_cast<RTreeBase*>(ir2_.get()),
                          static_cast<RTreeBase*>(mir2_.get()),
                          static_cast<RTreeBase*>(kc_.get())}) {
    if (tree != nullptr) built.push_back(tree);
  }
  return built;
}

void SpatialKeywordDatabase::ResetIoStats() {
  // Pools cascade to their backing devices; the device loop covers any
  // device not behind a pool.
  for (BufferPool* pool :
       {object_pool_.get(), rtree_pool_.get(), ir2_pool_.get(),
        mir2_pool_.get(), kc_pool_.get(), iio_pool_.get()}) {
    if (pool != nullptr) {
      pool->ResetStats();
    }
  }
  for (BlockDevice* device :
       {object_device_.get(), rtree_device_.get(), ir2_device_.get(),
        mir2_device_.get(), kc_device_.get(), iio_device_.get()}) {
    if (device != nullptr) {
      device->ResetStats();
    }
  }
  for (IoScheduler* scheduler :
       {object_scheduler_.get(), rtree_scheduler_.get(), ir2_scheduler_.get(),
        mir2_scheduler_.get(), kc_scheduler_.get(), iio_scheduler_.get()}) {
    if (scheduler != nullptr) {
      scheduler->ResetStats();
    }
  }
}

IoStats SpatialKeywordDatabase::PoolThreadIo() const {
  IoStats total;
  for (const BufferPool* pool :
       {object_pool_.get(), rtree_pool_.get(), ir2_pool_.get(),
        mir2_pool_.get(), kc_pool_.get(), iio_pool_.get()}) {
    if (pool != nullptr) {
      total += pool->thread_stats();
    }
  }
  return total;
}

IoStats SpatialKeywordDatabase::DeviceThreadIo() const {
  IoStats total;
  for (const BlockDevice* device :
       {object_device_.get(), rtree_device_.get(), ir2_device_.get(),
        mir2_device_.get(), kc_device_.get(), iio_device_.get()}) {
    if (device != nullptr) {
      total += device->thread_stats();
    }
  }
  return total;
}

IoStats SpatialKeywordDatabase::SchedulerIo() const {
  IoStats total;
  for (const IoScheduler* scheduler :
       {object_scheduler_.get(), rtree_scheduler_.get(), ir2_scheduler_.get(),
        mir2_scheduler_.get(), kc_scheduler_.get(), iio_scheduler_.get()}) {
    if (scheduler != nullptr) {
      total += scheduler->speculative_stats();
    }
  }
  return total;
}

void SpatialKeywordDatabase::DrainSchedulers() {
  for (IoScheduler* scheduler :
       {object_scheduler_.get(), rtree_scheduler_.get(), ir2_scheduler_.get(),
        mir2_scheduler_.get(), kc_scheduler_.get(), iio_scheduler_.get()}) {
    if (scheduler != nullptr) {
      scheduler->Drain();
    }
  }
}

void SpatialKeywordDatabase::MaybeSweepObjectFile(
    const DistanceFirstQuery& q) {
  if (!options_.prefetch || object_scheduler_ == nullptr || q.k == 0) {
    return;
  }
  const uint64_t blocks = object_pool_->NumBlocks();
  if (blocks == 0) {
    return;
  }
  const DiskModel model(options_.disk_model, object_pool_->block_size());
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
    object_scheduler_->PrefetchRange(0, static_cast<uint32_t>(
                                            std::min<uint64_t>(blocks, ~0u)));
  }
}

IoStats SpatialKeywordDatabase::AggregateIo() const {
  IoStats total;
  for (const BlockDevice* device :
       {object_device_.get(), rtree_device_.get(), ir2_device_.get(),
        mir2_device_.get(), kc_device_.get(), iio_device_.get()}) {
    if (device != nullptr) {
      total += device->stats();
    }
  }
  return total;
}

template <typename Fn>
StatusOr<std::vector<QueryResult>> SpatialKeywordDatabase::RunQuery(
    QueryStats* stats, Fn&& fn) {
  if (options_.cold_queries) {
    IR2_RETURN_IF_ERROR(DropCaches());
  }
  // Three-way diff, all per-thread so concurrent work cannot bleed in:
  //   pools      -> demand_io       (logical requests by this thread)
  //   devices    -> io              (physical reads by this thread)
  //   schedulers -> speculative_io  (physical reads by prefetch threads)
  // With prefetching off the schedulers stay idle and the bypass pools add
  // nothing, so io reproduces the historical device-diff values exactly.
  const IoStats demand_before = PoolThreadIo();
  const IoStats physical_before = DeviceThreadIo();
  const IoStats speculative_before = SchedulerIo();
  const uint64_t decodes_before = RTreeBase::ThreadNodeDecodes();
  // One kQuery span per query (covering the algorithm and the drain);
  // free when no tracer is installed.
  obs::TraceSpan query_span(obs::SpanKind::kQuery);
  Stopwatch watch;
  QueryStats local;
  IR2_ASSIGN_OR_RETURN(std::vector<QueryResult> results, fn(&local));
  if (options_.prefetch) {
    // Speculation issued on this query's behalf settles before accounting
    // (and before a next query's DropCaches could discard it half-done).
    DrainSchedulers();
  }
  local.seconds = watch.ElapsedSeconds();
  local.io = DeviceThreadIo() - physical_before;
  local.demand_io = PoolThreadIo() - demand_before;
  local.speculative_io = SchedulerIo() - speculative_before;
  local.node_decodes = RTreeBase::ThreadNodeDecodes() - decodes_before;
  const DiskModel model(options_.disk_model);
  local.simulated_disk_ms =
      model.Ms(local.io) + model.Ms(local.speculative_io);
  const obs::CoreMetrics& metrics = obs::DefaultMetrics();
  metrics.queries_total->Add();
  metrics.query_latency_ms->Record(local.seconds * 1000.0);
  metrics.query_sim_disk_ms->Record(local.simulated_disk_ms);
  metrics.query_demand_blocks->Record(
      static_cast<double>(local.demand_io.TotalReads()));
  if (stats != nullptr) {
    *stats += local;
  }
  return results;
}

StatusOr<std::vector<QueryResult>> SpatialKeywordDatabase::QueryRTree(
    const DistanceFirstQuery& q, QueryStats* stats) {
  if (rtree_ == nullptr) {
    return Status::FailedPrecondition("R-Tree was not built");
  }
  NNPrefetchOptions prefetch;
  if (options_.prefetch) {
    prefetch.node_scheduler = rtree_scheduler_.get();
    if (options_.prefetch_objects) {
      prefetch.object_scheduler = object_scheduler_.get();
    }
  }
  return RunQuery(stats, [&](QueryStats* local) {
    MaybeSweepObjectFile(q);
    return RTreeTopK(*rtree_, *object_store_, tokenizer_, q, local, prefetch);
  });
}

StatusOr<std::vector<QueryResult>> SpatialKeywordDatabase::QueryIio(
    const DistanceFirstQuery& q, QueryStats* stats) {
  if (iio_ == nullptr) {
    return Status::FailedPrecondition("Inverted index was not built");
  }
  return RunQuery(stats, [&](QueryStats* local) {
    return IioTopK(*iio_, *object_store_, tokenizer_, q, local,
                   options_.prefetch ? object_scheduler_.get() : nullptr);
  });
}

StatusOr<std::vector<QueryResult>> SpatialKeywordDatabase::QueryIr2(
    const DistanceFirstQuery& q, QueryStats* stats) {
  if (ir2_ == nullptr) {
    return Status::FailedPrecondition("IR2-Tree was not built");
  }
  NNPrefetchOptions prefetch;
  if (options_.prefetch) {
    prefetch.node_scheduler = ir2_scheduler_.get();
    if (options_.prefetch_objects) {
      prefetch.object_scheduler = object_scheduler_.get();
    }
  }
  return RunQuery(stats, [&](QueryStats* local) {
    MaybeSweepObjectFile(q);
    return Ir2TopK(*ir2_, *object_store_, tokenizer_, q, local,
                   /*scratch=*/nullptr, prefetch);
  });
}

StatusOr<std::vector<QueryResult>> SpatialKeywordDatabase::QueryMir2(
    const DistanceFirstQuery& q, QueryStats* stats) {
  if (mir2_ == nullptr) {
    return Status::FailedPrecondition("MIR2-Tree was not built");
  }
  NNPrefetchOptions prefetch;
  if (options_.prefetch) {
    prefetch.node_scheduler = mir2_scheduler_.get();
    if (options_.prefetch_objects) {
      prefetch.object_scheduler = object_scheduler_.get();
    }
  }
  return RunQuery(stats, [&](QueryStats* local) {
    MaybeSweepObjectFile(q);
    return Ir2TopK(*mir2_, *object_store_, tokenizer_, q, local,
                   /*scratch=*/nullptr, prefetch);
  });
}

StatusOr<std::vector<QueryResult>> SpatialKeywordDatabase::QueryKc(
    const DistanceFirstQuery& q, QueryStats* stats) {
  if (kc_ == nullptr) {
    return Status::FailedPrecondition("KC-Tree was not built");
  }
  NNPrefetchOptions prefetch;
  if (options_.prefetch) {
    prefetch.node_scheduler = kc_scheduler_.get();
    if (options_.prefetch_objects) {
      prefetch.object_scheduler = object_scheduler_.get();
    }
  }
  return RunQuery(stats, [&](QueryStats* local) {
    MaybeSweepObjectFile(q);
    return KcTopK(*kc_, *object_store_, tokenizer_, q, local,
                  /*scratch=*/nullptr, prefetch);
  });
}

uint64_t SpatialKeywordDatabase::MutationEpoch() const {
  uint64_t epoch = 0;
  if (rtree_ != nullptr) epoch += rtree_->version();
  if (ir2_ != nullptr) epoch += ir2_->version();
  if (mir2_ != nullptr) epoch += mir2_->version();
  if (kc_ != nullptr) epoch += kc_->version();
  return epoch;
}

StatusOr<std::vector<QueryResult>> SpatialKeywordDatabase::QueryAuto(
    const DistanceFirstQuery& q, QueryStats* stats, QueryPlan* plan_out) {
  return QueryAutoCached(q, stats, plan_out, /*check_out=*/nullptr);
}

StatusOr<std::vector<QueryResult>> SpatialKeywordDatabase::QueryAutoCached(
    const DistanceFirstQuery& q, QueryStats* stats, QueryPlan* plan_out,
    CacheReuseCheck* check_out) {
  // Only plain point top-k queries are cacheable: an area target has no
  // single center for the triangle-inequality ball, and a max_distance
  // bound can truncate the over-fetch below K, which would record a radius
  // the entry does not actually cover.
  if (result_cache_ == nullptr || q.area.has_value() ||
      q.max_distance.has_value() || q.k == 0) {
    return QueryAutoPlanned(q, stats, plan_out);
  }
  // One canonical keyword form for the cache key and the executed query.
  // NormalizeKeywords is idempotent, so the algorithms' own normalization
  // of the rewritten query is a no-op.
  DistanceFirstQuery canonical = q;
  canonical.keywords = tokenizer_.NormalizeKeywords(q.keywords);
  const uint64_t epoch = MutationEpoch();
  CacheReuseCheck check;
  std::vector<QueryResult> cached;
  if (result_cache_->TryServe(canonical, epoch, &cached, &check)) {
    if (stats != nullptr) {
      if (check.exact || check.exhaustive) {
        ++stats->result_cache_hits;
      } else {
        ++stats->result_cache_near_hits;
      }
    }
    if (check_out != nullptr) *check_out = check;
    if (plan_out != nullptr) *plan_out = QueryPlan{};  // Nothing planned.
    return cached;
  }
  if (stats != nullptr) {
    ++stats->result_cache_misses;
    if (check.stale) ++stats->result_cache_invalidations;
  }
  if (check_out != nullptr) *check_out = check;
  const uint32_t fetch_k = result_cache_->OverfetchK(canonical);
  if (fetch_k <= canonical.k) {
    // Admission declined (keyword set too cold): plain planned query.
    return QueryAutoPlanned(canonical, stats, plan_out);
  }
  // Over-fetch: run the same planned path with k = K. The distance-ordered
  // algorithms produce a deterministic result stream, so the first q.k of
  // the top-K are exactly the plain top-k answer — truncation loses
  // nothing but fills the cache with a reusable ball.
  DistanceFirstQuery overfetch = canonical;
  overfetch.k = fetch_k;
  auto fetched = QueryAutoPlanned(overfetch, stats, plan_out);
  IR2_RETURN_IF_ERROR(fetched.status());
  result_cache_->Admit(canonical, fetch_k, epoch, fetched.value());
  std::vector<QueryResult> top = std::move(fetched).value();
  if (top.size() > canonical.k) top.resize(canonical.k);
  return top;
}

StatusOr<std::vector<QueryResult>> SpatialKeywordDatabase::QueryAutoPlanned(
    const DistanceFirstQuery& q, QueryStats* stats, QueryPlan* plan_out) {
  if (planner_ == nullptr) {
    return Status::FailedPrecondition("Planner was not built");
  }
  // Planning is pure in-memory arithmetic (pinned by
  // cold_regime_regression_test), so the executed query's disk profile is
  // exactly what a direct call to the chosen algorithm would produce.
  const QueryPlan plan = planner_->Plan(q);
  if (plan_out != nullptr) {
    *plan_out = plan;
  }
  if (!plan.has_choice) {
    return Status::FailedPrecondition(
        "No structure available to answer the query");
  }
  QueryStats local;
  StatusOr<std::vector<QueryResult>> results(std::vector<QueryResult>{});
  switch (plan.chosen) {
    case Algorithm::kRTree:
      results = QueryRTree(q, &local);
      break;
    case Algorithm::kIio:
      results = QueryIio(q, &local);
      break;
    case Algorithm::kIr2:
      results = QueryIr2(q, &local);
      break;
    case Algorithm::kMir2:
      results = QueryMir2(q, &local);
      break;
    case Algorithm::kKcTree:
      results = QueryKc(q, &local);
      break;
    case Algorithm::kAuto:
      return Status::Internal("Planner chose kAuto");
  }
  IR2_RETURN_IF_ERROR(results.status());
  planner_->RecordOutcome(plan, local.simulated_disk_ms);
  // Mispricing audit for the serving query log: no-op unless the calling
  // thread installed a sink (one thread_local load otherwise).
  obs::ScopedPlanAudit::Record(AlgorithmName(plan.chosen),
                               plan.chosen_predicted_ms,
                               local.simulated_disk_ms);
  if (stats != nullptr) {
    *stats += local;
  }
  return results;
}

StatusOr<std::vector<QueryResult>> SpatialKeywordDatabase::Query(
    const DistanceFirstQuery& q, Algorithm algo, QueryStats* stats) {
  switch (algo) {
    case Algorithm::kRTree:
      return QueryRTree(q, stats);
    case Algorithm::kIio:
      return QueryIio(q, stats);
    case Algorithm::kIr2:
      return QueryIr2(q, stats);
    case Algorithm::kMir2:
      return QueryMir2(q, stats);
    case Algorithm::kKcTree:
      return QueryKc(q, stats);
    case Algorithm::kAuto:
      return QueryAuto(q, stats);
  }
  return Status::InvalidArgument("Unknown algorithm");
}

namespace {

const char* ExplainAlgoName(SpatialKeywordDatabase::ExplainAlgo algo) {
  switch (algo) {
    case SpatialKeywordDatabase::ExplainAlgo::kRTree:
      return "R-Tree";
    case SpatialKeywordDatabase::ExplainAlgo::kIio:
      return "IIO";
    case SpatialKeywordDatabase::ExplainAlgo::kIr2:
      return "IR2";
    case SpatialKeywordDatabase::ExplainAlgo::kMir2:
      return "MIR2";
    case SpatialKeywordDatabase::ExplainAlgo::kKcTree:
      return "KCTREE";
    case SpatialKeywordDatabase::ExplainAlgo::kAuto:
      return "AUTO";
  }
  return "?";
}

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

void AddCacheReuseSection(obs::ExplainReport* report,
                          const CacheReuseCheck& check) {
  obs::ExplainSection* section = report->AddSection("Result cache");
  char buf[96];
  if (!check.attempted) {
    section->AddRow("verdict", "miss (no entry for this keyword set)");
    return;
  }
  if (check.stale) {
    section->AddRow("verdict", "invalidated (mutation epoch moved)");
    return;
  }
  section->AddRow("cached results (K)", obs::FormatCount(check.cached_results));
  std::snprintf(buf, sizeof(buf), "%.6f", check.cached_radius);
  section->AddRow("cached radius r_K", buf);
  std::snprintf(buf, sizeof(buf), "%.6f", check.center_shift);
  section->AddRow("center shift dist(p, p')", buf);
  if (check.exhaustive) {
    section->AddRow("reuse proof", "entry is exhaustive (every match cached)");
  } else if (check.exact) {
    section->AddRow("reuse proof", "exact center, k' <= K (prefix of the "
                                   "cached total order)");
  } else {
    std::snprintf(buf, sizeof(buf), "d'_k' = %.6f %s r_K - shift = %.6f",
                  check.kth_distance, check.hit ? "<" : ">=",
                  check.cached_radius - check.center_shift);
    section->AddRow("reuse inequality", buf);
  }
  section->AddRow("verdict", check.hit ? "hit (answered from cache, zero "
                                         "index I/O)"
                                       : "miss (inequality not provable)");
}

StatusOr<SpatialKeywordDatabase::ExplainResult> SpatialKeywordDatabase::
    Explain(const DistanceFirstQuery& q, ExplainAlgo algo) {
  struct PoolRow {
    const char* name;
    const BufferPool* pool;
    BufferPoolStats before;
  };
  std::vector<PoolRow> pools;
  for (const auto& [name, pool] :
       {std::pair<const char*, const BufferPool*>{"objects",
                                                  object_pool_.get()},
        {"rtree", rtree_pool_.get()},
        {"ir2", ir2_pool_.get()},
        {"mir2", mir2_pool_.get()},
        {"kctree", kc_pool_.get()},
        {"iio", iio_pool_.get()}}) {
    if (pool != nullptr) {
      pools.push_back(PoolRow{name, pool, pool->Stats()});
    }
  }
  struct SchedulerRow {
    const char* name;
    const IoScheduler* scheduler;
    IoSchedulerStats before;
  };
  std::vector<SchedulerRow> schedulers;
  for (const auto& [name, scheduler] :
       {std::pair<const char*, const IoScheduler*>{"objects",
                                                   object_scheduler_.get()},
        {"rtree", rtree_scheduler_.get()},
        {"ir2", ir2_scheduler_.get()},
        {"mir2", mir2_scheduler_.get()},
        {"kctree", kc_scheduler_.get()},
        {"iio", iio_scheduler_.get()}}) {
    if (scheduler != nullptr) {
      schedulers.push_back(SchedulerRow{name, scheduler, scheduler->stats()});
    }
  }

  // Run the query through the regular path with a tracer installed; the
  // instrumentation adds no I/O, so every count matches an untraced run.
  ExplainResult out;
  obs::Tracer tracer;
  QueryPlan plan;
  CacheReuseCheck cache_check;
  StatusOr<std::vector<QueryResult>> results(std::vector<QueryResult>{});
  {
    obs::ScopedTracer scoped(&tracer);
    switch (algo) {
      case ExplainAlgo::kRTree:
        results = QueryRTree(q, &out.stats);
        break;
      case ExplainAlgo::kIio:
        results = QueryIio(q, &out.stats);
        break;
      case ExplainAlgo::kIr2:
        results = QueryIr2(q, &out.stats);
        break;
      case ExplainAlgo::kMir2:
        results = QueryMir2(q, &out.stats);
        break;
      case ExplainAlgo::kKcTree:
        results = QueryKc(q, &out.stats);
        break;
      case ExplainAlgo::kAuto:
        results = QueryAutoCached(q, &out.stats, &plan, &cache_check);
        break;
    }
  }
  IR2_RETURN_IF_ERROR(results.status());
  out.results = std::move(results).value();
  out.trace_json = tracer.ToChromeTraceJson();
  const QueryStats& stats = out.stats;

  obs::ExplainReport& report = out.report;
  report.title = std::string("EXPLAIN ") + ExplainAlgoName(algo) +
                 " distance-first top-" + std::to_string(q.k);

  obs::ExplainSection* query = report.AddSection("Query");
  if (algo == ExplainAlgo::kAuto && cache_check.hit) {
    query->AddRow("algorithm", "auto -> result cache (no plan executed)");
  } else if (algo == ExplainAlgo::kAuto) {
    query->AddRow("algorithm", std::string("auto -> ") +
                                   AlgorithmName(plan.chosen) +
                                   " (cost-based)");
  } else {
    query->AddRow("algorithm", ExplainAlgoName(algo));
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

  if (algo == ExplainAlgo::kAuto && result_cache_ != nullptr) {
    AddCacheReuseSection(&report, cache_check);
  }

  if (algo == ExplainAlgo::kAuto && !cache_check.hit) {
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
  for (const PoolRow& row : pools) {
    const BufferPoolStats after = row.pool->Stats();
    const uint64_t hits = CounterDelta(after.hits, row.before.hits);
    const uint64_t misses = CounterDelta(after.misses, row.before.misses);
    pool_section->AddRow({row.name, obs::FormatCount(hits),
                          obs::FormatCount(misses),
                          obs::FormatRatio(hits, hits + misses)});
  }

  struct TreeRow {
    const char* name;
    RTreeBase* tree;
  };
  bool any_node_cache = false;
  for (const TreeRow& row :
       {TreeRow{"rtree", rtree_.get()}, TreeRow{"ir2", ir2_.get()},
        TreeRow{"mir2", mir2_.get()}, TreeRow{"kctree", kc_.get()}}) {
    if (row.tree != nullptr && row.tree->node_cache() != nullptr) {
      if (!any_node_cache) {
        obs::ExplainSection* caches = report.AddSection("Node caches");
        caches->columns = {"tree", "hits", "misses", "hit ratio", "pinned"};
        any_node_cache = true;
      }
      const NodeCacheStats s = row.tree->node_cache()->Stats();
      report.sections.back().AddRow(
          {row.name, obs::FormatCount(s.hits), obs::FormatCount(s.misses),
           obs::FormatRatio(s.hits, s.hits + s.misses),
           obs::FormatCount(s.pinned)});
    }
  }

  if (options_.prefetch) {
    obs::ExplainSection* sched_section =
        report.AddSection("Prefetch schedulers (this query)");
    sched_section->columns = {"scheduler", "requested", "deduped", "runs",
                              "blocks fetched"};
    for (const SchedulerRow& row : schedulers) {
      const IoSchedulerStats after = row.scheduler->stats();
      sched_section->AddRow(
          {row.name,
           obs::FormatCount(CounterDelta(after.requested, row.before.requested)),
           obs::FormatCount(CounterDelta(after.deduped, row.before.deduped)),
           obs::FormatCount(CounterDelta(after.runs, row.before.runs)),
           obs::FormatCount(
               CounterDelta(after.blocks_fetched, row.before.blocks_fetched))});
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
  Ir2Tree* tree = use_mir2 ? mir2_.get() : ir2_.get();
  if (tree == nullptr) {
    return Status::FailedPrecondition("Requested tree was not built");
  }
  if (iio_ == nullptr) {
    return Status::FailedPrecondition(
        "General queries need the inverted index for keyword idfs");
  }
  return RunQuery(stats, [&](QueryStats* local) {
    std::vector<ScoredQueryTerm> terms =
        BuildQueryTerms(*iio_, *scorer_, tokenizer_, q.keywords);
    return GeneralIr2TopK(*tree, *object_store_, tokenizer_, *scorer_, terms,
                          q, local);
  });
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
  const IoStats demand_before = PoolThreadIo();
  const IoStats physical_before = DeviceThreadIo();
  const IoStats speculative_before = SchedulerIo();
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
    stats->seconds += watch.ElapsedSeconds();
    const IoStats io = DeviceThreadIo() - physical_before;
    const IoStats speculative = SchedulerIo() - speculative_before;
    stats->io += io;
    stats->demand_io += PoolThreadIo() - demand_before;
    stats->speculative_io += speculative;
    const DiskModel model(options_.disk_model);
    stats->simulated_disk_ms += model.Ms(io) + model.Ms(speculative);
  }
  return matches;
}

uint64_t SpatialKeywordDatabase::ObjectFileBytes() const {
  return object_device_ ? object_device_->SizeBytes() : 0;
}
uint64_t SpatialKeywordDatabase::RTreeBytes() const {
  return rtree_device_ ? rtree_device_->SizeBytes() : 0;
}
uint64_t SpatialKeywordDatabase::Ir2TreeBytes() const {
  return ir2_device_ ? ir2_device_->SizeBytes() : 0;
}
uint64_t SpatialKeywordDatabase::Mir2TreeBytes() const {
  return mir2_device_ ? mir2_device_->SizeBytes() : 0;
}
uint64_t SpatialKeywordDatabase::KcTreeBytes() const {
  return kc_device_ ? kc_device_->SizeBytes() : 0;
}
uint64_t SpatialKeywordDatabase::IioBytes() const {
  return iio_device_ ? iio_device_->SizeBytes() : 0;
}

namespace {

constexpr const char* kManifestName = "manifest.txt";

std::string DevicePath(const std::string& directory, const char* name) {
  return directory + "/" + name;
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
                       FileBlockDevice::Create(DevicePath(directory, name),
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

}  // namespace

Status SpatialKeywordDatabase::Save(const std::string& directory) {
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

  IR2_RETURN_IF_ERROR(SaveDevice(object_device_.get(), directory,
                                 "objects.dat"));
  IR2_RETURN_IF_ERROR(SaveDevice(rtree_device_.get(), directory,
                                 "rtree.dat"));
  IR2_RETURN_IF_ERROR(SaveDevice(ir2_device_.get(), directory, "ir2.dat"));
  IR2_RETURN_IF_ERROR(SaveDevice(mir2_device_.get(), directory, "mir2.dat"));
  IR2_RETURN_IF_ERROR(SaveDevice(kc_device_.get(), directory, "kctree.dat"));
  IR2_RETURN_IF_ERROR(SaveDevice(iio_device_.get(), directory, "iio.dat"));

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
  if (mir2_ != nullptr) {
    manifest << "mir2_scheme " << mir2_->scheme().per_level.size();
    for (const SignatureConfig& config : mir2_->scheme().per_level) {
      manifest << " " << config.bits << " " << config.hashes_per_word;
    }
    manifest << "\n";
  }
  manifest << "pool_blocks " << options_.pool_blocks << "\n";
  manifest << "cold_queries " << (options_.cold_queries ? 1 : 0) << "\n";
  manifest << "built " << (rtree_ != nullptr) << " " << (ir2_ != nullptr)
           << " " << (mir2_ != nullptr) << " " << (iio_ != nullptr) << "\n";
  if (kc_ != nullptr && kc_vocab_ != nullptr) {
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
  ResetIoStats();
  return Status::Ok();
}

StatusOr<std::unique_ptr<SpatialKeywordDatabase>> SpatialKeywordDatabase::
    Open(const std::string& directory) {
  return OpenImpl(directory, nullptr);
}

StatusOr<std::unique_ptr<SpatialKeywordDatabase>> SpatialKeywordDatabase::
    Open(const std::string& directory, const DatabaseOptions& runtime) {
  return OpenImpl(directory, &runtime);
}

StatusOr<std::unique_ptr<SpatialKeywordDatabase>> SpatialKeywordDatabase::
    OpenImpl(const std::string& directory, const DatabaseOptions* runtime) {
  std::ifstream manifest(DevicePath(directory, kManifestName));
  if (!manifest) {
    return Status::NotFound("no manifest in " + directory);
  }
  std::unique_ptr<SpatialKeywordDatabase> db(new SpatialKeywordDatabase());
  DatabaseOptions& options = db->options_;
  DatasetStats& stats = db->stats_;
  bool built_rtree = false, built_ir2 = false, built_mir2 = false,
       built_iio = false, built_kc = false;
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
    } else if (key == "pool_blocks") {
      manifest >> options.pool_blocks;
    } else if (key == "cold_queries") {
      int flag = 0;
      manifest >> flag;
      options.cold_queries = flag != 0;
    } else if (key == "built") {
      manifest >> built_rtree >> built_ir2 >> built_mir2 >> built_iio;
    } else if (key == "kc_built") {
      int flag = 0;
      manifest >> flag;
      built_kc = flag != 0;
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
  options.build_rtree = built_rtree;
  options.build_ir2 = built_ir2;
  options.build_mir2 = built_mir2;
  options.build_iio = built_iio;
  options.build_kc = built_kc;
  options.mir2_scheme = mir2_scheme;
  if (runtime != nullptr) {
    // Runtime-class knobs come from the caller: how to read the database is
    // the opener's choice, what is in it stays the manifest's.
    options.pool_blocks = runtime->pool_blocks;
    options.cold_queries = runtime->cold_queries;
    options.prefetch = runtime->prefetch;
    options.prefetch_objects = runtime->prefetch_objects;
    options.scheduler = runtime->scheduler;
    options.disk_model = runtime->disk_model;
    options.file_device = runtime->file_device;
    options.async_io_threads = runtime->async_io_threads;
  }
  db->tokenizer_ = Tokenizer(options.stopwords);

  // Object file.
  IR2_ASSIGN_OR_RETURN(
      std::unique_ptr<FileBlockDevice> object_device,
      FileBlockDevice::Open(DevicePath(directory, "objects.dat"),
                            kDefaultBlockSize, options.file_device));
  db->object_device_ = std::move(object_device);
  db->object_pool_ = std::make_unique<BufferPool>(
      db->object_device_.get(), options.prefetch ? options.pool_blocks : 0);
  db->object_store_ = std::make_unique<ObjectStore>(
      db->object_pool_.get(), stats.object_file_bytes);

  if (built_rtree) {
    IR2_ASSIGN_OR_RETURN(
        std::unique_ptr<FileBlockDevice> device,
        FileBlockDevice::Open(DevicePath(directory, "rtree.dat"),
                              kDefaultBlockSize, options.file_device));
    db->rtree_device_ = std::move(device);
    db->rtree_pool_ = std::make_unique<BufferPool>(db->rtree_device_.get(),
                                                   options.pool_blocks);
    db->rtree_ = std::make_unique<RTree>(db->rtree_pool_.get(),
                                         options.tree_options);
    IR2_RETURN_IF_ERROR(db->rtree_->Load());
  }
  if (built_ir2) {
    IR2_ASSIGN_OR_RETURN(
        std::unique_ptr<FileBlockDevice> device,
        FileBlockDevice::Open(DevicePath(directory, "ir2.dat"),
                              kDefaultBlockSize, options.file_device));
    db->ir2_device_ = std::move(device);
    db->ir2_pool_ = std::make_unique<BufferPool>(db->ir2_device_.get(),
                                                 options.pool_blocks);
    db->ir2_ = std::make_unique<Ir2Tree>(db->ir2_pool_.get(),
                                         options.tree_options,
                                         options.ir2_signature);
    IR2_RETURN_IF_ERROR(db->ir2_->Load());
  }
  if (built_mir2) {
    if (mir2_scheme.per_level.empty()) {
      return Status::Corruption("manifest missing mir2_scheme");
    }
    IR2_ASSIGN_OR_RETURN(
        std::unique_ptr<FileBlockDevice> device,
        FileBlockDevice::Open(DevicePath(directory, "mir2.dat"),
                              kDefaultBlockSize, options.file_device));
    db->mir2_device_ = std::move(device);
    db->mir2_pool_ = std::make_unique<BufferPool>(db->mir2_device_.get(),
                                                  options.pool_blocks);
    RTreeOptions mir2_options = options.tree_options;
    db->mir2_ = std::make_unique<Mir2Tree>(
        db->mir2_pool_.get(), mir2_options, mir2_scheme,
        db->object_store_.get(), &db->tokenizer_);
    IR2_RETURN_IF_ERROR(db->mir2_->Load());
  }
  if (built_kc) {
    IR2_ASSIGN_OR_RETURN(
        KcVocabulary vocab,
        KcVocabulary::FromWords(std::move(kc_words), kc_cold));
    db->kc_vocab_ = std::make_unique<KcVocabulary>(std::move(vocab));
    IR2_ASSIGN_OR_RETURN(
        std::unique_ptr<FileBlockDevice> device,
        FileBlockDevice::Open(DevicePath(directory, "kctree.dat"),
                              kDefaultBlockSize, options.file_device));
    db->kc_device_ = std::move(device);
    db->kc_pool_ = std::make_unique<BufferPool>(db->kc_device_.get(),
                                                options.pool_blocks);
    db->kc_ = std::make_unique<KcTree>(db->kc_pool_.get(),
                                       options.tree_options,
                                       db->kc_vocab_.get());
    IR2_RETURN_IF_ERROR(db->kc_->Load());
  }
  if (built_iio) {
    IR2_ASSIGN_OR_RETURN(
        std::unique_ptr<FileBlockDevice> device,
        FileBlockDevice::Open(DevicePath(directory, "iio.dat"),
                              kDefaultBlockSize, options.file_device));
    db->iio_device_ = std::move(device);
    db->iio_pool_ = std::make_unique<BufferPool>(
        db->iio_device_.get(), options.prefetch ? options.pool_blocks : 0);
    IR2_ASSIGN_OR_RETURN(db->iio_, InvertedIndex::Open(db->iio_pool_.get()));
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
