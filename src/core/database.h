#ifndef IR2TREE_CORE_DATABASE_H_
#define IR2TREE_CORE_DATABASE_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status_or.h"
#include "core/answer_cache.h"
#include "core/ir2_tree.h"
#include "core/kc_tree.h"
#include "obs/explain.h"
#include "core/mir2_tree.h"
#include "core/planner.h"
#include "core/query.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_model.h"
#include "storage/io_scheduler.h"
#include "storage/object_store.h"
#include "text/inverted_index.h"
#include "text/ir_score.h"
#include "text/tokenizer.h"

namespace ir2 {

// Corpus statistics computed while building (Table 1 of the paper).
struct DatasetStats {
  uint64_t num_objects = 0;
  uint64_t total_tokens = 0;
  uint64_t total_distinct_words = 0;  // Summed per object.
  uint64_t vocabulary_size = 0;
  uint64_t object_file_bytes = 0;
  uint64_t object_file_blocks = 0;

  double AvgDistinctWordsPerObject() const {
    return num_objects ? static_cast<double>(total_distinct_words) /
                             static_cast<double>(num_objects)
                       : 0.0;
  }
  double AvgDocLen() const {
    return num_objects ? static_cast<double>(total_tokens) /
                             static_cast<double>(num_objects)
                       : 0.0;
  }
  // Disk blocks an average LoadObject touches (>= 1; grows with record size
  // and block-boundary straddling).
  double AvgBlocksPerObject() const;
};

struct DatabaseOptions {
  // Uniform signature of the IR2-Tree (and leaf level of the MIR2-Tree).
  // The paper's defaults: 189 bytes (Hotels), 8 bytes (Restaurants), k=3.
  SignatureConfig ir2_signature{/*bits=*/1512, /*hashes_per_word=*/3};

  // Per-level widths of the MIR2-Tree; leave empty to derive from the
  // dataset statistics with DeriveMultilevelScheme.
  MultilevelScheme mir2_scheme;

  RTreeOptions tree_options;

  // Words dropped at indexing and querying (see Tokenizer). Empty = index
  // every word; pass EnglishStopwords() for typical text corpora.
  std::unordered_set<std::string> stopwords;

  // Posting-list storage of the inverted index (compressed by default).
  InvertedIndexOptions iio_options;

  // Buffer pool capacity (blocks) per tree. Pools keep index construction
  // fast; queries run cold when cold_queries is set.
  size_t pool_blocks = 1 << 16;

  // Drop all caches before every query so each measured query starts from a
  // cold disk, as the paper's per-query disk-access figures assume.
  bool cold_queries = true;

  // Build the trees with the STR bulk loader instead of repeated Insert —
  // much faster and better clustered. Off by default: the paper's trees
  // are built incrementally, and the figures are reproduced that way.
  bool bulk_load = false;
  double bulk_fill_fraction = 0.8;

  bool build_rtree = true;
  bool build_ir2 = true;
  bool build_mir2 = true;
  bool build_iio = true;
  // Keyword-clustered hybrid tree (core/kc_tree.h): exact per-entry bitmaps
  // for the hot vocabulary, a shared superimposed signature for the cold
  // tail. The fifth planner candidate.
  bool build_kc = true;
  // Hot-vocabulary clustering knobs; cold_signature{bits=0} inherits
  // ir2_signature for the cold-tail region.
  KcVocabularyOptions kc_vocabulary;
  // Cost-based planner behind Algorithm::kAuto (docs/planner.md). Built at
  // Build/Open time from a one-time tree-stats snapshot; per-query planning
  // is pure in-memory arithmetic.
  bool build_planner = true;

  // ---- Cold-path I/O engine (see docs/performance.md) ----

  // Speculative prefetching: traversals hand likely-next node/object blocks
  // to per-structure IoSchedulers, whose coalesced reads complete into the
  // pools ahead of the demand reads. Results and demand (pool-level)
  // accounting are invariant; QueryStats splits the physical I/O into
  // io (demand thread) and speculative_io (prefetch threads). When off,
  // the object/IIO pools run in bypass mode (capacity 0), which keeps
  // every physical disk count byte-identical to the pre-prefetch engine.
  bool prefetch = false;
  // Also speculate on leaf-candidate *object* blocks during NN traversals.
  // Off by default: a top-k search strands the candidates it never pops,
  // and under the disk-time model stranded random reads are pure loss —
  // object speculation only pays when candidate verification loads nearly
  // everything enqueued (see docs/performance.md). The IIO algorithm,
  // which verifies every intersection candidate, always prefetches its
  // object blocks when `prefetch` is on, independent of this flag.
  bool prefetch_objects = false;
  // Scheduler tuning; set scheduler.synchronous for deterministic benches.
  IoSchedulerOptions scheduler;

  // Parameters of the simulated disk behind QueryStats.simulated_disk_ms.
  // Defaults model the paper's testbed drive (see DiskModelParams); pass
  // NvmeDiskModelParams() to price I/O like a modern SSD instead.
  DiskModelParams disk_model;

  // ---- Real-file backend (Save/Open; see docs/performance.md) ----

  // Applied to every FileBlockDevice an Open()ed database creates —
  // direct_io asks for O_DIRECT (with graceful fallback on filesystems
  // that refuse), so cold-regime runs measure the device, not the page
  // cache. Save() always writes buffered and ends with a Sync() barrier.
  FileBlockDeviceOptions file_device;

  // When > 0, every IoScheduler drives its coalesced prefetch runs through
  // a submission/completion AsyncIoBackend with this many worker threads
  // (io_uring-shaped; storage/async_io.h), overlapping run reads against
  // real files. 0 (default) keeps the deterministic single-worker inline
  // path the golden tests pin.
  uint32_t async_io_threads = 0;

  // After an incremental (non-bulk) build, rewrite each tree with
  // CompactInto so every node's children occupy one contiguous DFS run —
  // the layout BulkLoad now produces natively — turning frontier
  // prefetches into sequential sweeps. Structure and per-query node/object
  // access *counts* are unchanged; only block placement (and therefore the
  // random/sequential split and simulated time) moves.
  bool locality_placement = false;
};

// Owns one dataset plus every index structure of the paper and exposes the
// four query algorithms over them. This is the facade the examples and the
// benchmark harness use; each structure lives on its own MemoryBlockDevice
// so per-structure disk traffic and sizes (Table 2) can be reported.
class SpatialKeywordDatabase {
 public:
  static StatusOr<std::unique_ptr<SpatialKeywordDatabase>> Build(
      std::span<const StoredObject> objects, const DatabaseOptions& options);

  // Persists every structure plus a manifest into `directory` (created if
  // needed; any previous contents are overwritten). The database remains
  // usable afterwards.
  Status Save(const std::string& directory);

  // Opens a database previously Save()d. Indexes are file-backed; queries
  // perform real file I/O. Structural options come from the manifest; the
  // one-argument form also takes every runtime option (cold_queries,
  // prefetch, schedulers, disk model, file-device flags) from the manifest
  // or its defaults.
  static StatusOr<std::unique_ptr<SpatialKeywordDatabase>> Open(
      const std::string& directory);

  // As above, but runtime options — cold_queries, prefetch /
  // prefetch_objects, scheduler, disk_model, file_device, async_io_threads,
  // pool_blocks — are taken from `runtime` instead, so one saved directory
  // can serve cold and warm regimes, O_DIRECT on or off, with or without
  // async prefetch. Structural fields (signatures, tree geometry, which
  // indexes exist) still come from the manifest.
  static StatusOr<std::unique_ptr<SpatialKeywordDatabase>> Open(
      const std::string& directory, const DatabaseOptions& runtime);

  ~SpatialKeywordDatabase();
  SpatialKeywordDatabase(const SpatialKeywordDatabase&) = delete;
  SpatialKeywordDatabase& operator=(const SpatialKeywordDatabase&) = delete;

  // ---- The four distance-first algorithms (Section V) ----
  StatusOr<std::vector<QueryResult>> QueryRTree(const DistanceFirstQuery& q,
                                                QueryStats* stats = nullptr);
  StatusOr<std::vector<QueryResult>> QueryIio(const DistanceFirstQuery& q,
                                              QueryStats* stats = nullptr);
  StatusOr<std::vector<QueryResult>> QueryIr2(const DistanceFirstQuery& q,
                                              QueryStats* stats = nullptr);
  StatusOr<std::vector<QueryResult>> QueryMir2(const DistanceFirstQuery& q,
                                               QueryStats* stats = nullptr);
  // Fifth algorithm: KC-Tree traversal (exact hot-word bitmaps + cold-tail
  // signature; see docs/planner.md).
  StatusOr<std::vector<QueryResult>> QueryKc(const DistanceFirstQuery& q,
                                             QueryStats* stats = nullptr);

  // ---- Cost-based auto mode (see docs/planner.md) ----
  // Prices every candidate algorithm under the DiskModel (zero I/O — tree
  // shapes are snapshotted at Build/Open and keyword frequencies come from
  // the IIO's resident dictionary), executes the cheapest plan, and feeds
  // the observed simulated-disk time back into the planner's EWMA
  // corrections. `plan_out` (optional) receives the full decision.
  StatusOr<std::vector<QueryResult>> QueryAuto(const DistanceFirstQuery& q,
                                               QueryStats* stats = nullptr,
                                               QueryPlan* plan_out = nullptr);

  // Uniform dispatcher over the five fixed algorithms plus kAuto.
  StatusOr<std::vector<QueryResult>> Query(const DistanceFirstQuery& q,
                                           Algorithm algo,
                                           QueryStats* stats = nullptr);

  // ---- EXPLAIN (see docs/observability.md) ----
  // Historical spelling: EXPLAIN predates Algorithm/kAuto and kept its
  // enumerator set when the planner subsumed it.
  using ExplainAlgo = Algorithm;

  struct ExplainResult {
    // Where the query's work and simulated milliseconds went; render with
    // report.ToString().
    obs::ExplainReport report;
    QueryStats stats;
    std::vector<QueryResult> results;
    // Chrome trace-event JSON of this one query (Perfetto-loadable).
    std::string trace_json;
  };

  // Runs `q` under `algo` with a per-query tracer installed and reports
  // QueryStats, per-level pruning, pool/cache hit ratios, the
  // demand/physical/speculative I/O split, the DiskModel time breakdown,
  // and a span summary. Exactly the same execution path as the Query*
  // methods — tracing adds no I/O, so the reported counts match an
  // untraced run of the same query.
  StatusOr<ExplainResult> Explain(const DistanceFirstQuery& q,
                                  ExplainAlgo algo = ExplainAlgo::kIr2);

  // General ranking-function query (Section V-C) over the IR2- or
  // MIR2-Tree. Requires build_iio (for keyword idfs).
  StatusOr<std::vector<QueryResult>> QueryGeneral(const GeneralQuery& q,
                                                  QueryStats* stats = nullptr,
                                                  bool use_mir2 = false);

  // Pure Boolean keyword query (Section II's Ans(Q_w), no spatial
  // component): refs of every object containing all keywords, ascending.
  // Served by posting-list intersection; requires build_iio.
  StatusOr<std::vector<ObjectRef>> KeywordMatches(
      const std::vector<std::string>& keywords, QueryStats* stats = nullptr);

  // ---- Semantic result cache (core/answer_cache.h) ----
  // Installs (nullptr detaches) the answer-cache hook QueryAuto consults
  // before planning. The hook must outlive the database or be detached
  // first; the fixed-algorithm Query* methods never consult it, so cold
  // regression goldens are untouched by construction. Serving tiers that
  // cache above the scatter-gather (ShardedDatabase) leave the per-shard
  // hooks unset.
  void SetResultCache(AnswerCacheHook* hook) { result_cache_ = hook; }
  AnswerCacheHook* result_cache() const { return result_cache_; }
  // Sum of the mutation counters (RTreeBase::version) of every built tree:
  // moves whenever an Insert/Delete/BulkLoad stores a node. The NodeCache
  // invalidation rule lifted to whole answers — cached results filled under
  // an older epoch are rejected on read.
  uint64_t MutationEpoch() const;

  // ---- Measurement control ----
  // Drains in-flight prefetches, then clears every buffer pool and node
  // cache, so the next query starts from a cold simulated disk.
  Status DropCaches();
  void ResetIoStats();
  // Sum of IoStats over every device.
  IoStats AggregateIo() const;

  // ---- Introspection ----
  const DatasetStats& stats() const { return stats_; }
  const DatabaseOptions& options() const { return options_; }
  const Tokenizer& tokenizer() const { return tokenizer_; }
  const ObjectStore& object_store() const { return *object_store_; }
  RTree* rtree() { return rtree_.get(); }
  Ir2Tree* ir2_tree() { return ir2_.get(); }
  Mir2Tree* mir2_tree() { return mir2_.get(); }
  KcTree* kc_tree() { return kc_.get(); }
  const KcVocabulary* kc_vocabulary() const { return kc_vocab_.get(); }
  InvertedIndex* inverted_index() { return iio_.get(); }
  // Every built tree — R-Tree, IR2, MIR2, KC, in that order; structures
  // that were not built are skipped.
  std::vector<RTreeBase*> trees() const;
  // Cost-based planner behind Algorithm::kAuto (null iff build_planner was
  // disabled). Thread-safe: Plan and RecordOutcome may run concurrently
  // from BatchExecutor workers.
  QueryPlanner* planner() { return planner_.get(); }
  const IrScorer& scorer() const { return *scorer_; }
  // The simulated-disk cost model QueryStats.simulated_disk_ms is priced
  // under (shared by all devices; they use one block size).
  DiskModel disk_model() const { return DiskModel(options_.disk_model); }
  // Per-structure prefetch schedulers (null for structures not built).
  IoScheduler* object_scheduler() { return object_scheduler_.get(); }
  IoScheduler* rtree_scheduler() { return rtree_scheduler_.get(); }
  IoScheduler* ir2_scheduler() { return ir2_scheduler_.get(); }
  IoScheduler* mir2_scheduler() { return mir2_scheduler_.get(); }
  IoScheduler* kc_scheduler() { return kc_scheduler_.get(); }
  IoScheduler* iio_scheduler() { return iio_scheduler_.get(); }

  // Structure sizes in bytes (Table 2).
  uint64_t ObjectFileBytes() const;
  uint64_t RTreeBytes() const;
  uint64_t Ir2TreeBytes() const;
  uint64_t Mir2TreeBytes() const;
  uint64_t KcTreeBytes() const;
  uint64_t IioBytes() const;

 private:
  SpatialKeywordDatabase() = default;

  // Shared Open body. When `runtime` is non-null its runtime-class fields
  // replace the manifest's; null keeps the manifest values (legacy form).
  static StatusOr<std::unique_ptr<SpatialKeywordDatabase>> OpenImpl(
      const std::string& directory, const DatabaseOptions* runtime);

  // Creates the per-structure prefetch schedulers (plus, when
  // async_io_threads > 0, an AsyncIoBackend per pool) over the existing
  // pools and attaches the IIO streaming scheduler; shared tail of
  // Build/Open.
  void WireIoEngine();

  // Snapshots the planner's inputs (tree shapes via ComputeTreeStats —
  // which reads every node, so this runs once here, never per query) and
  // constructs the planner. Runs before ResetIoStats in Build/Open so the
  // snapshot's reads never appear in any measurement.
  Status WirePlanner();

  // QueryAuto minus the result-cache consult: plan, execute, feed back.
  StatusOr<std::vector<QueryResult>> QueryAutoPlanned(
      const DistanceFirstQuery& q, QueryStats* stats, QueryPlan* plan_out);
  // Full QueryAuto path with the reuse decision surfaced (EXPLAIN).
  StatusOr<std::vector<QueryResult>> QueryAutoCached(
      const DistanceFirstQuery& q, QueryStats* stats, QueryPlan* plan_out,
      CacheReuseCheck* check_out);

  // Shared prologue/epilogue of every query method: optional cache drop,
  // timing, three-way I/O diffing (demand / physical / speculative) and
  // simulated-time pricing.
  template <typename Fn>
  StatusOr<std::vector<QueryResult>> RunQuery(QueryStats* stats, Fn&& fn);

  // Per-calling-thread pool-level (logical demand) request counters summed
  // over every pool.
  IoStats PoolThreadIo() const;
  // Per-calling-thread physical device access counters summed over every
  // device.
  IoStats DeviceThreadIo() const;
  // Physical prefetch-thread I/O summed over every scheduler.
  IoStats SchedulerIo() const;
  // Blocks until no scheduler has work pending or in flight.
  void DrainSchedulers();

  // Scan-vs-seek speculation policy for candidate verification: when the
  // DiskModel prices one sequential sweep of the whole object file below
  // the random accesses the query's object loads are expected to cost,
  // streams the file into the object pool ahead of the demand loads. The
  // load estimate is k divided by the keyword conjunction's selectivity
  // (document frequencies from the IIO's in-memory dictionary — no I/O),
  // since verification keeps seeking until k candidates pass. A direct
  // application of the disk-time model to scheduling: once the expected
  // seeks outprice one pass over the file, the head should never come
  // back. No-op when prefetching is off or the model favors seeks.
  void MaybeSweepObjectFile(const DistanceFirstQuery& q);

  DatabaseOptions options_;
  DatasetStats stats_;
  Tokenizer tokenizer_;
  AnswerCacheHook* result_cache_ = nullptr;  // Not owned.

  // Devices first, pools second, trees third: members are destroyed in
  // reverse order, so trees flush into live pools and pools into live
  // devices. Memory-backed when Build()t, file-backed when Open()ed.
  std::unique_ptr<BlockDevice> object_device_;
  std::unique_ptr<BlockDevice> rtree_device_;
  std::unique_ptr<BlockDevice> ir2_device_;
  std::unique_ptr<BlockDevice> mir2_device_;
  std::unique_ptr<BlockDevice> kc_device_;
  std::unique_ptr<BlockDevice> iio_device_;

  // Tree pools cache nodes during construction; the object/IIO pools exist
  // for the prefetch engine and run in bypass mode (capacity 0) when
  // prefetching is off, which keeps physical disk counts byte-identical to
  // the pool-less layering.
  std::unique_ptr<BufferPool> object_pool_;
  std::unique_ptr<BufferPool> rtree_pool_;
  std::unique_ptr<BufferPool> ir2_pool_;
  std::unique_ptr<BufferPool> mir2_pool_;
  std::unique_ptr<BufferPool> kc_pool_;
  std::unique_ptr<BufferPool> iio_pool_;

  std::unique_ptr<ObjectStore> object_store_;
  std::unique_ptr<RTree> rtree_;
  std::unique_ptr<Ir2Tree> ir2_;
  std::unique_ptr<Mir2Tree> mir2_;
  // Vocabulary before the tree: the tree holds a pointer into it, so the
  // reverse destruction order keeps the vocabulary alive longer.
  std::unique_ptr<KcVocabulary> kc_vocab_;
  std::unique_ptr<KcTree> kc_;
  std::unique_ptr<InvertedIndex> iio_;
  std::unique_ptr<IrScorer> scorer_;
  std::unique_ptr<QueryPlanner> planner_;

  // Async read backends (one per pool when async_io_threads > 0). Declared
  // before the schedulers so they are destroyed after them — a scheduler's
  // worker may be blocked in Submit/Reap on its backend until it stops.
  std::vector<std::unique_ptr<AsyncIoBackend>> async_backends_;

  // Schedulers last: destroyed first, so their worker threads stop touching
  // the pools before anything above is torn down.
  std::unique_ptr<IoScheduler> object_scheduler_;
  std::unique_ptr<IoScheduler> rtree_scheduler_;
  std::unique_ptr<IoScheduler> ir2_scheduler_;
  std::unique_ptr<IoScheduler> mir2_scheduler_;
  std::unique_ptr<IoScheduler> kc_scheduler_;
  std::unique_ptr<IoScheduler> iio_scheduler_;
};

}  // namespace ir2

#endif  // IR2TREE_CORE_DATABASE_H_
