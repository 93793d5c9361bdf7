#ifndef IR2TREE_CORE_DATABASE_H_
#define IR2TREE_CORE_DATABASE_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status_or.h"
#include "core/ir2_search.h"
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

namespace serving {
class ShardedDatabase;
}  // namespace serving

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

  bool operator==(const DatasetStats&) const = default;
};

// The six stored structures, one slot each in SpatialKeywordDatabase's
// structure table, in table order.
enum class Structure : uint8_t { kObjects, kRTree, kIr2, kMir2, kKcTree, kIio };
inline constexpr size_t kNumStructures = 6;
// Save's file stems and EXPLAIN's pool and scheduler rows, by table slot.
inline constexpr const char* kStructureNames[kNumStructures] = {
    "objects", "rtree", "ir2", "mir2", "kctree", "iio"};

// Everything one distance-first query's callers hand down and read back,
// passed explicitly from the serving tier (ServerLoop, ShardedDatabase)
// and BatchExecutor through the database's per-query step to the tree
// cursors. A context may serve many queries in turn; `stats` and `audit`
// accumulate over them.
struct QueryContext {
  // ---- Handed down (all optional) ----

  // Reusable traversal buffers for the tree searches (one per
  // BatchExecutor worker); the cursors own their own when null.
  Ir2QueryScratch* scratch = nullptr;
  // Where kAuto records its observed cost; the planner's own feedback when
  // null.
  PlannerFeedback* feedback = nullptr;
  // The pool each tree's node reads go through, by structure slot; null
  // means the slot's own pool. BatchExecutor workers put private pools
  // over the tree devices here, so node caching is per worker and a
  // query's disk-access profile is a function of the query alone. Read for
  // the tree slots only (object and posting reads go through the slots'
  // own pools); the caller clears the pools it hands in.
  std::array<BufferPool*, kNumStructures> read_pools{};

  // ---- Read back ----

  QueryStats stats;
  // kAuto's decision on a single database (kept even when nothing can
  // answer the query). A sharded tier leaves it alone and folds each leg's
  // plan into `audit` instead.
  QueryPlan plan;

  // Planner audit for the serving query log: sums over every executed
  // kAuto plan — one per shard leg under a scatter-gather.
  struct PlanAudit {
    Algorithm algo = Algorithm::kAuto;  // Last chosen algorithm.
    double predicted_ms = 0.0;
    double observed_ms = 0.0;  // Simulated disk ms the plans cost.
    uint32_t plans = 0;

    // Folds in one executed plan; no-op unless it made a choice.
    void Add(const QueryPlan& executed, double executed_ms) {
      if (!executed.has_choice) return;
      algo = executed.chosen;
      predicted_ms += executed.chosen_predicted_ms;
      observed_ms += executed_ms;
      ++plans;
    }
  };
  PlanAudit audit;
};

// A set of structures: one bit per slot of the structure table.
class StructureSet {
 public:
  constexpr StructureSet() = default;
  constexpr StructureSet(std::initializer_list<Structure> members) {
    for (Structure s : members) bits_ |= Bit(s);
  }
  constexpr bool Has(Structure s) const { return (bits_ & Bit(s)) != 0; }
  constexpr StructureSet With(Structure s) const {
    StructureSet out = *this;
    out.bits_ |= Bit(s);
    return out;
  }
  constexpr StructureSet Without(Structure s) const {
    StructureSet out = *this;
    out.bits_ &= ~Bit(s);
    return out;
  }
  constexpr bool operator==(const StructureSet&) const = default;

 private:
  static constexpr uint32_t Bit(Structure s) {
    return 1u << static_cast<uint32_t>(s);
  }
  uint32_t bits_ = 0;
};

// Every index structure: the paper's R-Tree, IR2-Tree, MIR2-Tree and
// inverted index, plus the KC-Tree.
inline constexpr StructureSet kAllIndexes{Structure::kRTree, Structure::kIr2,
                                          Structure::kMir2, Structure::kKcTree,
                                          Structure::kIio};

struct DatabaseOptions {
  // Uniform signature of the IR2-Tree (and leaf level of the MIR2-Tree).
  // The paper's defaults: 189 bytes (Hotels), 8 bytes (Restaurants), k=3.
  SignatureConfig ir2_signature{/*bits=*/1512, /*hashes_per_word=*/3};

  // Per-level widths of the MIR2-Tree; leave empty to derive from the
  // dataset statistics with DeriveMultilevelScheme (options() then reports
  // the derived scheme).
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

  // The index structures to build; the object file is always stored. A
  // query whose fixed algorithm needs a structure outside the set returns
  // FailedPrecondition, and kAuto prices that candidate as infeasible.
  StructureSet structures = kAllIndexes;
  // Hot-vocabulary clustering knobs of the KC-Tree (core/kc_tree.h: exact
  // per-entry bitmaps for the hot vocabulary, a shared superimposed
  // signature for the cold tail); cold_signature{bits=0} inherits
  // ir2_signature for the cold-tail region.
  KcVocabularyOptions kc_vocabulary;
  // ---- Cold-path I/O engine (see docs/performance.md) ----

  // Speculative prefetching: tree traversals hand their frontier's node
  // blocks, and the IIO algorithm its candidates' object blocks, to
  // per-structure IoSchedulers, whose coalesced reads complete into the
  // pools ahead of the demand reads. Results and demand (pool-level)
  // accounting are invariant; QueryStats splits the physical I/O into
  // io (demand thread) and speculative_io (prefetch threads). When off,
  // the object/IIO pools run in bypass mode (capacity 0), which keeps
  // every physical disk count byte-identical to the pre-prefetch engine.
  bool prefetch = false;
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
// four query algorithms (plus the KC-Tree and the cost-based kAuto) over
// them. This is the facade the examples and the benchmark harness use.
//
// Structure table: each of the six stored structures — the object file,
// R-Tree, IR2-Tree, MIR2-Tree, KC-Tree and inverted index — owns one slot
// holding its block device, the buffer pool over that device, the prefetch
// scheduler over that pool and, for the four trees, the tree itself, so
// per-structure disk traffic and sizes (Table 2) can be reported. The slots
// are indexed by Structure; a slot is empty when options().structures
// leaves its structure out. Devices are memory-backed when Build()t,
// file-backed when Open()ed.
//
// The four trees are one R-Tree (RTreeBase) with different entry payloads,
// as the paper defines the IR2- and MIR2-Tree (§IV). MakeTree is the one
// place that knows which subclass and options a tree slot gets; Build (its
// insert or bulk-load loop and the locality_placement compaction) and Open
// both create trees through it, and everything else — the planner's
// tree-shape snapshot, MutationEpoch, trees(), the not-built checks — reads
// the table. A new tree kind is an enum entry and name, one MakeTree case,
// its RTreeBase::FillObjectPayload, one RunAlgorithm case and its planner
// cost.
//
// Every distance-first query runs one per-query step (ExecuteQuery): plan,
// dispatch (RunAlgorithm), account (AccountSince), feed back. Query,
// Explain and BatchExecutor workers all reach that same code.
//
// The cost-based planner behind Algorithm::kAuto (docs/planner.md) is
// built at Build/Open time from a one-time tree-stats snapshot; per-query
// planning is pure in-memory arithmetic.
//
// Teardown: the destructor first stops every scheduler (their worker
// threads touch the pools), then the async read backends, then destroys
// the trees while their pools, the object store and the KC vocabulary they
// point into are alive. Member destruction then runs in reverse
// declaration order; within each slot the pool flushes into its live
// device.
class SpatialKeywordDatabase {
 public:
  // Stores `objects` and builds every structure in options.structures. The
  // structures build concurrently, one task each, on up to one thread per
  // hardware thread; the calling thread is one of them and every other is
  // joined before Build returns (docs/concurrency.md). A failed structure
  // returns the Status of the first failed one in table order.
  static StatusOr<std::unique_ptr<SpatialKeywordDatabase>> Build(
      std::span<const StoredObject> objects, const DatabaseOptions& options);

  // Persists every built structure plus a manifest into `directory`
  // (created if needed; any previous contents are overwritten). After the
  // manifest commits, the files of structures this database did not build
  // are removed, so a lean save over a fuller one leaves no stale files.
  // The database remains usable afterwards. Returns InvalidArgument, before
  // touching the directory, when a stopword cannot be stored as one
  // manifest token (empty, or containing whitespace).
  Status Save(const std::string& directory);

  // Opens a database previously Save()d. Indexes are file-backed; queries
  // perform real file I/O. Structural fields (signatures, tree geometry,
  // which indexes exist, stopwords) come from the manifest. Runtime
  // options — cold_queries, prefetch, scheduler, disk_model, file_device,
  // async_io_threads, pool_blocks — come from `runtime`, so one saved
  // directory can serve cold and warm regimes, O_DIRECT on or off, with or
  // without async prefetch.
  static StatusOr<std::unique_ptr<SpatialKeywordDatabase>> Open(
      const std::string& directory,
      const DatabaseOptions& runtime = DatabaseOptions());

  ~SpatialKeywordDatabase();
  SpatialKeywordDatabase(const SpatialKeywordDatabase&) = delete;
  SpatialKeywordDatabase& operator=(const SpatialKeywordDatabase&) = delete;

  // Runs `q` under `algo`: one of the five fixed algorithms, or kAuto,
  // which prices every candidate algorithm under the DiskModel (zero I/O —
  // tree shapes are snapshotted at Build/Open and keyword frequencies come
  // from the IIO's resident dictionary; see docs/planner.md), executes the
  // cheapest plan, and feeds the observed simulated-disk time back into the
  // planner's EWMA corrections. Under cold_queries DropCaches runs first:
  // the slots' own pools are cleared and the calling thread's cursors on
  // them and their devices forgotten (the caller does both for any read
  // pool it puts in `ctx`), so each structure's first read counts as
  // random and a cold query's profile is a pure function of the query,
  // whatever ran before it on the thread. Accumulates into ctx.stats and
  // ctx.audit; kAuto's full decision lands in ctx.plan.
  StatusOr<std::vector<QueryResult>> Query(const DistanceFirstQuery& q,
                                           Algorithm algo, QueryContext& ctx);

  // The same with a fresh context: accumulates into *stats; `plan_out`
  // (optional) receives kAuto's decision.
  StatusOr<std::vector<QueryResult>> Query(const DistanceFirstQuery& q,
                                           Algorithm algo,
                                           QueryStats* stats = nullptr,
                                           QueryPlan* plan_out = nullptr);

  // ---- The four distance-first algorithms (Section V) ----
  StatusOr<std::vector<QueryResult>> QueryRTree(const DistanceFirstQuery& q,
                                                QueryStats* stats = nullptr) {
    return Query(q, Algorithm::kRTree, stats);
  }
  StatusOr<std::vector<QueryResult>> QueryIio(const DistanceFirstQuery& q,
                                              QueryStats* stats = nullptr) {
    return Query(q, Algorithm::kIio, stats);
  }
  StatusOr<std::vector<QueryResult>> QueryIr2(const DistanceFirstQuery& q,
                                              QueryStats* stats = nullptr) {
    return Query(q, Algorithm::kIr2, stats);
  }
  StatusOr<std::vector<QueryResult>> QueryMir2(const DistanceFirstQuery& q,
                                               QueryStats* stats = nullptr) {
    return Query(q, Algorithm::kMir2, stats);
  }
  // Fifth algorithm: KC-Tree traversal (exact hot-word bitmaps + cold-tail
  // signature; see docs/planner.md).
  StatusOr<std::vector<QueryResult>> QueryKc(const DistanceFirstQuery& q,
                                             QueryStats* stats = nullptr) {
    return Query(q, Algorithm::kKcTree, stats);
  }
  // Cost-based auto mode (see Query).
  StatusOr<std::vector<QueryResult>> QueryAuto(const DistanceFirstQuery& q,
                                               QueryStats* stats = nullptr,
                                               QueryPlan* plan_out = nullptr) {
    return Query(q, Algorithm::kAuto, stats, plan_out);
  }

  // ---- EXPLAIN (see docs/observability.md) ----
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
  // and a span summary. Runs through Query — tracing adds no I/O, so the
  // reported counts match an untraced run of the same query.
  StatusOr<ExplainResult> Explain(const DistanceFirstQuery& q,
                                  Algorithm algo = Algorithm::kIr2);

  // General ranking-function query (Section V-C) over the IR2- or
  // MIR2-Tree. Requires the inverted index (for keyword idfs).
  StatusOr<std::vector<QueryResult>> QueryGeneral(const GeneralQuery& q,
                                                  QueryStats* stats = nullptr,
                                                  bool use_mir2 = false);

  // Pure Boolean keyword query (Section II's Ans(Q_w), no spatial
  // component): refs of every object containing all keywords, ascending.
  // Served by posting-list intersection; requires the inverted index.
  StatusOr<std::vector<ObjectRef>> KeywordMatches(
      const std::vector<std::string>& keywords, QueryStats* stats = nullptr);

  // Sum of the mutation counters (RTreeBase::version) of every built tree:
  // moves whenever an Insert/Delete/BulkLoad stores a node. The serving
  // tier's result cache (serving/result_cache.h) rejects answers filled
  // under an older epoch.
  uint64_t MutationEpoch() const;

  // ---- Measurement control ----
  // Drains in-flight prefetches, then clears every buffer pool and node
  // cache and forgets the calling thread's cursor on every pool and
  // device, so the thread's next query starts from a cold simulated disk.
  // Query runs it first under cold_queries.
  Status DropCaches();
  void ResetIoStats();
  // Sum of IoStats over every device.
  IoStats AggregateIo() const;

  // ---- Introspection ----
  const DatasetStats& stats() const { return stats_; }
  const DatabaseOptions& options() const { return options_; }
  const Tokenizer& tokenizer() const { return tokenizer_; }
  const ObjectStore& object_store() const { return *object_store_; }
  RTree* rtree() { return static_cast<RTree*>(tree(kRTree)); }
  Ir2Tree* ir2_tree() { return static_cast<Ir2Tree*>(tree(kIr2)); }
  Mir2Tree* mir2_tree() { return static_cast<Mir2Tree*>(tree(kMir2)); }
  KcTree* kc_tree() { return static_cast<KcTree*>(tree(kKcTree)); }
  const KcVocabulary* kc_vocabulary() const { return kc_vocab_.get(); }
  InvertedIndex* inverted_index() { return iio_.get(); }
  // Every built tree — R-Tree, IR2, MIR2, KC, in that order; structures
  // that were not built are skipped.
  std::vector<RTreeBase*> trees() const;
  // Cost-based planner behind Algorithm::kAuto. Thread-safe: Plan and
  // RecordOutcome may run concurrently from BatchExecutor workers.
  QueryPlanner* planner() { return planner_.get(); }
  const IrScorer& scorer() const { return *scorer_; }
  // The simulated-disk cost model QueryStats.simulated_disk_ms is priced
  // under (shared by all devices; they use one block size).
  DiskModel disk_model() const { return DiskModel(options_.disk_model); }

  // Structure sizes in bytes (Table 2); 0 for a structure not built.
  uint64_t StructureBytes(Structure s) const {
    return slot(s).device ? slot(s).device->SizeBytes() : 0;
  }
  uint64_t ObjectFileBytes() const { return StructureBytes(kObjects); }
  uint64_t RTreeBytes() const { return StructureBytes(kRTree); }
  uint64_t Ir2TreeBytes() const { return StructureBytes(kIr2); }
  uint64_t Mir2TreeBytes() const { return StructureBytes(kMir2); }
  uint64_t KcTreeBytes() const { return StructureBytes(kKcTree); }
  uint64_t IioBytes() const { return StructureBytes(kIio); }

 private:
  using enum Structure;

  // Workers run ExecuteQuery with their own context (scratch, feedback and
  // private read pools) after clearing those pools and forgetting the
  // thread's cursors.
  friend class BatchExecutor;
  // A tier builds each shard with its share of the machine's threads.
  friend class serving::ShardedDatabase;

  // Build on at most `workers` threads, the calling thread among them:
  // the index structures build as concurrent tasks (the calling thread
  // takes the inverted index, helper threads the trees, longest first),
  // and with one worker they run inline. The public Build gives every
  // hardware thread; a tier gives each shard its share, so shard and
  // structure workers never nest.
  static StatusOr<std::unique_ptr<SpatialKeywordDatabase>> Build(
      std::span<const StoredObject> objects, const DatabaseOptions& options,
      size_t workers);

  // One structure's storage stack, declared bottom-up so it tears down
  // top-down. Empty when the structure was not built. The tree pools cache
  // nodes during construction; the object/IIO pools exist for the prefetch
  // engine and run in bypass mode (capacity 0) when prefetching is off,
  // which keeps physical disk counts byte-identical to the pool-less
  // layering. `tree` is set on the four tree slots only.
  struct StructureSlot {
    std::unique_ptr<BlockDevice> device;
    std::unique_ptr<BufferPool> pool;
    std::unique_ptr<IoScheduler> scheduler;
    std::unique_ptr<RTreeBase> tree;
  };

  // Counters a query's QueryStats are diffed from (see RunQuery).
  struct ThreadCounters {
    IoStats demand;       // Pool-level (logical) requests.
    IoStats physical;     // Device accesses.
    IoStats speculative;  // Prefetch-thread device accesses.
    uint64_t node_decodes = 0;
  };

  SpatialKeywordDatabase() = default;

  // The tree stored on slot `s` (null for the object file, the inverted
  // index and trees that were not built).
  RTreeBase* tree(Structure s) const { return slot(s).tree.get(); }
  StructureSlot& slot(Structure s) { return slots_[static_cast<size_t>(s)]; }
  const StructureSlot& slot(Structure s) const {
    return slots_[static_cast<size_t>(s)];
  }

  // The empty tree of kind `s` over `pool`: the one place that knows which
  // RTreeBase subclass and options each tree slot gets. Reads the resolved
  // structural options (MIR2 scheme, KC vocabulary) and the object store;
  // null for the object file and the inverted index.
  std::unique_ptr<RTreeBase> MakeTree(Structure s, BufferPool* pool) const;

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

  // The pool slot `s`'s reads go through under `ctx`: its read pool, or
  // the slot's own.
  BufferPool* ReadPool(const QueryContext& ctx, Structure s) const {
    BufferPool* pool = ctx.read_pools[static_cast<size_t>(s)];
    return pool != nullptr ? pool : slot(s).pool.get();
  }

  // The single per-algorithm dispatch: runs fixed algorithm `algo` (never
  // kAuto) over its structure with this database's prefetch wiring and
  // object-file sweep policy, handing the tree searches ctx's scratch and
  // the tree's read pool. Adds the algorithm's counters to ctx.stats.
  // Returns FailedPrecondition when the structure was not built.
  StatusOr<std::vector<QueryResult>> RunAlgorithm(const DistanceFirstQuery& q,
                                                  Algorithm algo,
                                                  QueryContext& ctx);

  // The per-query step behind Query and every BatchExecutor worker (the
  // caller applies its own cold protocol first): plans `algo` under kAuto
  // into ctx.plan, runs RunAlgorithm inside RunQuery, then records the
  // outcome into ctx.feedback (the planner's own when null) and ctx.audit.
  StatusOr<std::vector<QueryResult>> ExecuteQuery(const DistanceFirstQuery& q,
                                                  Algorithm algo,
                                                  QueryContext& ctx);

  // Measured run of one query body, which adds its own counters to
  // ctx.stats: timing, the kQuery span, three-way I/O diffing (demand at
  // ctx's read pools / physical / speculative), simulated-time pricing and
  // the core query metrics, all added to ctx.stats. `*simulated_disk_ms`
  // (optional) receives the run's own simulated disk time. Drops no
  // caches; callers do that first.
  template <typename Fn>
  StatusOr<std::vector<QueryResult>> RunQuery(QueryContext& ctx, Fn&& body,
                                              double* simulated_disk_ms);

  // Forgets the calling thread's sequential-access cursor on every pool a
  // query under `ctx` reads through and on the devices behind them, so
  // each structure's first read counts as random: the head position every
  // cold query starts from. The one cold cursor reset, next to each cache
  // drop: DropCaches (the slots' own pools) and every BatchExecutor
  // worker's cold step (its private pools) call it.
  void ForgetThreadCursors(const QueryContext& ctx);

  // The calling thread's counters: demand requests at the pools it reads
  // through under `ctx`, its device accesses, all prefetch-thread accesses
  // and its node decodes.
  ThreadCounters CurrentThreadCounters(const QueryContext& ctx) const;
  // Fills the I/O fields and node_decodes of *stats with the calling
  // thread's counters since `before` and prices simulated_disk_ms.
  void AccountSince(const ThreadCounters& before, const QueryContext& ctx,
                    QueryStats* stats) const;

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

  // Every structure's storage stack and tree; the destructor destroys the
  // trees before any other member.
  std::array<StructureSlot, kNumStructures> slots_;
  // Async read backends (one per pool when async_io_threads > 0); stopped
  // by the destructor right after the schedulers that submit to them.
  std::vector<std::unique_ptr<AsyncIoBackend>> async_backends_;

  // The MIR2-Tree loads objects through the store and the KC-Tree reads
  // the vocabulary; both outlive the trees.
  std::unique_ptr<ObjectStore> object_store_;
  std::unique_ptr<KcVocabulary> kc_vocab_;
  std::unique_ptr<InvertedIndex> iio_;
  std::unique_ptr<IrScorer> scorer_;
  std::unique_ptr<QueryPlanner> planner_;
};

}  // namespace ir2

#endif  // IR2TREE_CORE_DATABASE_H_
