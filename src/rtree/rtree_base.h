#ifndef IR2TREE_RTREE_RTREE_BASE_H_
#define IR2TREE_RTREE_RTREE_BASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/status_or.h"
#include "geo/rect.h"
#include "rtree/entry.h"
#include "rtree/node_cache.h"
#include "storage/buffer_pool.h"
#include "storage/object_store.h"

namespace ir2 {

// How entry payloads at one level filter a query, as a cost model sees
// them: a containment test over `bits` payload bits into which every query
// word sets `hashes_per_word` bits. {0, 0} is no filter (fp = 1).
struct PayloadFilter {
  uint32_t bits = 0;
  uint32_t hashes_per_word = 0;
};

// Node split algorithm. The paper uses Guttman's quadratic split; the
// R*-Tree split (margin-driven axis choice, overlap-driven distribution,
// Beckmann et al. 1990) is provided as the standard higher-quality
// alternative (cf. the R*-trees in the paper's Related Work [ZXW+05]).
enum class SplitPolicy {
  kQuadratic,
  kRStar,
};

struct RTreeOptions {
  uint32_t dims = 2;

  SplitPolicy split_policy = SplitPolicy::kQuadratic;

  // R* forced reinsertion (Beckmann et al.): on the first overflow of a
  // level during an insertion, the entries farthest from the node's center
  // are removed and re-inserted instead of splitting, which re-clusters
  // the tree over time. Fraction of the node re-inserted; 0 disables.
  // Non-zero values pair naturally with SplitPolicy::kRStar. Note: on a
  // MIR2-Tree every removal forces subtree signature recomputation, so
  // forced reinsertion is best left off there.
  double forced_reinsert_fraction = 0.0;

  // Guttman's minimum node fill m as a fraction of capacity M (m <= M/2).
  double min_fill_fraction = 0.4;

  // 0 derives the capacity from the block size so that a *payload-free*
  // node fills exactly one disk block — the paper's 113 children at 4096 B.
  // Signature-carrying trees keep this same fan-out and spill into extra
  // contiguous blocks. Tests override this to force deep trees.
  uint32_t capacity_override = 0;

  // When true, inner-node payloads are NOT maintained during updates; the
  // caller must run a bulk fix-up pass afterwards (Mir2Tree::
  // RecomputeAllSignatures). Used to bulk load MIR2-Trees, whose faithful
  // incremental maintenance is deliberately expensive (see the paper §IV).
  bool defer_inner_payload_maintenance = false;

  // When false, the tree writes no superblock and does not require an
  // empty device: many trees can share one device (used by the hybrid
  // per-keyword-tree baseline, whose trees live only as long as the
  // index that built them).
  bool manage_superblock = true;
};

// Disk-resident R-Tree with per-entry payloads maintained alongside MBRs.
//
// This is Guttman's R-Tree [Gut84] — ChooseLeaf, quadratic split,
// AdjustTree, and Delete via FindLeaf/CondenseTree with re-insertion —
// extended exactly where the paper (§IV) extends it: every entry carries a
// payload (signature) that AdjustTree/CondenseTree keep consistent with the
// entries below it.
//
// Subclasses define the payload semantics (PayloadBytes, FillObjectPayload
// and, for non-OR parents, ComputeNodePayloadForParent):
//   * RTree      — zero-byte payloads (the classic structure),
//   * Ir2Tree    — uniform-length signatures, parent = OR of children,
//   * Mir2Tree   — per-level signature lengths, parents recomputed from the
//                  objects of the subtree,
//   * KcTree     — exact hot-word bitmap + cold-tail signature, parent = OR.
//
// The tree persists through a BufferPool onto a BlockDevice; node reads and
// writes therefore show up in the device's IoStats with the multi-block
// first-random-then-sequential pattern the paper measures.
//
// Thread-safety: a fully built tree is immutable, so any number of threads
// may run searches (LoadNode and everything built on it) concurrently —
// provided each worker passes a private BufferPool over the tree's device
// as the read pool, which both removes pool contention and keeps each
// worker's cache state (and therefore its per-query disk-access counts)
// independent of the other workers. Mutations are single-threaded.
class RTreeBase {
 public:
  virtual ~RTreeBase() = default;

  RTreeBase(const RTreeBase&) = delete;
  RTreeBase& operator=(const RTreeBase&) = delete;

  // Creates an empty tree on the pool's (empty) device: superblock + empty
  // root leaf. Call exactly one of Init or Load before any other method.
  Status Init();

  // Opens an existing tree (superblock at block 0).
  Status Load();

  // Inserts an object whose (normalized, distinct) words hash to
  // `word_hashes` (HashWord; none for a plain R-Tree); its payload at every
  // level is FillObjectPayload's.
  Status InsertObject(ObjectRef ref, const Rect& rect,
                      std::span<const uint64_t> word_hashes);

  // One object handed to BulkLoad.
  struct BulkObject {
    ObjectRef ref;
    Rect rect;
    std::span<const uint64_t> word_hashes;  // HashWord of each distinct word.
  };

  // Sort-Tile-Recursive bulk load [Leutenegger et al.]: packs the objects
  // into leaves at `fill_fraction` of capacity and builds the upper levels
  // bottom-up — far faster than repeated InsertObject and with
  // better-clustered nodes. The tree must be freshly Init()-ed and empty.
  // Leaf payloads are FillObjectPayload's; inner payloads use the subclass
  // semantics (skipped when defer_inner_payload_maintenance is set — run
  // the fix-up pass afterwards, as with incremental MIR2 bulk builds).
  Status BulkLoad(std::span<const BulkObject> objects,
                  double fill_fraction = 0.7);

  // Deletes the object previously inserted as (ref, rect). Returns true if
  // found. Underflowing nodes are condensed and their entries re-inserted,
  // with ancestor payloads recomputed (Figure 8 of the paper).
  StatusOr<bool> Delete(ObjectRef ref, const Rect& rect);

  // Offline compaction pass: rewrites this (fully built) tree into `dst`
  // with locality-aware placement — a preorder copy in which every node's
  // children are allocated contiguously in entry order, the DFS layout
  // BulkLoad produces natively. Gives incrementally built trees (whose
  // splits scatter siblings across the file) sequential sibling runs that
  // the prefetch scheduler can coalesce. Structure, entry order, and
  // payloads are copied verbatim; only block ids change.
  //
  // `dst` must be a freshly Init()-ed empty tree of the same shape:
  // identical dims, node capacity, and per-level payload widths (in
  // practice: the same subclass constructed with the same options over an
  // empty device). The source tree is not modified.
  Status CompactInto(RTreeBase* dst) const;

  // Flushes superblock + dirty pages to the device.
  Status Flush();

  // ---- Introspection (used by search algorithms, tests and benches) ----

  uint64_t size() const { return count_; }
  uint32_t height() const { return root_level_; }  // Leaf-only tree: 0.
  BlockId root_id() const { return root_id_; }
  uint32_t node_capacity() const { return capacity_; }
  uint32_t min_fill() const { return min_fill_; }
  uint32_t dims() const { return options_.dims; }
  const RTreeOptions& options() const { return options_; }
  // Switches defer_inner_payload_maintenance for the mutations that follow
  // (a deferred bulk build turns it on, then off after its fix-up pass).
  void set_defer_inner_payload_maintenance(bool defer) {
    options_.defer_inner_payload_maintenance = defer;
  }

  // Payload length (bytes) of entries residing in a node at `level`.
  virtual uint32_t PayloadBytes(uint32_t level) const = 0;

  // The one rule a tree kind adds to Guttman's R-Tree: fills `out`
  // (PayloadBytes(level) bytes, zeroed) with the payload of an object whose
  // distinct words hash to `word_hashes`, for its entry in a node at
  // `level`. InsertObject and BulkLoad take every leaf payload, and
  // AdjustTree's OR-in of an inserted object, from here.
  virtual void FillObjectPayload(std::span<const uint64_t> word_hashes,
                                 uint32_t level,
                                 std::span<uint8_t> out) const = 0;

  // How payloads at `level` filter a query (the planner's tree-shape
  // snapshot prices traversals with it). No filter unless overridden.
  virtual PayloadFilter PayloadFilterAt(uint32_t /*level*/) const {
    return {};
  }

  // Number of contiguous disk blocks reserved for a node at `level` (full
  // capacity).
  uint32_t BlocksPerNode(uint32_t level) const;

  // Number of blocks a node at `level` with `entry_count` live entries
  // actually occupies — what LoadNode/StoreNode transfer.
  uint32_t BlocksUsed(uint32_t level, uint32_t entry_count) const;

  // Reads a node from disk (counts I/O: 1 random + sequential reads)
  // through `pool` — a pool over this tree's device — or, when null,
  // through pool().
  StatusOr<Node> LoadNode(BlockId id, BufferPool* pool = nullptr) const;

  // Warm-path variant: when a NodeCache is attached, a hit returns the
  // already-decoded node without touching the device, the pool, or the
  // decoder; a miss decodes via LoadNode (same I/O accounting) and caches
  // the result. With no cache attached this is LoadNode plus one
  // shared_ptr allocation. Traversals that only read nodes (IncrementalNN
  // and everything built on it) go through here; mutation paths keep using
  // LoadNode so a node about to be modified is never served from — or
  // inserted into — the cache. `pool` as for LoadNode.
  StatusOr<std::shared_ptr<const Node>> LoadNodeShared(
      BlockId id, BufferPool* pool = nullptr) const;

  // Attaches (or, with nullptr, detaches) a decoded-node cache. The cache
  // must outlive the tree or be detached first; one cache may be shared by
  // any number of reader threads. Cold-regime measurement simply leaves the
  // cache detached, which keeps every disk count byte-identical to the
  // uncached implementation.
  void SetNodeCache(NodeCache* cache) { node_cache_ = cache; }
  NodeCache* node_cache() const { return node_cache_; }

  // Mutation counter consulted by the NodeCache: bumped on every node
  // store, so cached nodes decoded before any Insert/Delete/BulkLoad can
  // never be served afterwards.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  // Process-wide count of node deserializations (LoadNode decodes), for the
  // warm-path benches: the decode tax the NodeCache exists to eliminate.
  static uint64_t TotalNodeDecodes();
  // The calling thread's node decodes since it started (never reset);
  // queries diff it around their execution into QueryStats::node_decodes.
  static uint64_t ThreadNodeDecodes();

  // Appends the ObjectRefs of every object under `node_id` (inclusive
  // subtree scan; reads nodes, not objects).
  Status CollectObjectRefs(BlockId node_id, std::vector<ObjectRef>* out) const;

  // Structural invariant check for tests: balance, fill factors, MBR
  // containment, payload superimposition (parent payload contains the OR of
  // child payloads for uniform trees), and object count.
  Status Validate() const;

  BufferPool* pool() const { return pool_; }

 protected:
  RTreeBase(BufferPool* pool, RTreeOptions options);

  // Computes the payload that a parent entry describing `node` must carry
  // (length PayloadBytes(node.level + 1)). The default superimposes (ORs)
  // the node's entry payloads, which is correct when PayloadBytes is the
  // same at both levels — the uniform IR2-Tree and the plain R-Tree.
  // Mir2Tree overrides this with a subtree recomputation at the parent
  // level's signature width.
  virtual Status ComputeNodePayloadForParent(const Node& node,
                                             std::vector<uint8_t>* out);

  Status StoreNode(const Node& node);

 private:
  struct PathStep {
    Node node;
    // Index within node.entries of the child chosen while descending; -1 in
    // the final (target) step.
    int child_index = -1;
  };

  // Descends from the root picking minimum-enlargement children until a
  // node at `target_level` is reached (0 = leaf). Returns the root-to-target
  // path. ChooseLeaf of [Gut84], generalized for subtree re-insertion.
  StatusOr<std::vector<PathStep>> ChoosePath(const Rect& rect,
                                             uint32_t target_level) const;

  // Exact search for the leaf holding (ref, rect): FindLeaf of [Gut84].
  // Returns an empty vector when not found; otherwise the root-to-leaf path
  // with the final step's child_index set to the matching entry.
  StatusOr<std::vector<PathStep>> FindLeafPath(ObjectRef ref,
                                               const Rect& rect) const;

  // Inserts `entry` into the node at `target_level` (entries at that level
  // describe subtrees of height target_level - 1, or objects when 0) and
  // runs AdjustTree. `inserted_words` (the word hashes of the object being
  // inserted) non-null enables the cheap OR-in payload update on non-split
  // ancestors; when null, ancestors are recomputed. Overflow is handled by
  // forced reinsertion (once per level per top-level insertion, when
  // enabled) or by splitting.
  Status InsertEntry(Entry entry, uint32_t target_level,
                     const std::span<const uint64_t>* inserted_words);

  // Removes the forced_reinsert_fraction of `node`'s entries farthest from
  // its center into `removed`.
  void TakeFarthestEntries(Node* node, std::vector<Entry>* removed) const;

  // Splits `node`'s entries (capacity_ + 1 of them) into `node` and a new
  // node via Guttman's quadratic method. Allocates the new node on disk.
  StatusOr<Node> SplitNode(Node* node);

  // Quadratic PickSeeds / PickNext split of `entries` into two groups.
  void QuadraticPartition(std::vector<Entry> entries,
                          std::vector<Entry>* group_a,
                          std::vector<Entry>* group_b) const;

  // R* split: margin-minimal axis, then overlap-minimal distribution.
  void RStarPartition(std::vector<Entry> entries,
                      std::vector<Entry>* group_a,
                      std::vector<Entry>* group_b) const;

  // Recomputes the parent entry (rect + payload) for `child` inside
  // `parent` at entry `index`. `inserted_words` (optional) +
  // `child_membership_changed` decide between OR-in and full
  // recomputation. Sets `*changed` iff the entry actually differs
  // afterwards — callers skip StoreNode for untouched parents, which
  // matters for wide-signature nodes spanning many blocks.
  Status RefreshParentEntry(Node* parent, int index, const Node& child,
                            bool child_membership_changed,
                            const std::span<const uint64_t>* inserted_words,
                            bool* changed);

  // Grows the tree: new root above `left` and `right`.
  Status GrowRoot(const Node& left, const Node& right);

  // Copies the subtree rooted at `src_id` (in this tree) to the
  // already-allocated node `dst_id` of `dst`, allocating children of each
  // node contiguously (CompactInto's recursion).
  Status CopySubtreeInto(BlockId src_id, BlockId dst_id, RTreeBase* dst) const;

  // Allocates blocks for a new node at `level`.
  StatusOr<BlockId> AllocateNode(uint32_t level);

  Status WriteSuperblock();
  Status ValidateSubtree(BlockId node_id, uint32_t expected_level,
                         bool is_root, const Rect* parent_rect,
                         std::span<const uint8_t> parent_payload,
                         uint64_t* object_count) const;

  uint32_t EntryBytes(uint32_t level) const;
  uint32_t NodeBytes(uint32_t level) const;

  BufferPool* pool_;
  RTreeOptions options_;
  NodeCache* node_cache_ = nullptr;
  // Bumped (release) by StoreNode; read (acquire) by LoadNodeShared.
  // Mutations are single-threaded, but searches may run concurrently with
  // nothing — the atomic keeps the version readable from any thread.
  std::atomic<uint64_t> version_{0};
  uint32_t capacity_ = 0;
  uint32_t min_fill_ = 0;
  bool ready_ = false;

  BlockId root_id_ = kInvalidBlockId;
  uint32_t root_level_ = 0;
  uint64_t count_ = 0;

  // Levels that already used forced reinsertion during the current
  // top-level mutation (reset by Insert/Delete); bit i = level i.
  uint64_t reinserted_levels_ = 0;
  // Depth guard: reinsertion recursion beyond this falls back to splits.
  int reinsert_depth_ = 0;
};

}  // namespace ir2

#endif  // IR2TREE_RTREE_RTREE_BASE_H_
