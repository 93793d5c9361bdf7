#ifndef IR2TREE_RTREE_INCREMENTAL_NN_H_
#define IR2TREE_RTREE_INCREMENTAL_NN_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/status_or.h"
#include "geo/point.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtree/rtree_base.h"
#include "storage/io_scheduler.h"

namespace ir2 {

// One result of the incremental NN traversal.
struct Neighbor {
  ObjectRef ref = kInvalidObjectRef;
  double distance = 0.0;
  Rect rect;  // The object's MBR as stored in its leaf entry.
};

// One element of the traversal's priority queue. Inline storage only (Rect
// holds fixed arrays), so heap growth is the sole allocation the queue ever
// performs — and NNScratch amortizes that across queries.
struct NNQueueItem {
  double distance;
  bool is_object;
  uint64_t seq;  // Tie-break for deterministic order.
  uint64_t id;   // BlockId (node) or ObjectRef (object).
  Rect rect;
};

struct NNQueueOrder {
  // Max-heap comparator (std::push_heap semantics); returns true when a is
  // *worse* than b, so the best item surfaces first.
  bool operator()(const NNQueueItem& a, const NNQueueItem& b) const {
    if (a.distance != b.distance) return a.distance > b.distance;
    // Objects surface before nodes at equal distance: they cannot be
    // beaten by anything inside those nodes.
    if (a.is_object != b.is_object) return b.is_object;
    return a.seq > b.seq;
  }
};

// Reusable per-worker traversal scratch: the priority queue's backing
// vector. A cursor constructed with a scratch borrows the vector (clearing
// its contents, keeping its capacity), so a worker running many queries
// stops paying heap-growth reallocations after the first. A scratch must
// back at most one live cursor at a time.
class NNScratch {
 public:
  std::vector<NNQueueItem>& AcquireHeap() {
    heap_.clear();
    return heap_;
  }

 private:
  std::vector<NNQueueItem> heap_;
};

// Filter that accepts everything: the plain NN traversal. A filter is any
// callable bool(const Node& node, const Entry& entry) returning false to
// prune the entry from the search (the paper's "if S matches W" test).
struct AcceptAllEntries {
  bool operator()(const Node&, const Entry&) const { return true; }
};

// The Incremental Nearest Neighbor algorithm of Hjaltason and Samet [HS99]
// (Figure 3 of the paper), extended with the entry filter that turns it
// into IR2NearestNeighbor (Figure 8): entries whose signature does not match
// the query signature are dropped from the search queue.
//
// The cursor owns a binary heap of nodes and objects ordered by MINDIST to
// the query target; each Next() call pops until an object surfaces, which is
// then the next-nearest (filtered) object. Node loads go through
// RTreeBase::LoadNodeShared — the cursor's read pool (visible in the
// device's IoStats) or, warm, the tree's decoded-node cache.
//
// `Filter` is invoked through static dispatch: a concrete filter type (e.g.
// ir2_search's SignatureEntryFilter, or a lambda — class template argument
// deduction picks its type) costs a direct, usually inlined, call per
// entry.
template <typename Filter = AcceptAllEntries>
class IncrementalNNCursor {
 public:
  // `tree` must outlive the cursor and not be modified while it is in use.
  // `scratch` (optional) donates heap storage; it must outlive the cursor.
  //
  // `node_scheduler` (optional) speculates on the traversal's frontier:
  // after each inner-node expansion, the block runs of every accepted
  // (filter-passing) child are batch prefetched. Under DFS
  // (children-contiguous) block placement the whole sibling set coalesces
  // into one sequential run, so the speculation costs one seek where
  // best-first demand reads would pay one seek *per child* as the heap
  // interleaves subtrees. Prefetching is result-invariant: it only moves
  // bytes into the pools early, and demand (pool-level) accounting is
  // untouched; only the physical split between QueryStats.io and
  // .speculative_io changes. Null is byte-for-byte the non-prefetching
  // traversal.
  //
  // `read_pool` (optional) is the pool node reads go through: a pool over
  // the tree's device, such as a BatchExecutor worker's private one. Null
  // reads through tree->pool().
  IncrementalNNCursor(const RTreeBase* tree, const Point& query,
                       Filter filter = Filter{}, NNScratch* scratch = nullptr,
                       IoScheduler* node_scheduler = nullptr,
                       BufferPool* read_pool = nullptr)
      : IncrementalNNCursor(tree, Rect::ForPoint(query), std::move(filter),
                             scratch, node_scheduler, read_pool) {}

  // Area-target variant ("a point p, which is the query point (an area
  // could be used instead)"): distances are MINDIST to `query_area`.
  IncrementalNNCursor(const RTreeBase* tree, const Rect& query_area,
                       Filter filter = Filter{}, NNScratch* scratch = nullptr,
                       IoScheduler* node_scheduler = nullptr,
                       BufferPool* read_pool = nullptr)
      : tree_(tree),
        target_(query_area),
        filter_(std::move(filter)),
        heap_(scratch != nullptr ? &scratch->AcquireHeap() : &own_heap_),
        node_scheduler_(node_scheduler),
        read_pool_(read_pool) {
    IR2_CHECK(tree != nullptr);
    IR2_CHECK_EQ(target_.dims(), tree->dims());
    if (read_pool != nullptr) {
      IR2_CHECK_EQ(read_pool->block_size(), tree->pool()->block_size());
    }
    // "Priority queue U initially contains root node of R with distance 0."
    Push(NNQueueItem{0.0, /*is_object=*/false, seq_++, tree->root_id(),
                     Rect()});
  }

  IncrementalNNCursor(const IncrementalNNCursor&) = delete;
  IncrementalNNCursor& operator=(const IncrementalNNCursor&) = delete;

  // The next nearest object passing the filter, or nullopt when the tree is
  // exhausted.
  StatusOr<std::optional<Neighbor>> Next() {
    while (!heap_->empty()) {
      const NNQueueItem item = PopTop();
      obs::TraceInstant(obs::SpanKind::kHeapPop, item.id);
      obs::DefaultMetrics().nn_heap_pops->Add();
      if (item.is_object) {
        // "Return E as next nearest object pointer to p."
        return std::optional<Neighbor>(Neighbor{
            static_cast<ObjectRef>(item.id), item.distance, item.rect});
      }
      obs::TraceSpan expand_span(obs::SpanKind::kNodeExpand, item.id);
      IR2_ASSIGN_OR_RETURN(std::shared_ptr<const Node> node,
                           tree_->LoadNodeShared(item.id, read_pool_));
      ++nodes_visited_;
      obs::DefaultMetrics().nn_nodes_expanded->Add();
      const bool is_leaf = node->is_leaf();
      const bool prefetch_children = !is_leaf && node_scheduler_ != nullptr;
      if (prefetch_children) {
        prefetch_ids_.clear();
      }
      const uint32_t child_blocks =
          prefetch_children ? tree_->BlocksPerNode(node->level - 1) : 0;
      for (const Entry& entry : node->entries) {
        if (!filter_(*node, entry)) {
          ++entries_pruned_;
          continue;
        }
        const double distance = target_.MinDist(entry.rect);
        Push(NNQueueItem{distance, is_leaf, seq_++, entry.ref, entry.rect});
        if (prefetch_children) {
          // Children are visited in entry order here, which is exactly
          // their allocation order under DFS placement — the batch below
          // coalesces into one sequential sibling run.
          for (uint32_t b = 0; b < child_blocks; ++b) {
            prefetch_ids_.push_back(entry.ref + b);
          }
        }
      }
      if (prefetch_children && !prefetch_ids_.empty()) {
        node_scheduler_->PrefetchBatch(prefetch_ids_);
      }
    }
    return std::optional<Neighbor>();
  }

  uint64_t nodes_visited() const { return nodes_visited_; }
  uint64_t entries_pruned() const { return entries_pruned_; }

 private:
  void Push(NNQueueItem item) {
    heap_->push_back(std::move(item));
    std::push_heap(heap_->begin(), heap_->end(), NNQueueOrder{});
  }

  NNQueueItem PopTop() {
    std::pop_heap(heap_->begin(), heap_->end(), NNQueueOrder{});
    NNQueueItem item = std::move(heap_->back());
    heap_->pop_back();
    return item;
  }

  const RTreeBase* tree_;
  Rect target_;  // Degenerate for point queries.
  Filter filter_;
  std::vector<NNQueueItem> own_heap_;
  std::vector<NNQueueItem>* heap_;  // Scratch-donated, or &own_heap_.
  IoScheduler* node_scheduler_;
  BufferPool* read_pool_;  // Null = tree_->pool().
  // Scratch for the frontier prefetch; only ever grows when prefetching is
  // enabled, so the prefetch-off traversal stays allocation-free.
  std::vector<BlockId> prefetch_ids_;
  uint64_t seq_ = 0;
  uint64_t nodes_visited_ = 0;
  uint64_t entries_pruned_ = 0;
};

extern template class IncrementalNNCursor<AcceptAllEntries>;

}  // namespace ir2

#endif  // IR2TREE_RTREE_INCREMENTAL_NN_H_
