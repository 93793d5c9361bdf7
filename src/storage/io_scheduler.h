#ifndef IR2TREE_STORAGE_IO_SCHEDULER_H_
#define IR2TREE_STORAGE_IO_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "common/status.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"

namespace ir2 {

struct IoSchedulerOptions {
  // When true, Prefetch()/PrefetchBatch() block until the prefetcher has
  // completed every pending block. The reads still happen on the scheduler
  // thread (so their physical I/O stays attributed to speculation, never to
  // the demand thread) but the interleaving becomes deterministic — the
  // mode the latency benches and invariance tests run in.
  bool synchronous = false;
};

// Scheduler counters (cumulative since construction / last reset).
struct IoSchedulerStats {
  uint64_t requested = 0;  // Blocks passed to Prefetch*.
  uint64_t deduped = 0;    // Dropped: already pending, in flight, or cached.
  uint64_t runs = 0;       // Sequential runs issued to the device.
  uint64_t blocks_fetched = 0;  // Blocks actually read by the prefetcher.
};

// Asynchronous prefetch scheduler over a BufferPool.
//
// Prefetch*() enqueues speculative block reads; a background thread sorts
// the pending set, coalesces adjacent BlockIds into sequential runs (at
// most kMaxRunBlocks long), and reads each run ascending through the pool,
// so a prefetched frontier of tree siblings laid out contiguously on disk
// (see RTreeBase bulk load / CompactInto) costs one random access plus
// sequential transfers instead of one seek per node. Completed blocks sit
// in the pool; the demand read that eventually wants them becomes a pool
// hit and never reaches the device.
//
// Correctness invariants:
//   * Result-invariant: prefetching only moves bytes into the pool earlier;
//     it never changes what any read returns.
//   * Demand accounting is untouched: speculative reads run on the
//     scheduler's own thread, so they land in that thread's device counters
//     (surfaced as speculative_stats() and QueryStats.speculative_io) and
//     can never pollute a query thread's thread_stats() — per-thread
//     sequential cursors make the classification independent too.
//   * Exactly-once physical reads: a demand read racing a prefetch of the
//     same block is serialized by the pool's per-shard lock; whichever
//     loses finds the page resident and stops there. The pending /
//     in-flight sets additionally dedup repeated prefetch requests before
//     they cost anything.
//
// ReadRun() is the *demand*-side sibling: it reads an ascending block run
// through the pool on the calling thread (1 random + (n-1) sequential when
// cold), the streaming path the inverted index uses for posting lists.
//
// The destructor drains the pending queue (so shutdown cannot abandon
// in-flight speculation mid-run) and joins the thread.
class IoScheduler {
 public:
  explicit IoScheduler(BufferPool* pool, IoSchedulerOptions options = {});
  ~IoScheduler();

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  // Requests speculative reads of [first, first + count). Clipped to the
  // device size; duplicates of pending/in-flight/cached blocks are dropped.
  void PrefetchRange(BlockId first, uint32_t count);
  void Prefetch(BlockId id) { PrefetchRange(id, 1); }

  // Batch form: one lock acquisition and one scheduling pass for the whole
  // set, so candidates enqueued together coalesce into runs together.
  void PrefetchBatch(std::span<const BlockId> ids);

  // Demand read of the ascending run [first, first + count) into `out`
  // (count * block_size bytes), through the pool, on the calling thread.
  Status ReadRun(BlockId first, uint32_t count, std::span<uint8_t> out);
  Status ReadRun(BlockId first, uint32_t count, std::vector<uint8_t>* out);

  // Blocks until no prefetch is pending or in flight.
  void Drain();

  // Physical device I/O performed by the prefetch thread (diffed around
  // each scheduling pass, so it is exact once Drain() has returned).
  IoStats speculative_stats() const;
  IoSchedulerStats stats() const;
  void ResetStats();

  // First error any speculative read hit (speculation never fails a query;
  // errors are recorded here for tests/diagnostics).
  Status last_error() const;

  // Attaches a submission/completion backend (must wrap the same pool and
  // outlive this scheduler): each scheduling pass submits its coalesced
  // runs as async requests and reaps their completions, overlapping run
  // reads across the backend's workers — the real-file fan-out path. Null
  // (the default) keeps the single-worker inline reads, whose interleaving
  // the deterministic tests and goldens pin. Call before any Prefetch
  // traffic; dedup, accounting, and Drain semantics are identical either
  // way.
  void SetAsyncBackend(AsyncIoBackend* backend) { backend_ = backend; }
  AsyncIoBackend* async_backend() const { return backend_; }

  BufferPool* pool() const { return pool_; }

 private:
  void WorkerLoop();
  // Caller holds mu_. Starts the worker on first use.
  void EnsureWorkerLocked();
  // Caller holds mu_ with work pending; wakes the worker and, in
  // synchronous mode, waits for it to finish everything.
  void KickLocked(std::unique_lock<std::mutex>& lock);

  BufferPool* pool_;
  IoSchedulerOptions options_;
  AsyncIoBackend* backend_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // Worker waits for pending/stop.
  std::condition_variable idle_cv_;   // Drain() waits for quiescence.
  std::set<BlockId> pending_;         // Sorted: coalescing falls out.
  std::set<BlockId> in_flight_;       // Batch currently being read.
  bool stop_ = false;
  bool worker_started_ = false;
  std::thread worker_;
  IoStats speculative_;
  IoSchedulerStats counters_;
  Status last_error_ = Status::Ok();
};

}  // namespace ir2

#endif  // IR2TREE_STORAGE_IO_SCHEDULER_H_
