#ifndef IR2TREE_STORAGE_ASYNC_IO_H_
#define IR2TREE_STORAGE_ASYNC_IO_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"

namespace ir2 {

struct AsyncIoOptions {
  // Worker threads servicing the submission queue. Each one reads whole
  // runs, so two workers already overlap a sequential transfer with the
  // next seek — the useful parallelism of one spindle / a few NVMe queues.
  uint32_t num_threads = 2;

  // Maximum outstanding (submitted, not yet completed) requests; Submit
  // blocks while the ring is full. Bounds submission
  // backlog the way an io_uring's sqe ring would; completions wait in the
  // CQ until reaped, so a submitter may queue a whole pass ahead of its
  // reap loop without deadlocking.
  size_t queue_depth = 128;
};

// One submission: read the ascending block run [first, first + count)
// through the pool. `user_data` is an opaque cookie echoed verbatim in the
// matching completion, never interpreted.
struct IoRequest {
  BlockId first = 0;
  uint32_t count = 1;
  uint64_t user_data = 0;
};

// One completion. `io` is the *physical* device I/O this request performed
// (diffed around the run on the worker thread) — blocks already resident in
// the pool cost nothing and the run's profile shows exactly the 1-random +
// (n-1)-sequential shape the coalescing earned.
struct IoCompletion {
  uint64_t user_data = 0;
  Status status;
  IoStats io;
  uint32_t blocks = 0;  // Blocks processed (equals the request's count).
};

// Submission/completion asynchronous read engine over a BufferPool —
// io_uring-shaped (bounded SQ/CQ rings, opaque user_data, reap-style
// harvesting) but thread-pool backed: the workers issue ordinary
// pool->Read calls, so every byte lands in the shared pool under its
// per-shard lock (exactly-once physical reads even against racing demand
// traffic) and every read is classified by the device's per-thread
// sequential cursors exactly like any other I/O. DESIGN.md decision 9
// records why this interface is the io_uring *shape* without the syscall
// dependency.
//
// Worker threads run with obs::SpeculativeThreadFlag() set: traffic issued
// here is speculative by construction (IoScheduler is the producer), and
// pool-level metrics classify it as such. Physical I/O lands in the worker
// threads' device counters, never a query thread's — the accounting
// invariant the cold-regime golden tests pin.
//
// The destructor drains the submission queue (abandoning nothing mid-run)
// and joins the workers; unreaped completions are discarded.
class AsyncIoBackend {
 public:
  explicit AsyncIoBackend(BufferPool* pool, AsyncIoOptions options = {});
  ~AsyncIoBackend();

  AsyncIoBackend(const AsyncIoBackend&) = delete;
  AsyncIoBackend& operator=(const AsyncIoBackend&) = delete;

  // Enqueues `request`; blocks while the ring is full.
  void Submit(const IoRequest& request);

  // Harvests completions into `out` (appended). Blocks until at least
  // `min_completions` have been appended (0 = never block). Returns the
  // number appended.
  size_t Reap(std::vector<IoCompletion>* out, size_t min_completions = 0);

  // Submitted requests not yet completed (their completions may still be
  // waiting in the CQ for a Reap).
  size_t InFlight() const;

  BufferPool* pool() const { return pool_; }
  const AsyncIoOptions& options() const { return options_; }

 private:
  void WorkerLoop();

  BufferPool* pool_;
  AsyncIoOptions options_;

  mutable std::mutex mu_;
  std::condition_variable submit_cv_;  // Submit waits for ring space.
  std::condition_variable work_cv_;    // Workers wait for submissions.
  std::condition_variable reap_cv_;    // Reap waits for completions.
  std::deque<IoRequest> submission_queue_;
  std::deque<IoCompletion> completion_queue_;
  size_t in_flight_ = 0;  // Submitted, not yet completed.
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ir2

#endif  // IR2TREE_STORAGE_ASYNC_IO_H_
