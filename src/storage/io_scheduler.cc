#include "storage/io_scheduler.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ir2 {

namespace {

// Longest sequential run one scheduling pass will issue. Caps how long a
// speculative sweep can hold the (simulated) head before demand traffic
// gets a turn.
constexpr size_t kMaxRunBlocks = 64;

// Prefetch requests beyond this many distinct pending blocks are dropped
// (speculation must never become a correctness or memory liability).
constexpr size_t kMaxPending = 1 << 16;

}  // namespace

IoScheduler::IoScheduler(BufferPool* pool, IoSchedulerOptions options)
    : pool_(pool), options_(options) {
  IR2_CHECK(pool != nullptr);
}

IoScheduler::~IoScheduler() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
    work_cv_.notify_all();
  }
  if (worker_.joinable()) {
    worker_.join();
  }
}

void IoScheduler::EnsureWorkerLocked() {
  if (!worker_started_) {
    worker_started_ = true;
    worker_ = std::thread([this] { WorkerLoop(); });
  }
}

void IoScheduler::KickLocked(std::unique_lock<std::mutex>& lock) {
  EnsureWorkerLocked();
  work_cv_.notify_one();
  if (options_.synchronous) {
    idle_cv_.wait(lock,
                  [this] { return pending_.empty() && in_flight_.empty(); });
  }
}

void IoScheduler::PrefetchRange(BlockId first, uint32_t count) {
  if (count == 0) {
    return;
  }
  const uint64_t num_blocks = pool_->NumBlocks();
  if (first >= num_blocks) {
    return;
  }
  const BlockId end = std::min<uint64_t>(first + count, num_blocks);
  std::unique_lock<std::mutex> lock(mu_);
  bool added = false;
  for (BlockId id = first; id < end; ++id) {
    ++counters_.requested;
    if (pending_.size() >= kMaxPending ||
        pending_.count(id) != 0 || in_flight_.count(id) != 0 ||
        pool_->Contains(id)) {
      ++counters_.deduped;
      continue;
    }
    pending_.insert(id);
    added = true;
  }
  if (added) {
    KickLocked(lock);
  }
}

void IoScheduler::PrefetchBatch(std::span<const BlockId> ids) {
  if (ids.empty()) {
    return;
  }
  const uint64_t num_blocks = pool_->NumBlocks();
  std::unique_lock<std::mutex> lock(mu_);
  bool added = false;
  for (BlockId id : ids) {
    ++counters_.requested;
    if (id >= num_blocks || pending_.size() >= kMaxPending ||
        pending_.count(id) != 0 || in_flight_.count(id) != 0 ||
        pool_->Contains(id)) {
      ++counters_.deduped;
      continue;
    }
    pending_.insert(id);
    added = true;
  }
  if (added) {
    KickLocked(lock);
  }
}

Status IoScheduler::ReadRun(BlockId first, uint32_t count,
                            std::span<uint8_t> out) {
  const size_t block_size = pool_->block_size();
  if (out.size() != static_cast<size_t>(count) * block_size) {
    return Status::InvalidArgument("ReadRun buffer size mismatch");
  }
  for (uint32_t i = 0; i < count; ++i) {
    IR2_RETURN_IF_ERROR(pool_->Read(
        first + i, out.subspan(static_cast<size_t>(i) * block_size,
                               block_size)));
  }
  return Status::Ok();
}

Status IoScheduler::ReadRun(BlockId first, uint32_t count,
                            std::vector<uint8_t>* out) {
  out->resize(static_cast<size_t>(count) * pool_->block_size());
  return ReadRun(first, count, std::span<uint8_t>(*out));
}

void IoScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock,
                [this] { return pending_.empty() && in_flight_.empty(); });
}

IoStats IoScheduler::speculative_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return speculative_;
}

IoSchedulerStats IoScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void IoScheduler::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  speculative_ = IoStats{};
  counters_ = IoSchedulerStats{};
}

Status IoScheduler::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

void IoScheduler::WorkerLoop() {
  obs::SpeculativeThreadFlag() = true;
  BlockDevice* device = pool_->device();
  std::vector<uint8_t> block(pool_->block_size());
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) {
      // stop_ set and queue drained: shutdown complete.
      return;
    }
    // Claim the whole pending set. Keeping it visible as in_flight_ lets
    // Prefetch* dedup against blocks this pass is about to read.
    in_flight_.swap(pending_);
    // Copy out the sorted ids so the reads can run unlocked.
    std::vector<BlockId> ids(in_flight_.begin(), in_flight_.end());
    lock.unlock();

    IoStats pass_io;
    uint64_t runs = 0;
    Status error = Status::Ok();
    if (backend_ != nullptr) {
      // Submission/completion path: hand each coalesced run to the async
      // backend and reap. The backend's workers read through the same pool
      // (exactly-once against racing demand traffic) and each completion
      // carries the physical I/O its run performed on its worker thread.
      size_t i = 0;
      while (i < ids.size()) {
        size_t j = i + 1;
        while (j < ids.size() && ids[j] == ids[j - 1] + 1 &&
               j - i < kMaxRunBlocks) {
          ++j;
        }
        backend_->Submit(IoRequest{ids[i], static_cast<uint32_t>(j - i),
                                   /*user_data=*/runs});
        ++runs;
        i = j;
      }
      std::vector<IoCompletion> completions;
      completions.reserve(runs);
      while (completions.size() < runs) {
        backend_->Reap(&completions,
                       /*min_completions=*/runs - completions.size());
      }
      for (const IoCompletion& completion : completions) {
        pass_io += completion.io;
        if (!completion.status.ok()) {
          if (error.ok()) {
            error = completion.status;
          }
        }
      }
    } else {
      const IoStats before = device->thread_stats();
      size_t i = 0;
      while (i < ids.size()) {
        // Greedy coalescing: the longest adjacent ascending run from
        // ids[i], capped at kMaxRunBlocks.
        size_t j = i + 1;
        while (j < ids.size() && ids[j] == ids[j - 1] + 1 &&
               j - i < kMaxRunBlocks) {
          ++j;
        }
        ++runs;
        {
          obs::TraceSpan span(obs::SpanKind::kPrefetchComplete, ids[i]);
          for (size_t at = i; at < j; ++at) {
            Status s = pool_->Read(ids[at], block);
            if (!s.ok()) {
              obs::DefaultMetrics().sched_read_errors->Add();
              if (error.ok()) {
                error = s;
              }
            }
          }
        }
        i = j;
      }
      pass_io = device->thread_stats() - before;
    }
    obs::DefaultMetrics().sched_runs->Add(runs);
    obs::DefaultMetrics().sched_blocks_fetched->Add(ids.size());
    if (!error.ok()) {
      // Speculation failing is not a query error (demand reads will retry
      // and surface their own Status), but it should never be silent.
      IR2_LOG(ERROR) << "IoScheduler worker: prefetch read failed: "
                     << error.ToString();
    }

    lock.lock();
    speculative_ += pass_io;
    counters_.runs += runs;
    counters_.blocks_fetched += ids.size();
    if (!error.ok() && last_error_.ok()) {
      last_error_ = error;
    }
    in_flight_.clear();
    idle_cv_.notify_all();
  }
}

}  // namespace ir2
