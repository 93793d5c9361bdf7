#include "storage/async_io.h"

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ir2 {

AsyncIoBackend::AsyncIoBackend(BufferPool* pool, AsyncIoOptions options)
    : pool_(pool), options_(options) {
  IR2_CHECK(pool != nullptr);
  if (options_.num_threads == 0) {
    options_.num_threads = 1;
  }
  if (options_.queue_depth == 0) {
    options_.queue_depth = 1;
  }
  workers_.reserve(options_.num_threads);
  for (uint32_t i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AsyncIoBackend::~AsyncIoBackend() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    work_cv_.notify_all();
    submit_cv_.notify_all();
    reap_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void AsyncIoBackend::Submit(const IoRequest& request) {
  std::unique_lock<std::mutex> lock(mu_);
  submit_cv_.wait(lock, [this] {
    return stop_ || in_flight_ < options_.queue_depth;
  });
  if (stop_) {
    return;  // Shutdown races a submit: drop it, nothing is owed a reap.
  }
  submission_queue_.push_back(request);
  ++in_flight_;
  work_cv_.notify_one();
}

size_t AsyncIoBackend::Reap(std::vector<IoCompletion>* out,
                            size_t min_completions) {
  size_t reaped = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    while (!completion_queue_.empty()) {
      out->push_back(std::move(completion_queue_.front()));
      completion_queue_.pop_front();
      ++reaped;
    }
    if (reaped >= min_completions || stop_) {
      return reaped;
    }
    reap_cv_.wait(lock, [this] { return stop_ || !completion_queue_.empty(); });
  }
}

size_t AsyncIoBackend::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

void AsyncIoBackend::WorkerLoop() {
  // Everything read here was submitted speculatively; classify it so (for
  // pool metrics) and keep its physical I/O on this thread's counters.
  obs::SpeculativeThreadFlag() = true;
  BlockDevice* device = pool_->device();
  std::vector<uint8_t> block(pool_->block_size());
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !submission_queue_.empty(); });
    if (submission_queue_.empty()) {
      return;  // stop_ set and queue drained.
    }
    const IoRequest request = submission_queue_.front();
    submission_queue_.pop_front();
    lock.unlock();

    IoCompletion completion;
    completion.user_data = request.user_data;
    completion.blocks = request.count;
    const IoStats before = device->thread_stats();
    {
      obs::TraceSpan span(obs::SpanKind::kPrefetchComplete, request.first);
      for (uint32_t i = 0; i < request.count; ++i) {
        Status s = pool_->Read(request.first + i, block);
        if (!s.ok()) {
          obs::DefaultMetrics().sched_read_errors->Add();
          if (completion.status.ok()) {
            completion.status = s;
          }
        }
      }
    }
    completion.io = device->thread_stats() - before;

    lock.lock();
    completion_queue_.push_back(std::move(completion));
    // The request's ring slot frees on *completion*, not on reap: a
    // submitter may queue arbitrarily many requests ahead of its reap loop
    // without deadlocking against a full ring (the completion queue absorbs
    // the overflow, like a kernel-grown CQ).
    --in_flight_;
    submit_cv_.notify_one();
    reap_cv_.notify_all();
  }
}

}  // namespace ir2
