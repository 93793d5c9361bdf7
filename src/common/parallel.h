#ifndef IR2TREE_COMMON_PARALLEL_H_
#define IR2TREE_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace ir2 {

// Runs fn(0), ..., fn(n - 1) on min(n, budget) workers: the calling thread
// plus min(n, budget) - 1 std::jthread helpers, each taking the next task
// index from one atomic counter. Task 0 always runs on the calling thread
// (it is claimed before any helper starts); the others go to whichever
// worker is free, in index order. Every helper is joined before RunTasks
// returns, so whatever the tasks wrote may be read right after it. With
// one worker no thread is started and the tasks run inline, in order.
//
// Tasks must not throw, and each should write only its own result slot.
template <typename Fn>
void RunTasks(size_t n, size_t budget, Fn&& fn) {
  if (n == 0) return;
  std::atomic<size_t> next{1};
  auto drain = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  const size_t workers = std::min(n, std::max<size_t>(budget, 1));
  std::vector<std::jthread> helpers;
  helpers.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) helpers.emplace_back(drain);
  fn(0);
  drain();
}

// The worker budget of a build that has the machine to itself: one worker
// per hardware thread, at least one.
inline size_t HardwareWorkers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace ir2

#endif  // IR2TREE_COMMON_PARALLEL_H_
