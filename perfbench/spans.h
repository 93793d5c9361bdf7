#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory span log for the traced run. Spans are recorded by the
// benchmark around the calls it makes into the library (never inside the
// library), kept in per-thread buffers while the run is hot, and written
// out once at the end: as a Chrome trace-event JSON file that Perfetto
// loads, and as a per-name summary with self time (a span's duration minus
// the part of it covered by its child spans).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // Static string: the layer-qualified call name.
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root span.
  uint64_t request = 0;
  uint32_t track = 0;  // Chrome-trace thread row.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Span ids are derived, not allocated: (phase, request index, slot) packs
// into one 64-bit value, so recording needs no shared counter.
inline uint64_t SpanId(uint64_t phase, uint64_t request, uint64_t slot) {
  return (phase << 56) | (request << 4) | slot;
}

class SpanLog {
 public:
  // Disabled logs drop every Record() call (the untraced run).
  explicit SpanLog(bool enabled)
      : enabled_(enabled), generation_(NextGeneration()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  void Record(const Span& span) {
    if (!enabled_) return;
    Buffer* buffer = LocalBuffer();
    buffer->spans.push_back(span);
  }

  // All spans of every thread. Call once recording threads are quiescent.
  std::vector<Span> Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
    std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
      return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
    });
    return all;
  }

 private:
  // Buffers are owned here, not by the recording threads, so spans
  // recorded on ServerLoop workers outlive those threads.
  struct Buffer {
    std::vector<Span> spans;
  };

  // A thread's cached buffer is tagged with the generation of the log that
  // owns it, so a later log never writes into a destroyed one's buffer.
  static uint64_t NextGeneration() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  Buffer* LocalBuffer() {
    thread_local Buffer* local = nullptr;
    thread_local uint64_t local_generation = 0;
    if (local_generation != generation_) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      local = buffers_.back().get();
      local->spans.reserve(1 << 16);
      local_generation = generation_;
    }
    return local;
  }

  bool enabled_;
  uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

struct SpanSummary {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

// Per-name count, total and self time. Self time subtracts the union of
// the child intervals clipped to the parent, so overlapping children are
// not subtracted twice.
inline std::map<std::string, SpanSummary> Summarize(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    auto it = index.find(span.parent);
    if (it == index.end()) continue;
    const Span& parent = spans[it->second];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }
  std::map<std::string, SpanSummary> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (const auto& [lo, hi] : kids) {
      const int64_t from = std::max(lo, cursor);
      if (hi > from) {
        covered += hi - from;
        cursor = hi;
      }
    }
    const int64_t duration = span.end_ns - span.start_ns;
    SpanSummary& row = out[span.name];
    ++row.count;
    row.total_ms += static_cast<double>(duration) / 1e6;
    row.self_ms += static_cast<double>(duration - covered) / 1e6;
  }
  return out;
}

// Writes `spans` as Chrome trace-event JSON: complete ("X") events in
// microseconds, with the span id, parent id and request id as event args.
// Returns false if the file cannot be written.
inline bool WriteChromeTrace(const std::vector<Span>& spans,
                             const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  const size_t n = spans.size();
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%llu,\"parent\":%llu,\"request\":%llu}}"
                 "%s\n",
                 s.name, s.track,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < n ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
