#ifndef IR2TREE_OBS_WINDOWED_H_
#define IR2TREE_OBS_WINDOWED_H_

// Time-windowed telemetry for the serving tier (docs/observability.md):
//
//   WindowedHistogram — a ring of per-interval Histogram bucket snapshots.
//   Record() lands in the current interval's slot; Snapshot() merges the
//   live slots' bucket arrays and computes sliding-window quantiles, so
//   /statusz can report p50/p95/p99 over the last 60 seconds instead of
//   the process lifetime the global registry histograms accumulate.
//
//   SloTracker — multi-window error-budget accounting against a configured
//   latency/availability SLO: a ring of per-minute {total, bad} buckets,
//   reported as 5-minute and 1-hour burn rates (bad fraction over the
//   window divided by the error budget 1 - objective). Burn rate 1.0 means
//   the budget is being spent exactly as fast as the objective allows;
//   a sustained 5m burn well above 1 is the classic page condition.
//
// Both classes take time as an explicit seconds-since-construction value
// in the *At spellings so tests can drive rotation deterministically; the
// plain spellings read the steady clock. Writers and readers are mutex-
// serialized — these sit on the per-request serving path (thousands of
// events per second), not the per-block hot path the sharded registry
// metrics are built for.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/metrics.h"

namespace ir2 {
namespace obs {

class WindowedHistogram {
 public:
  // Window = kSlots × kSlotSeconds: the last 60 seconds in 10-second
  // intervals.
  static constexpr int kSlots = 6;
  static constexpr double kSlotSeconds = 10.0;

  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double window_seconds = 0.0;  // Span the quantiles cover.
    double Mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };

  WindowedHistogram();
  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  void Record(double value) { RecordAt(NowSeconds(), value); }
  void RecordAt(double now_seconds, double value);

  // Quantiles merged over every slot still inside the window at `now`.
  Snapshot Snap() const { return SnapAt(NowSeconds()); }
  Snapshot SnapAt(double now_seconds) const;

 private:
  struct Slot {
    int64_t epoch = -1;  // floor(t / kSlotSeconds) this slot holds; -1 idle.
    uint64_t count = 0;
    double sum = 0.0;
    std::vector<uint64_t> buckets;  // Histogram::kNumBuckets wide.
  };

  double NowSeconds() const;

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
};

struct SloOptions {
  // A request slower than this is "bad" even when it succeeded — the
  // latency half of the SLO.
  double latency_threshold_ms = 50.0;
  // Target fraction of good requests (availability + latency combined).
  // The error budget is 1 - objective.
  double objective = 0.999;
};

class SloTracker {
 public:
  struct Report {
    uint64_t total_5m = 0;
    uint64_t bad_5m = 0;
    uint64_t total_1h = 0;
    uint64_t bad_1h = 0;
    double bad_fraction_5m = 0.0;
    double bad_fraction_1h = 0.0;
    // bad_fraction / (1 - objective); 1.0 = spending the budget exactly at
    // the sustainable rate, >1 = burning it faster than the SLO allows.
    double burn_5m = 0.0;
    double burn_1h = 0.0;
    // 1 - burn_1h, clamped to [0, 1]: the share of the hour's budget left
    // at the current 1h bad fraction.
    double budget_remaining_1h = 1.0;
  };

  explicit SloTracker(SloOptions options = {}, int minutes = 60);
  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  // `ok` is the request's availability verdict (false = error); a slow
  // success is bad too.
  void Record(bool ok, double latency_ms) {
    RecordAt(NowSeconds(), ok, latency_ms);
  }
  void RecordAt(double now_seconds, bool ok, double latency_ms);

  Report GetReport() const { return ReportAt(NowSeconds()); }
  Report ReportAt(double now_seconds) const;

  const SloOptions& options() const { return options_; }

 private:
  struct Minute {
    int64_t epoch = -1;
    uint64_t total = 0;
    uint64_t bad = 0;
  };

  double NowSeconds() const;

  SloOptions options_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Minute> minutes_;
};

}  // namespace obs
}  // namespace ir2

#endif  // IR2TREE_OBS_WINDOWED_H_
