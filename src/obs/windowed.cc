#include "obs/windowed.h"

#include <algorithm>
#include <cmath>

namespace ir2 {
namespace obs {

WindowedHistogram::WindowedHistogram()
    : epoch_(std::chrono::steady_clock::now()), slots_(kSlots) {
  for (Slot& slot : slots_) {
    slot.buckets.assign(Histogram::kNumBuckets, 0);
  }
}

double WindowedHistogram::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void WindowedHistogram::RecordAt(double now_seconds, double value) {
  if (now_seconds < 0.0) now_seconds = 0.0;
  const int64_t epoch =
      static_cast<int64_t>(std::floor(now_seconds / kSlotSeconds));
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[static_cast<size_t>(epoch % kSlots)];
  if (slot.epoch != epoch) {
    // The ring wrapped past this slot's old interval: it aged out of the
    // window the moment `epoch` started, so recycle it in place.
    slot.epoch = epoch;
    slot.count = 0;
    slot.sum = 0.0;
    std::fill(slot.buckets.begin(), slot.buckets.end(), 0);
  }
  ++slot.count;
  slot.sum += value;
  ++slot.buckets[static_cast<size_t>(Histogram::BucketFor(value))];
}

WindowedHistogram::Snapshot WindowedHistogram::SnapAt(
    double now_seconds) const {
  if (now_seconds < 0.0) now_seconds = 0.0;
  const int64_t current =
      static_cast<int64_t>(std::floor(now_seconds / kSlotSeconds));
  Snapshot snap;
  snap.window_seconds = kSlots * kSlotSeconds;
  std::vector<uint64_t> merged(Histogram::kNumBuckets, 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Slot& slot : slots_) {
      // Live = written during one of the window's kSlots most recent
      // intervals, the current (partial) one included.
      if (slot.epoch < 0 || slot.epoch + kSlots <= current) continue;
      snap.count += slot.count;
      snap.sum += slot.sum;
      for (int i = 0; i < Histogram::kNumBuckets; ++i) {
        merged[static_cast<size_t>(i)] += slot.buckets[static_cast<size_t>(i)];
      }
    }
  }
  snap.p50 = Histogram::PercentileFromBuckets(merged, 0.50);
  snap.p95 = Histogram::PercentileFromBuckets(merged, 0.95);
  snap.p99 = Histogram::PercentileFromBuckets(merged, 0.99);
  return snap;
}

SloTracker::SloTracker(SloOptions options, int minutes) : options_(options) {
  if (minutes < 5) minutes = 5;
  if (!(options_.objective > 0.0) || options_.objective >= 1.0) {
    options_.objective = 0.999;
  }
  epoch_ = std::chrono::steady_clock::now();
  minutes_.resize(static_cast<size_t>(minutes));
}

double SloTracker::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void SloTracker::RecordAt(double now_seconds, bool ok, double latency_ms) {
  if (now_seconds < 0.0) now_seconds = 0.0;
  const int64_t epoch = static_cast<int64_t>(std::floor(now_seconds / 60.0));
  const bool bad = !ok || latency_ms > options_.latency_threshold_ms;
  std::lock_guard<std::mutex> lock(mu_);
  Minute& minute =
      minutes_[static_cast<size_t>(epoch % static_cast<int64_t>(minutes_.size()))];
  if (minute.epoch != epoch) {
    minute.epoch = epoch;
    minute.total = 0;
    minute.bad = 0;
  }
  ++minute.total;
  if (bad) ++minute.bad;
}

SloTracker::Report SloTracker::ReportAt(double now_seconds) const {
  if (now_seconds < 0.0) now_seconds = 0.0;
  const int64_t current = static_cast<int64_t>(std::floor(now_seconds / 60.0));
  const int64_t window = static_cast<int64_t>(minutes_.size());
  Report report;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Minute& minute : minutes_) {
      if (minute.epoch < 0 || minute.epoch + window <= current) continue;
      report.total_1h += minute.total;
      report.bad_1h += minute.bad;
      if (minute.epoch + 5 > current) {
        report.total_5m += minute.total;
        report.bad_5m += minute.bad;
      }
    }
  }
  const double budget = 1.0 - options_.objective;
  if (report.total_5m > 0) {
    report.bad_fraction_5m = static_cast<double>(report.bad_5m) /
                             static_cast<double>(report.total_5m);
    report.burn_5m = report.bad_fraction_5m / budget;
  }
  if (report.total_1h > 0) {
    report.bad_fraction_1h = static_cast<double>(report.bad_1h) /
                             static_cast<double>(report.total_1h);
    report.burn_1h = report.bad_fraction_1h / budget;
  }
  report.budget_remaining_1h =
      std::clamp(1.0 - report.burn_1h, 0.0, 1.0);
  return report;
}

}  // namespace obs
}  // namespace ir2
