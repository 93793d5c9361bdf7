#ifndef IR2TREE_STORAGE_DISK_MODEL_H_
#define IR2TREE_STORAGE_DISK_MODEL_H_

#include <cstddef>

#include "storage/block_device.h"

namespace ir2 {

// Parameters of the disk-time cost model. The defaults describe the class
// of drive the paper ran on — a 74 GB 10,000-RPM SCSI disk: ~4.7 ms average
// seek, 3 ms average rotational latency (half a revolution at 10k RPM), and
// a sustained transfer rate in the low-70 MB/s range.
struct DiskModelParams {
  double seek_ms = 4.7;
  double rotational_latency_ms = 3.0;
  double transfer_mb_per_s = 72.0;
};

// A modern NVMe SSD: no mechanical positioning, ~20 µs random-read latency
// modeled as "seek", multi-GB/s sustained transfer. Under this preset a
// random access costs barely more than a sequential one, which inverts
// several of the planner's trade-offs (sequential sweeps and coalesced
// prefetch runs lose most of their edge over seeks) — bench_planner has an
// NVMe section exercising exactly that.
inline DiskModelParams NvmeDiskModelParams() {
  DiskModelParams params;
  params.seek_ms = 0.02;
  params.rotational_latency_ms = 0.0;
  params.transfer_mb_per_s = 3000.0;
  return params;
}

// Converts the random/sequential access counters every BlockDevice keeps
// into simulated elapsed disk time:
//
//   random access      = seek + rotational latency + one block transfer
//   sequential access  = one block transfer (the head is already there)
//
// This is the translation layer between the counts the simulator measures
// and the query *times* the paper's figures report. Because it is a pure
// function of an IoStats snapshot, any counter the library exposes (device
// stats, per-thread stats, QueryStats.io / .speculative_io) can be priced
// after the fact, with any drive parameters.
class DiskModel {
 public:
  explicit DiskModel(DiskModelParams params = {},
                     size_t block_size = kDefaultBlockSize)
      : params_(params), block_size_(block_size) {}

  double TransferMsPerBlock() const {
    return static_cast<double>(block_size_) /
           (params_.transfer_mb_per_s * 1e6) * 1e3;
  }
  double RandomAccessMs() const {
    return params_.seek_ms + params_.rotational_latency_ms +
           TransferMsPerBlock();
  }
  double SequentialAccessMs() const { return TransferMsPerBlock(); }

  // Simulated elapsed time of `io`, reads and writes priced alike (writes
  // pay the same positioning cost).
  double Ms(const IoStats& io) const {
    return static_cast<double>(io.random_reads + io.random_writes) *
               RandomAccessMs() +
           static_cast<double>(io.sequential_reads + io.sequential_writes) *
               SequentialAccessMs();
  }

  const DiskModelParams& params() const { return params_; }
  size_t block_size() const { return block_size_; }

 private:
  DiskModelParams params_;
  size_t block_size_;
};

}  // namespace ir2

#endif  // IR2TREE_STORAGE_DISK_MODEL_H_
