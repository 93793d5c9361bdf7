#ifndef IR2TREE_STORAGE_BLOCK_DEVICE_H_
#define IR2TREE_STORAGE_BLOCK_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/status_or.h"

namespace ir2 {

// Identifier of a fixed-size block within one device. Blocks are numbered
// densely from 0 in allocation order.
using BlockId = uint64_t;

inline constexpr BlockId kInvalidBlockId = ~BlockId{0};

// The paper's experiments use 4096-byte disk blocks; this is the default for
// every index structure in the library.
inline constexpr size_t kDefaultBlockSize = 4096;

// Disk access counters in the units the paper reports: a block read is
// *sequential* when it targets the block immediately after the previously
// read block on the same device, otherwise it is *random* (a seek). Writes
// are classified the same way, independently of the read cursor.
struct IoStats {
  uint64_t random_reads = 0;
  uint64_t sequential_reads = 0;
  uint64_t random_writes = 0;
  uint64_t sequential_writes = 0;

  uint64_t TotalReads() const { return random_reads + sequential_reads; }
  uint64_t TotalWrites() const { return random_writes + sequential_writes; }
  uint64_t TotalAccesses() const { return TotalReads() + TotalWrites(); }

  IoStats& operator+=(const IoStats& other) {
    random_reads += other.random_reads;
    sequential_reads += other.sequential_reads;
    random_writes += other.random_writes;
    sequential_writes += other.sequential_writes;
    return *this;
  }

  friend IoStats operator+(IoStats a, const IoStats& b) { return a += b; }
  friend IoStats operator-(const IoStats& a, const IoStats& b) {
    IoStats d;
    d.random_reads = a.random_reads - b.random_reads;
    d.sequential_reads = a.sequential_reads - b.sequential_reads;
    d.random_writes = a.random_writes - b.random_writes;
    d.sequential_writes = a.sequential_writes - b.sequential_writes;
    return d;
  }

  friend bool operator==(const IoStats& a, const IoStats& b) {
    return a.random_reads == b.random_reads &&
           a.sequential_reads == b.sequential_reads &&
           a.random_writes == b.random_writes &&
           a.sequential_writes == b.sequential_writes;
  }

};

// Abstract block-addressed storage with I/O accounting.
//
// All index structures in the library (R-Tree, IR2-Tree, MIR2-Tree, inverted
// index, object file) are written through this interface, so the benchmark
// harness can report the exact disk-access profile of each algorithm.
//
// Thread-safety: I/O accounting is kept per calling thread — each thread
// owns its own counters and its own sequential-access cursor, so concurrent
// queries on different threads report exact, independent disk-access
// profiles (thread_stats() / ResetThreadCursor()), and stats() aggregates
// across threads. The data path (ReadImpl/WriteImpl/Allocate) of the
// provided devices tolerates concurrent accesses to *distinct* blocks;
// racing writes to the same block are the caller's responsibility to
// serialize (the sharded BufferPool does so for all traffic routed through
// it).
class BlockDevice {
 public:
  explicit BlockDevice(size_t block_size);
  virtual ~BlockDevice();

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  size_t block_size() const { return block_size_; }

  // Number of allocated blocks; valid BlockIds are [0, NumBlocks()).
  virtual uint64_t NumBlocks() const = 0;

  // Allocates `count` new contiguous blocks (zero-filled) and returns the id
  // of the first. Contiguity matters: multi-block IR2-Tree nodes are read
  // with one random access followed by sequential accesses.
  virtual StatusOr<BlockId> Allocate(uint32_t count) = 0;

  // Reads one full block into `out` (must be exactly block_size() bytes).
  Status Read(BlockId id, std::span<uint8_t> out);

  // Writes one full block from `data` (must be exactly block_size() bytes).
  Status Write(BlockId id, std::span<const uint8_t> data);

  // Snapshot of the I/O counters summed over every thread that has touched
  // this device. Exact when no I/O is concurrently in flight; otherwise a
  // consistent-enough snapshot (each counter is atomically read).
  IoStats stats() const;

  // Snapshot of the calling thread's own accumulated I/O on this device.
  // Because counters are attributed to the thread that issued the access,
  // the delta of two thread_stats() calls brackets exactly the I/O this
  // thread performed in between — the basis of per-query accounting in
  // concurrent batch runs.
  IoStats thread_stats() const;

  // Forgets the calling thread's sequential-access cursor so its next
  // access counts as random — the state a cold query starts from.
  //
  // Cursors are strictly per thread: a prefetch (or any background) thread
  // advancing its own cursor with a long sequential run can never donate
  // sequential-read credit to — or steal it from — a query thread, and
  // resetting one thread's cursor never disturbs another's. Layered devices
  // (BufferPool) override this to also reset the calling thread's cursor on
  // the backing device, so one call restores the whole stack of a query
  // thread to the cold state (see ThreadCursorIsolation in storage_test).
  virtual void ResetThreadCursor();

  // Zeroes every thread's counters and cursors. Call only while no I/O is
  // in flight (between build and measurement phases). Layered devices
  // cascade to their backing device.
  virtual void ResetStats();

  // Durability barrier: blocks until every previously completed Write has
  // reached stable storage. A no-op for devices without a persistence story
  // (memory); FileBlockDevice issues fdatasync.
  virtual Status Sync() { return Status::Ok(); }

  uint64_t SizeBytes() const { return NumBlocks() * block_size_; }

 protected:
  virtual Status ReadImpl(BlockId id, std::span<uint8_t> out) = 0;
  virtual Status WriteImpl(BlockId id, std::span<const uint8_t> data) = 0;

 private:
  // Per-thread accounting context. Counters are written only by the owning
  // thread and read (relaxed) by aggregating threads; the cursors are also
  // stored atomically so ResetStats() can clear them from another thread.
  struct ThreadIo {
    std::atomic<uint64_t> random_reads{0};
    std::atomic<uint64_t> sequential_reads{0};
    std::atomic<uint64_t> random_writes{0};
    std::atomic<uint64_t> sequential_writes{0};
    std::atomic<BlockId> last_read{kInvalidBlockId};
    std::atomic<BlockId> last_write{kInvalidBlockId};

    IoStats Snapshot() const;
  };

  // Finds (or lazily creates) the calling thread's context.
  ThreadIo& LocalIo() const;

  size_t block_size_;
  // Process-unique id used to key the thread-local context cache; never
  // reused, so stale cache entries of destroyed devices cannot alias.
  uint64_t device_id_;

  mutable std::mutex io_registry_mu_;
  mutable std::unordered_map<std::thread::id, std::unique_ptr<ThreadIo>>
      io_registry_;
};

// In-memory device. The default for tests and benchmarks: it makes disk
// *accounting* exact and deterministic while keeping runs fast, which is the
// substitution DESIGN.md documents for the paper's physical hard drive.
//
// Concurrent reads and writes of distinct blocks are safe; Allocate takes an
// exclusive lock so the block directory never moves under a reader.
class MemoryBlockDevice final : public BlockDevice {
 public:
  explicit MemoryBlockDevice(size_t block_size = kDefaultBlockSize);

  uint64_t NumBlocks() const override;
  StatusOr<BlockId> Allocate(uint32_t count) override;

 protected:
  Status ReadImpl(BlockId id, std::span<uint8_t> out) override;
  Status WriteImpl(BlockId id, std::span<const uint8_t> data) override;

 private:
  // One flat buffer per block keeps Allocate O(count) and avoids large
  // reallocation spikes.
  mutable std::shared_mutex blocks_mu_;
  std::vector<std::vector<uint8_t>> blocks_;
};

// Copies every block of `src` into `dst` (which must be empty and share the
// block size). Used to persist memory-built indexes to files and back.
Status CopyBlocks(BlockDevice* src, BlockDevice* dst);

struct FileBlockDeviceOptions {
  // Ask the kernel to bypass the page cache (O_DIRECT), so cold-regime
  // benches against real files measure the device rather than RAM. Falls
  // back to buffered I/O when the filesystem refuses (tmpfs, some network
  // filesystems) — check using_direct_io() for the outcome. Direct reads
  // and writes of unaligned caller buffers bounce through a thread-local
  // page-aligned buffer; file offsets are always block-aligned here.
  bool direct_io = false;
};

// File-backed device using positional pread/pwrite (inherently safe for
// concurrent accesses to distinct blocks), the production persistence path:
// O_DIRECT with graceful fallback, short-transfer/EINTR hardening, and a
// Sync() durability barrier (fdatasync). Allocate ftruncates the file to
// the allocated extent, so Open always agrees with the last Allocate about
// NumBlocks().
class FileBlockDevice final : public BlockDevice {
 public:
  // Creates (truncating any existing file) or opens the file at `path`.
  static StatusOr<std::unique_ptr<FileBlockDevice>> Create(
      const std::string& path, size_t block_size = kDefaultBlockSize,
      FileBlockDeviceOptions options = {});
  static StatusOr<std::unique_ptr<FileBlockDevice>> Open(
      const std::string& path, size_t block_size = kDefaultBlockSize,
      FileBlockDeviceOptions options = {});

  ~FileBlockDevice() override;

  uint64_t NumBlocks() const override;
  StatusOr<BlockId> Allocate(uint32_t count) override;

  // Write barrier: all completed writes (data + size) are on stable storage
  // when this returns Ok.
  Status Sync() override;

  // Whether O_DIRECT actually took effect (false when not requested or when
  // the filesystem refused and buffered I/O was the fallback).
  bool using_direct_io() const { return direct_io_; }

 protected:
  Status ReadImpl(BlockId id, std::span<uint8_t> out) override;
  Status WriteImpl(BlockId id, std::span<const uint8_t> data) override;

 private:
  FileBlockDevice(int fd, size_t block_size, uint64_t num_blocks,
                  bool direct_io);

  Status PreadFull(uint8_t* buf, size_t size, uint64_t offset);
  Status PwriteFull(const uint8_t* buf, size_t size, uint64_t offset);

  int fd_;
  bool direct_io_;
  std::mutex allocate_mu_;
  std::atomic<uint64_t> num_blocks_;
};

}  // namespace ir2

#endif  // IR2TREE_STORAGE_BLOCK_DEVICE_H_
