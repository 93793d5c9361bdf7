#include "storage/block_device.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace ir2 {

namespace {

// One cached (device_id -> ThreadIo*) mapping. Device ids are process-unique
// and never reused, so an entry left behind by a destroyed device can never
// be mistaken for a live one — it is simply dead weight until evicted.
struct TlsIoSlot {
  uint64_t device_id = 0;
  void* io = nullptr;
};

// Small move-to-front cache in front of the device's registry lookup. Sized
// so a thread juggling the usual handful of devices (object file + four
// index devices) always hits the first few entries.
constexpr size_t kTlsIoCacheSize = 16;
thread_local TlsIoSlot t_io_cache[kTlsIoCacheSize];

std::atomic<uint64_t> g_next_device_id{1};

}  // namespace

Status CopyBlocks(BlockDevice* src, BlockDevice* dst) {
  if (src->block_size() != dst->block_size()) {
    return Status::InvalidArgument("CopyBlocks: block size mismatch");
  }
  if (dst->NumBlocks() != 0) {
    return Status::FailedPrecondition("CopyBlocks: destination not empty");
  }
  const uint64_t blocks = src->NumBlocks();
  if (blocks == 0) {
    return Status::Ok();
  }
  IR2_ASSIGN_OR_RETURN(BlockId first, dst->Allocate(
      static_cast<uint32_t>(blocks)));
  IR2_CHECK_EQ(first, 0u);
  std::vector<uint8_t> buffer(src->block_size());
  for (BlockId id = 0; id < blocks; ++id) {
    IR2_RETURN_IF_ERROR(src->Read(id, buffer));
    IR2_RETURN_IF_ERROR(dst->Write(id, buffer));
  }
  return Status::Ok();
}

BlockDevice::BlockDevice(size_t block_size)
    : block_size_(block_size),
      device_id_(g_next_device_id.fetch_add(1, std::memory_order_relaxed)) {}

BlockDevice::~BlockDevice() = default;

IoStats BlockDevice::ThreadIo::Snapshot() const {
  IoStats s;
  s.random_reads = random_reads.load(std::memory_order_relaxed);
  s.sequential_reads = sequential_reads.load(std::memory_order_relaxed);
  s.random_writes = random_writes.load(std::memory_order_relaxed);
  s.sequential_writes = sequential_writes.load(std::memory_order_relaxed);
  return s;
}

BlockDevice::ThreadIo& BlockDevice::LocalIo() const {
  for (size_t i = 0; i < kTlsIoCacheSize; ++i) {
    if (t_io_cache[i].device_id == device_id_) {
      TlsIoSlot hit = t_io_cache[i];
      // Move to front so the handful of live devices stay cheap to find.
      for (size_t j = i; j > 0; --j) t_io_cache[j] = t_io_cache[j - 1];
      t_io_cache[0] = hit;
      return *static_cast<ThreadIo*>(hit.io);
    }
  }
  ThreadIo* io;
  {
    std::lock_guard<std::mutex> lock(io_registry_mu_);
    std::unique_ptr<ThreadIo>& slot = io_registry_[std::this_thread::get_id()];
    if (slot == nullptr) {
      slot = std::make_unique<ThreadIo>();
    }
    io = slot.get();
  }
  for (size_t j = kTlsIoCacheSize - 1; j > 0; --j) {
    t_io_cache[j] = t_io_cache[j - 1];
  }
  t_io_cache[0] = TlsIoSlot{device_id_, io};
  return *io;
}

IoStats BlockDevice::stats() const {
  IoStats total;
  std::lock_guard<std::mutex> lock(io_registry_mu_);
  for (const auto& [tid, io] : io_registry_) {
    total += io->Snapshot();
  }
  return total;
}

IoStats BlockDevice::thread_stats() const { return LocalIo().Snapshot(); }

void BlockDevice::ResetThreadCursor() {
  ThreadIo& io = LocalIo();
  io.last_read.store(kInvalidBlockId, std::memory_order_relaxed);
  io.last_write.store(kInvalidBlockId, std::memory_order_relaxed);
}

void BlockDevice::ResetStats() {
  std::lock_guard<std::mutex> lock(io_registry_mu_);
  for (auto& [tid, io] : io_registry_) {
    io->random_reads.store(0, std::memory_order_relaxed);
    io->sequential_reads.store(0, std::memory_order_relaxed);
    io->random_writes.store(0, std::memory_order_relaxed);
    io->sequential_writes.store(0, std::memory_order_relaxed);
    // Also forget the cursors so the first access after a reset is counted
    // as random, the state a cold query starts from.
    io->last_read.store(kInvalidBlockId, std::memory_order_relaxed);
    io->last_write.store(kInvalidBlockId, std::memory_order_relaxed);
  }
}

Status BlockDevice::Read(BlockId id, std::span<uint8_t> out) {
  if (out.size() != block_size_) {
    return Status::InvalidArgument("Read buffer size != block size");
  }
  if (id >= NumBlocks()) {
    return Status::OutOfRange("Read past end of device");
  }
  ThreadIo& io = LocalIo();
  const BlockId last = io.last_read.load(std::memory_order_relaxed);
  if (last != kInvalidBlockId && id == last + 1) {
    io.sequential_reads.fetch_add(1, std::memory_order_relaxed);
  } else {
    io.random_reads.fetch_add(1, std::memory_order_relaxed);
  }
  io.last_read.store(id, std::memory_order_relaxed);
  return ReadImpl(id, out);
}

Status BlockDevice::Write(BlockId id, std::span<const uint8_t> data) {
  if (data.size() != block_size_) {
    return Status::InvalidArgument("Write buffer size != block size");
  }
  if (id >= NumBlocks()) {
    return Status::OutOfRange("Write past end of device");
  }
  ThreadIo& io = LocalIo();
  const BlockId last = io.last_write.load(std::memory_order_relaxed);
  if (last != kInvalidBlockId && id == last + 1) {
    io.sequential_writes.fetch_add(1, std::memory_order_relaxed);
  } else {
    io.random_writes.fetch_add(1, std::memory_order_relaxed);
  }
  io.last_write.store(id, std::memory_order_relaxed);
  return WriteImpl(id, data);
}

MemoryBlockDevice::MemoryBlockDevice(size_t block_size)
    : BlockDevice(block_size) {}

uint64_t MemoryBlockDevice::NumBlocks() const {
  std::shared_lock<std::shared_mutex> lock(blocks_mu_);
  return blocks_.size();
}

StatusOr<BlockId> MemoryBlockDevice::Allocate(uint32_t count) {
  if (count == 0) {
    return Status::InvalidArgument("Allocate count must be > 0");
  }
  std::unique_lock<std::shared_mutex> lock(blocks_mu_);
  BlockId first = blocks_.size();
  for (uint32_t i = 0; i < count; ++i) {
    blocks_.emplace_back(block_size(), uint8_t{0});
  }
  return first;
}

Status MemoryBlockDevice::ReadImpl(BlockId id, std::span<uint8_t> out) {
  std::shared_lock<std::shared_mutex> lock(blocks_mu_);
  std::memcpy(out.data(), blocks_[id].data(), block_size());
  return Status::Ok();
}

Status MemoryBlockDevice::WriteImpl(BlockId id,
                                    std::span<const uint8_t> data) {
  // Shared lock: the block directory must not move, but distinct blocks are
  // independent buffers. Same-block write races are the caller's to prevent.
  std::shared_lock<std::shared_mutex> lock(blocks_mu_);
  std::memcpy(blocks_[id].data(), data.data(), block_size());
  return Status::Ok();
}

namespace {

// O_DIRECT requires the user buffer to be aligned to the logical sector
// size; one page covers every real sector size. File offsets here are
// always whole blocks, so only the buffer needs help — unaligned caller
// buffers bounce through this per-thread page-aligned scratch.
constexpr size_t kDirectIoAlignment = 4096;

struct AlignedScratch {
  void* data = nullptr;
  size_t capacity = 0;

  ~AlignedScratch() { std::free(data); }

  uint8_t* Get(size_t size) {
    if (capacity < size) {
      std::free(data);
      data = nullptr;
      capacity = 0;
      void* p = nullptr;
      if (::posix_memalign(&p, kDirectIoAlignment, size) != 0) {
        return nullptr;
      }
      data = p;
      capacity = size;
    }
    return static_cast<uint8_t*>(data);
  }
};

thread_local AlignedScratch t_direct_scratch;

bool IsDirectAligned(const void* p, size_t size) {
  return reinterpret_cast<uintptr_t>(p) % kDirectIoAlignment == 0 &&
         size % kDirectIoAlignment == 0;
}

// Opens with O_DIRECT when requested, falling back to buffered I/O when the
// filesystem refuses (tmpfs returns EINVAL). `direct_out` reports which
// mode actually took.
int OpenWithOptionalDirect(const char* path, int flags, mode_t mode,
                           bool want_direct, bool* direct_out) {
  if (want_direct) {
    int fd = ::open(path, flags | O_DIRECT, mode);
    if (fd >= 0) {
      *direct_out = true;
      return fd;
    }
    if (errno != EINVAL && errno != EOPNOTSUPP) {
      return fd;
    }
    // Fall through: the filesystem cannot do direct I/O here.
  }
  *direct_out = false;
  return ::open(path, flags, mode);
}

}  // namespace

FileBlockDevice::FileBlockDevice(int fd, size_t block_size,
                                 uint64_t num_blocks, bool direct_io)
    : BlockDevice(block_size),
      fd_(fd),
      direct_io_(direct_io),
      num_blocks_(num_blocks) {}

FileBlockDevice::~FileBlockDevice() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

StatusOr<std::unique_ptr<FileBlockDevice>> FileBlockDevice::Create(
    const std::string& path, size_t block_size,
    FileBlockDeviceOptions options) {
  // O_DIRECT transfers must be sector-multiples; a sub-page block size
  // cannot honor that, so quietly run it buffered.
  const bool want_direct =
      options.direct_io && block_size % kDirectIoAlignment == 0;
  bool direct = false;
  int fd = OpenWithOptionalDirect(path.c_str(), O_RDWR | O_CREAT | O_TRUNC,
                                  0644, want_direct, &direct);
  if (fd < 0) {
    return Status::IoError("open(" + path + "): " + std::strerror(errno));
  }
  return std::unique_ptr<FileBlockDevice>(
      new FileBlockDevice(fd, block_size, 0, direct));
}

StatusOr<std::unique_ptr<FileBlockDevice>> FileBlockDevice::Open(
    const std::string& path, size_t block_size,
    FileBlockDeviceOptions options) {
  const bool want_direct =
      options.direct_io && block_size % kDirectIoAlignment == 0;
  bool direct = false;
  int fd =
      OpenWithOptionalDirect(path.c_str(), O_RDWR, 0644, want_direct, &direct);
  if (fd < 0) {
    return Status::IoError("open(" + path + "): " + std::strerror(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::IoError("lseek(" + path + "): " + std::strerror(errno));
  }
  if (static_cast<uint64_t>(size) % block_size != 0) {
    ::close(fd);
    return Status::Corruption("File size not a multiple of block size: " +
                              path);
  }
  return std::unique_ptr<FileBlockDevice>(new FileBlockDevice(
      fd, block_size, static_cast<uint64_t>(size) / block_size, direct));
}

uint64_t FileBlockDevice::NumBlocks() const {
  return num_blocks_.load(std::memory_order_acquire);
}

StatusOr<BlockId> FileBlockDevice::Allocate(uint32_t count) {
  if (count == 0) {
    return Status::InvalidArgument("Allocate count must be > 0");
  }
  std::lock_guard<std::mutex> lock(allocate_mu_);
  BlockId first = num_blocks_.load(std::memory_order_relaxed);
  uint64_t new_size = (first + count) * block_size();
  // ftruncate keeps the file size in lockstep with the allocated extent, so
  // a subsequent Open() of the same path derives the identical NumBlocks()
  // and reads of allocated-but-unwritten blocks see zeros (holes).
  if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0) {
    return Status::IoError(std::string("ftruncate: ") + std::strerror(errno));
  }
  num_blocks_.store(first + count, std::memory_order_release);
  return first;
}

Status FileBlockDevice::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::IoError(std::string("fdatasync: ") + std::strerror(errno));
  }
  return Status::Ok();
}

Status FileBlockDevice::PreadFull(uint8_t* buf, size_t size, uint64_t offset) {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::pread(fd_, buf + done, size - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pread: ") + std::strerror(errno));
    }
    if (n == 0) {
      // A short file is its own condition, not whatever errno was left over
      // from an unrelated call.
      return Status::IoError("pread: unexpected EOF inside allocated extent");
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status FileBlockDevice::PwriteFull(const uint8_t* buf, size_t size,
                                   uint64_t offset) {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::pwrite(fd_, buf + done, size - done,
                         static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pwrite: ") + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IoError("pwrite: device refused to make progress");
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status FileBlockDevice::ReadImpl(BlockId id, std::span<uint8_t> out) {
  const uint64_t offset = id * block_size();
  if (direct_io_ && !IsDirectAligned(out.data(), out.size())) {
    uint8_t* bounce = t_direct_scratch.Get(block_size());
    if (bounce == nullptr) {
      return Status::IoError("posix_memalign failed for direct I/O bounce");
    }
    IR2_RETURN_IF_ERROR(PreadFull(bounce, block_size(), offset));
    std::memcpy(out.data(), bounce, block_size());
    return Status::Ok();
  }
  return PreadFull(out.data(), out.size(), offset);
}

Status FileBlockDevice::WriteImpl(BlockId id, std::span<const uint8_t> data) {
  const uint64_t offset = id * block_size();
  if (direct_io_ && !IsDirectAligned(data.data(), data.size())) {
    uint8_t* bounce = t_direct_scratch.Get(block_size());
    if (bounce == nullptr) {
      return Status::IoError("posix_memalign failed for direct I/O bounce");
    }
    std::memcpy(bounce, data.data(), block_size());
    return PwriteFull(bounce, block_size(), offset);
  }
  return PwriteFull(data.data(), data.size(), offset);
}

}  // namespace ir2
