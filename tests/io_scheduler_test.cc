#include "storage/io_scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/batch_executor.h"
#include "core/database.h"
#include "datagen/workload.h"
#include "storage/block_device.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using testing_util::RandomObjects;

constexpr size_t kBlockSize = 256;  // Small blocks keep the tests fast.

// Deterministic per-block content so a read can be checked against the
// block id it claims to hold.
std::vector<uint8_t> BlockPattern(BlockId id) {
  std::vector<uint8_t> data(kBlockSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((id * 131 + i * 7) & 0xff);
  }
  return data;
}

std::unique_ptr<MemoryBlockDevice> MakeDevice(uint32_t blocks) {
  auto device = std::make_unique<MemoryBlockDevice>(kBlockSize);
  EXPECT_EQ(device->Allocate(blocks).value(), 0u);
  for (BlockId id = 0; id < blocks; ++id) {
    EXPECT_TRUE(device->Write(id, BlockPattern(id)).ok());
  }
  device->ResetStats();
  return device;
}

IoSchedulerOptions Synchronous() {
  IoSchedulerOptions options;
  options.synchronous = true;
  return options;
}

TEST(IoSchedulerTest, CoalescesAdjacentIdsIntoOneSequentialRun) {
  auto device = MakeDevice(64);
  BufferPool pool(device.get(), /*capacity_blocks=*/64);
  IoScheduler scheduler(&pool, Synchronous());

  scheduler.PrefetchRange(3, 8);

  const IoSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.requested, 8u);
  EXPECT_EQ(stats.deduped, 0u);
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_EQ(stats.blocks_fetched, 8u);
  // One seek, then transfers: the whole point of coalescing.
  const IoStats speculative = scheduler.speculative_stats();
  EXPECT_EQ(speculative.random_reads, 1u);
  EXPECT_EQ(speculative.sequential_reads, 7u);
  for (BlockId id = 3; id < 11; ++id) {
    EXPECT_TRUE(pool.Contains(id)) << "block " << id;
  }
  EXPECT_TRUE(scheduler.last_error().ok());
}

TEST(IoSchedulerTest, NonAdjacentIdsBecomeSeparateRuns) {
  auto device = MakeDevice(64);
  BufferPool pool(device.get(), /*capacity_blocks=*/64);
  IoScheduler scheduler(&pool, Synchronous());

  const std::vector<BlockId> ids = {9, 0, 5};  // Unsorted on purpose.
  scheduler.PrefetchBatch(ids);

  const IoSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.runs, 3u);
  EXPECT_EQ(stats.blocks_fetched, 3u);
  const IoStats speculative = scheduler.speculative_stats();
  EXPECT_EQ(speculative.random_reads, 3u);
  EXPECT_EQ(speculative.sequential_reads, 0u);
}

TEST(IoSchedulerTest, MaxRunBlocksCapsRunLength) {
  auto device = MakeDevice(160);
  BufferPool pool(device.get(), /*capacity_blocks=*/160);
  IoScheduler scheduler(&pool, Synchronous());

  scheduler.PrefetchRange(0, 150);  // Runs of at most 64: 64 + 64 + 22.

  const IoSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.runs, 3u);
  EXPECT_EQ(stats.blocks_fetched, 150u);
}

TEST(IoSchedulerTest, DedupsRepeatedAndAlreadyCachedRequests) {
  auto device = MakeDevice(64);
  BufferPool pool(device.get(), /*capacity_blocks=*/64);
  IoScheduler scheduler(&pool, Synchronous());

  scheduler.PrefetchRange(0, 4);
  scheduler.PrefetchRange(0, 4);  // Every block now resident in the pool.

  IoSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.requested, 8u);
  EXPECT_EQ(stats.deduped, 4u);
  EXPECT_EQ(stats.blocks_fetched, 4u);

  // A block pulled in by a demand read is equally off limits.
  std::vector<uint8_t> buf(kBlockSize);
  ASSERT_TRUE(pool.Read(20, buf).ok());
  scheduler.Prefetch(20);
  stats = scheduler.stats();
  EXPECT_EQ(stats.deduped, 5u);
  EXPECT_EQ(stats.blocks_fetched, 4u);
}

TEST(IoSchedulerTest, ExactlyOnceUnderConcurrentDuplicateRequests) {
  auto device = MakeDevice(256);
  BufferPool pool(device.get(), /*capacity_blocks=*/256);
  IoScheduler scheduler(&pool);  // Asynchronous.

  // The second wave races the worker: each id is dropped by exactly one of
  // the pending / in-flight / already-cached checks, never fetched twice.
  scheduler.PrefetchRange(0, 128);
  scheduler.PrefetchRange(0, 128);
  scheduler.Drain();

  const IoSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.requested, 256u);
  EXPECT_EQ(stats.deduped, 128u);
  EXPECT_EQ(stats.blocks_fetched, 128u);
  EXPECT_EQ(scheduler.speculative_stats().TotalReads(), 128u);
}

TEST(IoSchedulerTest, OutOfRangeRequestsAreClippedOrDropped) {
  auto device = MakeDevice(16);
  BufferPool pool(device.get(), /*capacity_blocks=*/16);
  IoScheduler scheduler(&pool, Synchronous());

  scheduler.PrefetchRange(14, 10);  // Only 14 and 15 exist.
  scheduler.PrefetchRange(99, 4);   // Entirely past the end: no-op.

  IoSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.requested, 2u);
  EXPECT_EQ(stats.blocks_fetched, 2u);

  // Batch form counts (and drops) out-of-range ids individually.
  const std::vector<BlockId> ids = {15, 16, 1000};
  scheduler.PrefetchBatch(ids);
  stats = scheduler.stats();
  EXPECT_EQ(stats.requested, 5u);
  EXPECT_EQ(stats.deduped, 3u);  // 15 cached, 16 and 1000 out of range.
  EXPECT_EQ(stats.blocks_fetched, 2u);
  EXPECT_TRUE(scheduler.last_error().ok());
}

TEST(IoSchedulerTest, PrefetchedBlocksServeDemandReadsWithoutDeviceIo) {
  auto device = MakeDevice(64);
  BufferPool pool(device.get(), /*capacity_blocks=*/64);
  IoScheduler scheduler(&pool, Synchronous());

  scheduler.PrefetchRange(5, 4);

  // The speculative reads ran on the worker thread; this (demand) thread
  // has touched nothing yet.
  EXPECT_EQ(device->thread_stats().TotalAccesses(), 0u);

  std::vector<uint8_t> buf(kBlockSize);
  for (BlockId id = 5; id < 9; ++id) {
    ASSERT_TRUE(pool.Read(id, buf).ok());
    EXPECT_EQ(buf, BlockPattern(id)) << "block " << id;
  }
  // Pool hits: logical requests recorded, zero physical I/O.
  EXPECT_EQ(pool.thread_stats().TotalReads(), 4u);
  EXPECT_EQ(device->thread_stats().TotalAccesses(), 0u);
  EXPECT_GE(pool.Stats().hits, 4u);
}

TEST(IoSchedulerTest, DestructorDrainsPendingQueue) {
  auto device = MakeDevice(64);
  BufferPool pool(device.get(), /*capacity_blocks=*/64);
  {
    IoScheduler scheduler(&pool);  // Asynchronous.
    scheduler.PrefetchRange(0, 32);
    // Destroyed with (possibly) everything still pending.
  }
  for (BlockId id = 0; id < 32; ++id) {
    EXPECT_TRUE(pool.Contains(id)) << "block " << id;
  }
}

TEST(IoSchedulerTest, ReadRunIsDemandAccountedOnTheCallingThread) {
  auto device = MakeDevice(64);
  BufferPool pool(device.get(), /*capacity_blocks=*/64);
  IoScheduler scheduler(&pool);

  pool.ResetThreadCursor();
  std::vector<uint8_t> out;
  ASSERT_TRUE(scheduler.ReadRun(2, 5, &out).ok());
  ASSERT_EQ(out.size(), 5 * kBlockSize);
  for (BlockId id = 2; id < 7; ++id) {
    const std::vector<uint8_t> expect = BlockPattern(id);
    EXPECT_EQ(0, memcmp(out.data() + (id - 2) * kBlockSize, expect.data(),
                        kBlockSize))
        << "block " << id;
  }
  // Cold: one seek plus sequential transfers, on *this* thread.
  IoStats physical = device->thread_stats();
  EXPECT_EQ(physical.random_reads, 1u);
  EXPECT_EQ(physical.sequential_reads, 4u);
  EXPECT_EQ(pool.thread_stats().TotalReads(), 5u);
  EXPECT_EQ(scheduler.speculative_stats().TotalReads(), 0u);

  // Warm repeat: same demand requests, no physical I/O.
  ASSERT_TRUE(scheduler.ReadRun(2, 5, &out).ok());
  physical = device->thread_stats();
  EXPECT_EQ(physical.TotalReads(), 5u);
  EXPECT_EQ(pool.thread_stats().TotalReads(), 10u);
}

// TSan hammer: a prefetcher sweeping the IR2-Tree's device races a
// multi-threaded BatchExecutor run plus a demand ReadRun loop on the shared
// pool. Exercises the pool's shard locks, the device's per-thread counter
// registry and the scheduler's pending/in-flight handoff under real query
// traffic; correctness check is that the batch results still match the
// serial baseline.
TEST(IoSchedulerTest, HammersSafelyUnderConcurrentBatchExecution) {
  std::vector<StoredObject> objects = RandomObjects(11, 400, 30, 5);
  DatabaseOptions db_options;
  db_options.tree_options.capacity_override = 8;
  db_options.ir2_signature = SignatureConfig{128, 3};
  auto db = SpatialKeywordDatabase::Build(objects, db_options).value();

  WorkloadConfig workload;
  workload.seed = 23;
  workload.num_queries = 16;
  workload.num_keywords = 2;
  workload.k = 5;
  std::vector<DistanceFirstQuery> queries =
      GenerateWorkload(objects, db.get()->tokenizer(), workload);

  BatchExecutorOptions serial_options;
  serial_options.num_threads = 1;
  serial_options.algorithm = Algorithm::kIr2;
  BatchExecutor serial(db.get(), serial_options);
  const BatchResults baseline = serial.Run(queries).value();

  BlockDevice* tree_device = db->ir2_tree()->pool()->device();
  BufferPool prefetch_pool(tree_device, /*capacity_blocks=*/1 << 10);
  IoScheduler scheduler(&prefetch_pool);
  const uint64_t num_blocks = tree_device->NumBlocks();

  std::thread prefetcher([&] {
    uint64_t state = 0x9e3779b97f4a7c15ull;  // splitmix-style id stream.
    std::vector<BlockId> batch(16);
    for (int round = 0; round < 200; ++round) {
      for (BlockId& id : batch) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        id = (state >> 33) % num_blocks;
      }
      scheduler.PrefetchBatch(batch);
    }
  });
  std::thread demand_reader([&] {
    std::vector<uint8_t> out;
    for (int round = 0; round < 100; ++round) {
      const BlockId first = (round * 7) % (num_blocks > 8 ? num_blocks - 8 : 1);
      ASSERT_TRUE(scheduler.ReadRun(first, 8, &out).ok());
    }
  });

  BatchExecutorOptions batch_options;
  batch_options.num_threads = 4;
  batch_options.algorithm = Algorithm::kIr2;
  BatchExecutor executor(db.get(), batch_options);
  const BatchResults concurrent = executor.Run(queries).value();

  prefetcher.join();
  demand_reader.join();
  scheduler.Drain();
  EXPECT_TRUE(scheduler.last_error().ok());

  ASSERT_EQ(concurrent.results.size(), baseline.results.size());
  for (size_t i = 0; i < baseline.results.size(); ++i) {
    ASSERT_EQ(concurrent.results[i].size(), baseline.results[i].size())
        << "query " << i;
    for (size_t r = 0; r < baseline.results[i].size(); ++r) {
      EXPECT_EQ(concurrent.results[i][r].ref, baseline.results[i][r].ref)
          << "query " << i << " rank " << r;
    }
  }
}

}  // namespace
}  // namespace ir2
