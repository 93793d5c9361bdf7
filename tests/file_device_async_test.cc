#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/batch_executor.h"
#include "core/database.h"
#include "datagen/workload.h"
#include "storage/async_io.h"
#include "storage/block_device.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using testing_util::RandomObjects;
using testing_util::ResultIds;

class FileDeviceAsyncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    directory_ = ::testing::TempDir() + "/ir2db_file_async_test";
    std::filesystem::remove_all(directory_);
    std::filesystem::create_directories(directory_);
  }
  void TearDown() override { std::filesystem::remove_all(directory_); }

  std::string Path(const char* name) const { return directory_ + "/" + name; }

  std::string directory_;
};

std::vector<uint8_t> PatternBlock(size_t block_size, uint32_t salt) {
  std::vector<uint8_t> block(block_size);
  Rng rng(salt);
  for (uint8_t& b : block) {
    b = static_cast<uint8_t>(rng.NextUint64());
  }
  return block;
}

// Satellite: Create, Allocate, and a later Open must agree on the file
// size — Allocate ftruncates to the allocated extent, so NumBlocks survives
// the close/reopen boundary even if no write ever touched the last block.
TEST_F(FileDeviceAsyncTest, CreateAllocateOpenAgreeOnSize) {
  const std::string path = Path("size.dat");
  {
    auto device = FileBlockDevice::Create(path, 512).value();
    EXPECT_EQ(device->NumBlocks(), 0u);
    EXPECT_EQ(device->Allocate(7).value(), 0u);
    EXPECT_EQ(device->NumBlocks(), 7u);
    // Write only block 3; blocks 4..6 stay untouched (sparse tail).
    std::vector<uint8_t> block = PatternBlock(512, 3);
    ASSERT_TRUE(device->Write(3, block).ok());
    ASSERT_TRUE(device->Sync().ok());
  }
  EXPECT_EQ(std::filesystem::file_size(path), 7u * 512u);
  {
    auto device = FileBlockDevice::Open(path, 512).value();
    EXPECT_EQ(device->NumBlocks(), 7u);
    std::vector<uint8_t> out(512);
    ASSERT_TRUE(device->Read(3, out).ok());
    EXPECT_EQ(out, PatternBlock(512, 3));
    // The never-written tail reads as zeros, not EOF.
    ASSERT_TRUE(device->Read(6, out).ok());
    EXPECT_EQ(out, std::vector<uint8_t>(512, 0));
    // Growing an opened file also sticks.
    EXPECT_EQ(device->Allocate(3).value(), 7u);
  }
  {
    auto device = FileBlockDevice::Open(path, 512).value();
    EXPECT_EQ(device->NumBlocks(), 10u);
  }
}

// O_DIRECT is a request, not a requirement: on filesystems that refuse it
// (tmpfs under TempDir typically does) the device falls back to buffered
// I/O and everything still works; when it is granted, reads round-trip the
// same bytes through the aligned bounce path.
TEST_F(FileDeviceAsyncTest, DirectIoRequestedFallsBackGracefully) {
  const std::string path = Path("direct.dat");
  FileBlockDeviceOptions options;
  options.direct_io = true;
  auto device = FileBlockDevice::Create(path, 4096, options).value();
  // Whether direct was granted depends on the filesystem; both are valid.
  (void)device->using_direct_io();
  ASSERT_TRUE(device->Allocate(4).ok());
  const std::vector<uint8_t> block = PatternBlock(4096, 99);
  ASSERT_TRUE(device->Write(1, block).ok());
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(device->Read(1, out).ok());
  EXPECT_EQ(out, block);
  ASSERT_TRUE(device->Sync().ok());

  // A block size that cannot satisfy O_DIRECT alignment must never enable
  // it (the option is silently ignored rather than failing every read).
  auto odd = FileBlockDevice::Create(Path("odd.dat"), 512, options).value();
  EXPECT_FALSE(odd->using_direct_io());
  ASSERT_TRUE(odd->Allocate(1).ok());
  std::vector<uint8_t> small = PatternBlock(512, 7);
  ASSERT_TRUE(odd->Write(0, small).ok());
  std::vector<uint8_t> small_out(512);
  ASSERT_TRUE(odd->Read(0, small_out).ok());
  EXPECT_EQ(small_out, small);
}

// Write-barrier consistency: everything written before Sync() must be
// visible to a fresh Open through a different descriptor — the crash model
// our Save() durability story relies on.
TEST_F(FileDeviceAsyncTest, SyncBarrierThenReopenSeesAllWrites) {
  const std::string path = Path("barrier.dat");
  auto device = FileBlockDevice::Create(path, 1024).value();
  ASSERT_TRUE(device->Allocate(16).ok());
  for (uint32_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(device->Write(i, PatternBlock(1024, i)).ok());
  }
  ASSERT_TRUE(device->Sync().ok());

  // Keep the writer open (simulating a crash that never closes cleanly)
  // and verify through an independent descriptor.
  auto reader = FileBlockDevice::Open(path, 1024).value();
  ASSERT_EQ(reader->NumBlocks(), 16u);
  std::vector<uint8_t> out(1024);
  for (uint32_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(reader->Read(i, out).ok());
    EXPECT_EQ(out, PatternBlock(1024, i)) << "block " << i;
  }
}

// Exactly-once completions: every submitted request produces exactly one
// completion with its user_data, and a block prefetched by the backend is
// never physically read twice — the racing demand read finds it resident.
TEST_F(FileDeviceAsyncTest, AsyncBackendCompletesEachRequestExactlyOnce) {
  const std::string path = Path("async.dat");
  constexpr uint32_t kBlocks = 64;
  auto device = FileBlockDevice::Create(path, 512).value();
  ASSERT_TRUE(device->Allocate(kBlocks).ok());
  for (uint32_t i = 0; i < kBlocks; ++i) {
    ASSERT_TRUE(device->Write(i, PatternBlock(512, i)).ok());
  }
  BufferPool pool(device.get(), /*capacity_blocks=*/kBlocks);

  AsyncIoOptions options;
  options.num_threads = 4;
  options.queue_depth = 8;  // Smaller than the submission count: Submit
                            // must block and drain, not deadlock or drop.
  AsyncIoBackend backend(&pool, options);
  for (uint32_t i = 0; i < kBlocks; i += 4) {
    backend.Submit(IoRequest{i, 4, /*user_data=*/i});
  }
  std::vector<IoCompletion> completions;
  while (completions.size() < kBlocks / 4) {
    backend.Reap(&completions, kBlocks / 4 - completions.size());
  }
  EXPECT_EQ(backend.InFlight(), 0u);

  std::set<uint64_t> seen;
  IoStats total;
  for (const IoCompletion& completion : completions) {
    EXPECT_TRUE(completion.status.ok());
    EXPECT_EQ(completion.blocks, 4u);
    EXPECT_TRUE(seen.insert(completion.user_data).second)
        << "duplicate completion " << completion.user_data;
    total += completion.io;
  }
  EXPECT_EQ(seen.size(), kBlocks / 4);
  // Cold pool: every block was read from the device exactly once, and the
  // physical profile belongs to the completions (speculative by
  // construction), not to this thread.
  EXPECT_EQ(total.TotalReads(), kBlocks);
  EXPECT_EQ(device->thread_stats().TotalReads(), 0u);

  // Re-prefetching the same range is all pool hits: zero physical I/O.
  backend.Submit(IoRequest{0, kBlocks, 1234});
  std::vector<IoCompletion> again;
  backend.Reap(&again, 1);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_TRUE(again[0].status.ok());
  EXPECT_EQ(again[0].user_data, 1234u);
  EXPECT_EQ(again[0].io.TotalReads(), 0u);

  // Out-of-range requests complete with an error instead of hanging.
  backend.Submit(IoRequest{kBlocks + 100, 1, 777});
  std::vector<IoCompletion> bad;
  backend.Reap(&bad, 1);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_FALSE(bad[0].status.ok());
}

// Hammer for TSan: many demand threads reading through the pool while the
// async backend prefetches the same range. Every read must return the
// right bytes and the pool's per-shard locks must keep physical reads
// exactly-once (no torn pages, no double fetch).
TEST_F(FileDeviceAsyncTest, ConcurrentDemandAndAsyncPrefetchHammer) {
  const std::string path = Path("hammer.dat");
  constexpr uint32_t kBlocks = 128;
  auto device = FileBlockDevice::Create(path, 512).value();
  ASSERT_TRUE(device->Allocate(kBlocks).ok());
  for (uint32_t i = 0; i < kBlocks; ++i) {
    ASSERT_TRUE(device->Write(i, PatternBlock(512, i)).ok());
  }
  // Per-shard capacity must cover every distinct block even in the worst
  // hash imbalance, or LRU eviction re-fetches blocks and breaks the
  // exactly-once accounting below: 8 shards, kBlocks each.
  BufferPool pool(device.get(), kBlocks * 8, /*num_shards=*/8);
  AsyncIoOptions options;
  options.num_threads = 3;
  AsyncIoBackend backend(&pool, options);

  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&pool, &failed, t] {
      Rng rng(1000 + t);
      std::vector<uint8_t> out(512);
      for (int iter = 0; iter < 2000; ++iter) {
        const uint32_t id = static_cast<uint32_t>(rng.NextUint64(kBlocks));
        if (!pool.Read(id, out).ok() || out != PatternBlock(512, id)) {
          failed = true;
          return;
        }
      }
    });
  }
  for (uint32_t round = 0; round < 8; ++round) {
    for (uint32_t i = 0; i < kBlocks; i += 16) {
      backend.Submit(IoRequest{i, 16, round * 100 + i});
    }
  }
  std::vector<IoCompletion> completions;
  while (completions.size() < 8 * kBlocks / 16) {
    backend.Reap(&completions, 1);
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_FALSE(failed);
  for (const IoCompletion& completion : completions) {
    EXPECT_TRUE(completion.status.ok());
  }
  // Exactly-once physical reads across all demand + speculative traffic.
  EXPECT_EQ(device->stats().TotalReads(), kBlocks);
}

// End-to-end: Build in memory, Save to a real directory, Open with the
// production file backend (direct I/O requested, async prefetch on) and
// check every algorithm answers exactly like the in-memory build — the
// on-disk round-trip regression the ISSUE calls for.
TEST_F(FileDeviceAsyncTest, DatabaseRoundTripOnRealFilesWithAsyncIo) {
  std::vector<StoredObject> objects = RandomObjects(91, 350, 30, 5);
  DatabaseOptions build_options;
  build_options.tree_options.capacity_override = 8;
  build_options.ir2_signature = SignatureConfig{128, 3};
  auto built = SpatialKeywordDatabase::Build(objects, build_options).value();
  const std::string db_dir = directory_ + "/db";
  ASSERT_TRUE(built->Save(db_dir).ok());

  DatabaseOptions runtime;
  runtime.cold_queries = false;
  runtime.prefetch = true;
  runtime.scheduler.synchronous = true;
  runtime.file_device.direct_io = true;
  runtime.async_io_threads = 2;
  auto reopened = SpatialKeywordDatabase::Open(db_dir, runtime).value();

  Rng rng(92);
  for (int iter = 0; iter < 10; ++iter) {
    DistanceFirstQuery query;
    query.point = Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
    query.keywords = {"w" + std::to_string(rng.NextUint64(30)),
                      "w" + std::to_string(rng.NextUint64(30))};
    query.k = 8;
    EXPECT_EQ(ResultIds(reopened->QueryIr2(query).value()),
              ResultIds(built->QueryIr2(query).value()));
    EXPECT_EQ(ResultIds(reopened->QueryMir2(query).value()),
              ResultIds(built->QueryMir2(query).value()));
    EXPECT_EQ(ResultIds(reopened->QueryIio(query).value()),
              ResultIds(built->QueryIio(query).value()));
    EXPECT_EQ(ResultIds(reopened->QueryRTree(query).value()),
              ResultIds(built->QueryRTree(query).value()));
  }

  // The same directory opened cold (no prefetch, no async) also agrees —
  // one saved artifact serves both regimes.
  DatabaseOptions cold;
  cold.cold_queries = true;
  auto cold_db = SpatialKeywordDatabase::Open(db_dir, cold).value();
  DistanceFirstQuery query;
  query.point = Point(500, 500);
  query.keywords = {"w1", "w2"};
  query.k = 8;
  EXPECT_EQ(ResultIds(cold_db->QueryIr2(query).value()),
            ResultIds(built->QueryIr2(query).value()));
}

// BatchExecutor over a file-backed database opened with the default (cold,
// prefetch-off) runtime options: every query's answers, physical I/O and
// simulated disk time must match a batch over the in-memory build. The
// executor drives no scheduler, so backend races are covered by
// ConcurrentDemandAndAsyncPrefetchHammer, not here.
TEST_F(FileDeviceAsyncTest, BatchExecutorOverFileBackedDatabase) {
  std::vector<StoredObject> objects = RandomObjects(93, 300, 25, 5);
  DatabaseOptions build_options;
  build_options.tree_options.capacity_override = 8;
  build_options.ir2_signature = SignatureConfig{128, 3};
  auto built = SpatialKeywordDatabase::Build(objects, build_options).value();
  const std::string db_dir = directory_ + "/batch_db";
  ASSERT_TRUE(built->Save(db_dir).ok());

  auto db = SpatialKeywordDatabase::Open(db_dir).value();
  ASSERT_TRUE(db->options().cold_queries);
  ASSERT_FALSE(db->options().prefetch);

  WorkloadConfig config;
  config.seed = 94;
  config.num_queries = 24;
  config.num_keywords = 2;
  config.k = 5;
  std::vector<DistanceFirstQuery> queries =
      GenerateWorkload(objects, db->tokenizer(), config);

  BatchExecutorOptions options;
  options.num_threads = 4;
  options.algorithm = Algorithm::kIr2;
  BatchResults reference = BatchExecutor(built.get(), options).Run(queries)
                               .value();
  BatchResults batch = BatchExecutor(db.get(), options).Run(queries).value();
  ASSERT_EQ(batch.results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(batch.results[i].size(), reference.results[i].size())
        << "query " << i;
    for (size_t r = 0; r < batch.results[i].size(); ++r) {
      EXPECT_EQ(batch.results[i][r].ref, reference.results[i][r].ref)
          << "query " << i << " rank " << r;
      EXPECT_EQ(batch.results[i][r].distance, reference.results[i][r].distance)
          << "query " << i << " rank " << r;
    }
    EXPECT_EQ(batch.per_query[i].io, reference.per_query[i].io)
        << "query " << i;
    EXPECT_EQ(batch.per_query[i].simulated_disk_ms,
              reference.per_query[i].simulated_disk_ms)
        << "query " << i;
  }
}

}  // namespace
}  // namespace ir2
