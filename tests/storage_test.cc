#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>

#include "common/random.h"
#include "storage/block_device.h"
#include "storage/buffer_pool.h"
#include "storage/object_store.h"
#include "storage/serializer.h"

namespace ir2 {
namespace {

TEST(SerializerTest, RoundTripAllWidths) {
  std::vector<uint8_t> buffer(64);
  BufferWriter writer(buffer);
  writer.PutU8(0xab);
  writer.PutU16(0xbeef);
  writer.PutU32(0xdeadbeef);
  writer.PutU64(0x0123456789abcdefULL);
  writer.PutDouble(-1234.5e-6);
  BufferReader reader(buffer);
  EXPECT_EQ(reader.GetU8(), 0xab);
  EXPECT_EQ(reader.GetU16(), 0xbeef);
  EXPECT_EQ(reader.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(reader.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.GetDouble(), -1234.5e-6);
}

TEST(SerializerTest, LittleEndianOnDisk) {
  uint8_t buf[4];
  EncodeU32(0x01020304u, buf);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(MemoryBlockDeviceTest, AllocateReadWrite) {
  MemoryBlockDevice device(512);
  EXPECT_EQ(device.NumBlocks(), 0u);
  BlockId id = device.Allocate(3).value();
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(device.NumBlocks(), 3u);

  std::vector<uint8_t> data(512, 0x5a);
  ASSERT_TRUE(device.Write(1, data).ok());
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(device.Read(1, out).ok());
  EXPECT_EQ(out, data);
  // Fresh blocks are zero-filled.
  ASSERT_TRUE(device.Read(2, out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(512, 0));
}

TEST(MemoryBlockDeviceTest, BoundsAndSizeChecks) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(1).value();
  std::vector<uint8_t> wrong(256);
  EXPECT_EQ(device.Read(0, wrong).code(), StatusCode::kInvalidArgument);
  std::vector<uint8_t> right(512);
  EXPECT_EQ(device.Read(5, right).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(device.Write(5, right).code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(device.Allocate(0).ok());
}

TEST(MemoryBlockDeviceTest, RandomVsSequentialAccounting) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(10).value();
  std::vector<uint8_t> buf(512);
  // 0 (random), 1, 2 (sequential), 7 (random), 8 (sequential), 8 (random:
  // re-read of the same block is a seek back).
  for (BlockId id : {0, 1, 2, 7, 8, 8}) {
    ASSERT_TRUE(device.Read(id, buf).ok());
  }
  EXPECT_EQ(device.stats().random_reads, 3u);
  EXPECT_EQ(device.stats().sequential_reads, 3u);

  for (BlockId id : {3, 4, 0}) {
    ASSERT_TRUE(device.Write(id, buf).ok());
  }
  EXPECT_EQ(device.stats().random_writes, 2u);
  EXPECT_EQ(device.stats().sequential_writes, 1u);
}

TEST(MemoryBlockDeviceTest, ResetStatsForgetsCursor) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(4).value();
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(device.Read(0, buf).ok());
  ASSERT_TRUE(device.Read(1, buf).ok());
  device.ResetStats();
  // Block 2 would be sequential after 1; after reset it must count random.
  ASSERT_TRUE(device.Read(2, buf).ok());
  EXPECT_EQ(device.stats().random_reads, 1u);
  EXPECT_EQ(device.stats().sequential_reads, 0u);
}

TEST(IoStatsTest, Arithmetic) {
  IoStats a{10, 20, 3, 4};
  IoStats b{1, 2, 3, 4};
  IoStats sum = a + b;
  EXPECT_EQ(sum.random_reads, 11u);
  EXPECT_EQ(sum.TotalReads(), 33u);
  IoStats diff = sum - b;
  EXPECT_EQ(diff.random_reads, a.random_reads);
  EXPECT_EQ(diff.TotalAccesses(), a.TotalAccesses());
}

TEST(FileBlockDeviceTest, PersistsAcrossReopen) {
  std::string path = ::testing::TempDir() + "/ir2_file_device_test.bin";
  {
    auto device = FileBlockDevice::Create(path, 512).value();
    (void)device->Allocate(2).value();
    std::vector<uint8_t> data(512);
    for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i * 7);
    ASSERT_TRUE(device->Write(1, data).ok());
  }
  {
    auto device = FileBlockDevice::Open(path, 512).value();
    EXPECT_EQ(device->NumBlocks(), 2u);
    std::vector<uint8_t> out(512);
    ASSERT_TRUE(device->Read(1, out).ok());
    EXPECT_EQ(out[511], uint8_t(511 * 7));
  }
  std::remove(path.c_str());
}

TEST(BufferPoolTest, CachesReads) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(4).value();
  BufferPool pool(&device, 8);
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(pool.Read(0, buf).ok());
  ASSERT_TRUE(pool.Read(0, buf).ok());
  ASSERT_TRUE(pool.Read(0, buf).ok());
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(device.stats().TotalReads(), 1u);
}

TEST(BufferPoolTest, WriteBackOnlyOnEvictionOrFlush) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(4).value();
  BufferPool pool(&device, 8);
  std::vector<uint8_t> data(512, 0x11);
  ASSERT_TRUE(pool.Write(2, data).ok());
  ASSERT_TRUE(pool.Write(2, data).ok());
  EXPECT_EQ(device.stats().TotalWrites(), 0u);  // Still buffered.
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(device.stats().TotalWrites(), 1u);
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(device.Read(2, out).ok());
  EXPECT_EQ(out, data);
}

TEST(BufferPoolTest, EvictionWritesDirtyVictims) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(8).value();
  BufferPool pool(&device, 2);
  std::vector<uint8_t> data(512, 0x22);
  ASSERT_TRUE(pool.Write(0, data).ok());
  ASSERT_TRUE(pool.Write(1, data).ok());
  ASSERT_TRUE(pool.Write(2, data).ok());  // Evicts block 0.
  EXPECT_EQ(device.stats().TotalWrites(), 1u);
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(device.Read(0, out).ok());
  EXPECT_EQ(out, data);
}

TEST(BufferPoolTest, LruOrderKeepsHotPages) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(8).value();
  BufferPool pool(&device, 2);
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(pool.Read(0, buf).ok());
  ASSERT_TRUE(pool.Read(1, buf).ok());
  ASSERT_TRUE(pool.Read(0, buf).ok());  // 0 is now MRU.
  ASSERT_TRUE(pool.Read(2, buf).ok());  // Evicts 1, not 0.
  device.ResetStats();
  ASSERT_TRUE(pool.Read(0, buf).ok());
  EXPECT_EQ(device.stats().TotalReads(), 0u);  // Still cached.
  ASSERT_TRUE(pool.Read(1, buf).ok());
  EXPECT_EQ(device.stats().TotalReads(), 1u);  // Was evicted.
}

TEST(BufferPoolTest, ClearMakesNextAccessCold) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(2).value();
  BufferPool pool(&device, 8);
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(pool.Read(0, buf).ok());
  ASSERT_TRUE(pool.Clear().ok());
  device.ResetStats();
  ASSERT_TRUE(pool.Read(0, buf).ok());
  EXPECT_EQ(device.stats().TotalReads(), 1u);
}

TEST(BufferPoolTest, ZeroCapacityBypassesCache) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(2).value();
  BufferPool pool(&device, 0);
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(pool.Read(0, buf).ok());
  ASSERT_TRUE(pool.Read(0, buf).ok());
  EXPECT_EQ(device.stats().TotalReads(), 2u);
}

TEST(BufferPoolTest, StatsCountEvictions) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(8).value();
  BufferPool pool(&device, 2);
  std::vector<uint8_t> buf(512);
  for (BlockId id : {0, 1, 2, 3}) {
    ASSERT_TRUE(pool.Read(id, buf).ok());
  }
  BufferPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);  // Blocks 0 and 1 were pushed out.
}

TEST(BufferPoolTest, ClearResetsStats) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(8).value();
  BufferPool pool(&device, 2);
  std::vector<uint8_t> buf(512);
  for (BlockId id : {0, 0, 1, 2}) {
    ASSERT_TRUE(pool.Read(id, buf).ok());
  }
  EXPECT_GT(pool.Stats().hits + pool.Stats().misses, 0u);
  ASSERT_TRUE(pool.Clear().ok());
  BufferPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(BufferPoolTest, AutoShardPolicyKeepsSmallPoolsUnsharded) {
  MemoryBlockDevice device(512);
  EXPECT_EQ(BufferPool(&device, 8).num_shards(), 1u);
  EXPECT_EQ(BufferPool(&device, 63).num_shards(), 1u);
  EXPECT_EQ(BufferPool(&device, 128).num_shards(), 2u);
  EXPECT_EQ(BufferPool(&device, 1 << 16).num_shards(), 16u);
  EXPECT_EQ(BufferPool(&device, 0).num_shards(), 0u);  // Bypass mode.
  // Explicit shard counts are honored but never exceed the capacity.
  EXPECT_EQ(BufferPool(&device, 8, /*num_shards=*/4).num_shards(), 4u);
  EXPECT_EQ(BufferPool(&device, 2, /*num_shards=*/4).num_shards(), 2u);
}

TEST(BufferPoolTest, ShardedPoolCachesAndWritesBack) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(64).value();
  // Each shard's capacity (256 / 4) can hold every block, so nothing is
  // evicted no matter how the hash distributes the 64 blocks over shards.
  BufferPool pool(&device, 256, /*num_shards=*/4);
  ASSERT_EQ(pool.num_shards(), 4u);
  std::vector<uint8_t> data(512);
  for (BlockId id = 0; id < 64; ++id) {
    std::fill(data.begin(), data.end(), static_cast<uint8_t>(id * 3 + 1));
    ASSERT_TRUE(pool.Write(id, data).ok());
  }
  EXPECT_EQ(device.stats().TotalWrites(), 0u);  // All still buffered.
  std::vector<uint8_t> out(512);
  for (BlockId id = 0; id < 64; ++id) {
    ASSERT_TRUE(pool.Read(id, out).ok());
    EXPECT_EQ(out[0], static_cast<uint8_t>(id * 3 + 1));
  }
  EXPECT_EQ(pool.Stats().hits, 64u);  // Reads served from the shards.
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(device.stats().TotalWrites(), 64u);
  for (BlockId id = 0; id < 64; ++id) {
    ASSERT_TRUE(device.Read(id, out).ok());
    EXPECT_EQ(out[0], static_cast<uint8_t>(id * 3 + 1));
  }
}

TEST(BlockDeviceTest, ThreadStatsAttributePerThread) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(16).value();
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(device.Read(0, buf).ok());

  IoStats other_thread;
  std::thread worker([&device, &other_thread]() {
    std::vector<uint8_t> local(512);
    for (BlockId id : {5, 6, 7}) {
      ASSERT_TRUE(device.Read(id, local).ok());
    }
    other_thread = device.thread_stats();
  });
  worker.join();

  // The worker saw only its own 3 reads (1 random + 2 sequential) ...
  EXPECT_EQ(other_thread.random_reads, 1u);
  EXPECT_EQ(other_thread.sequential_reads, 2u);
  // ... this thread only its own 1, and the aggregate sees all 4.
  EXPECT_EQ(device.thread_stats().TotalReads(), 1u);
  EXPECT_EQ(device.stats().TotalReads(), 4u);
}

TEST(BlockDeviceTest, ThreadCursorsClassifyIndependently) {
  MemoryBlockDevice device(512);
  (void)device.Allocate(16).value();
  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(device.Read(4, buf).ok());
  // Another thread reading block 5 is NOT sequential: its own cursor is
  // fresh, so interleaved workers can't corrupt each other's access
  // pattern classification.
  std::thread worker([&device]() {
    std::vector<uint8_t> local(512);
    ASSERT_TRUE(device.Read(5, local).ok());
    EXPECT_EQ(device.thread_stats().random_reads, 1u);
    EXPECT_EQ(device.thread_stats().sequential_reads, 0u);
  });
  worker.join();
  // On this thread 5 would have been sequential after 4; cursor reset makes
  // it random again — the per-query cold-start contract.
  device.ResetThreadCursor();
  ASSERT_TRUE(device.Read(5, buf).ok());
  EXPECT_EQ(device.thread_stats().random_reads, 2u);
  EXPECT_EQ(device.thread_stats().sequential_reads, 0u);
}

TEST(BlockDeviceTest, ThreadCursorIsolation) {
  // The layered contract behind per-query cold starts and prefetch
  // accounting (block_device.h): one ResetThreadCursor on a BufferPool
  // restores the calling thread's whole stack — pool-level logical cursor
  // AND backing-device physical cursor — while a background thread's long
  // sequential sweep neither donates sequential credit to this thread nor
  // loses its own to the reset.
  MemoryBlockDevice device(512);
  (void)device.Allocate(32).value();
  BufferPool pool(&device, /*capacity_blocks=*/0);  // Bypass: both levels hit.

  std::vector<uint8_t> buf(512);
  ASSERT_TRUE(pool.Read(10, buf).ok());
  ASSERT_TRUE(pool.Read(11, buf).ok());
  EXPECT_EQ(pool.thread_stats().sequential_reads, 1u);
  EXPECT_EQ(device.thread_stats().sequential_reads, 1u);

  // A "prefetch" thread sweeps right past this thread's cursor position.
  std::thread sweeper([&pool]() {
    std::vector<uint8_t> local(512);
    for (BlockId id = 8; id < 16; ++id) {
      ASSERT_TRUE(pool.Read(id, local).ok());
    }
    EXPECT_EQ(pool.thread_stats().random_reads, 1u);
    EXPECT_EQ(pool.thread_stats().sequential_reads, 7u);
  });
  sweeper.join();

  // The sweep ended at block 15, but this thread's cursors still sit at 11:
  // reading 12 stays sequential for *this* thread at both levels.
  ASSERT_TRUE(pool.Read(12, buf).ok());
  EXPECT_EQ(pool.thread_stats().sequential_reads, 2u);
  EXPECT_EQ(device.thread_stats().sequential_reads, 2u);

  // One pool-level reset cascades to the device: the next read is random
  // end to end even though it is adjacent to the last one.
  pool.ResetThreadCursor();
  ASSERT_TRUE(pool.Read(13, buf).ok());
  EXPECT_EQ(pool.thread_stats().random_reads, 2u);
  EXPECT_EQ(device.thread_stats().random_reads, 2u);
  EXPECT_EQ(pool.thread_stats().sequential_reads, 2u);
  EXPECT_EQ(device.thread_stats().sequential_reads, 2u);
}

StoredObject MakeObject(uint32_t id, double x, double y, std::string text) {
  StoredObject object;
  object.id = id;
  object.coords = {x, y};
  object.text = std::move(text);
  return object;
}

TEST(ObjectStoreTest, RoundTripSmallObjects) {
  MemoryBlockDevice device;
  ObjectStoreWriter writer(&device);
  ObjectRef r1 = writer.Append(MakeObject(1, 25.4, -80.1, "spa internet")).value();
  ObjectRef r2 = writer.Append(MakeObject(2, 47.3, -122.2, "pool golf")).value();
  ASSERT_TRUE(writer.Finish().ok());

  ObjectStore store(&device, writer.bytes_written());
  StoredObject a = store.Load(r1).value();
  EXPECT_EQ(a.id, 1u);
  EXPECT_EQ(a.coords, (std::vector<double>{25.4, -80.1}));
  EXPECT_EQ(a.text, "spa internet");
  StoredObject b = store.Load(r2).value();
  EXPECT_EQ(b.id, 2u);
  EXPECT_EQ(b.text, "pool golf");
}

TEST(ObjectStoreTest, SanitizesTabsAndNewlines) {
  MemoryBlockDevice device;
  ObjectStoreWriter writer(&device);
  ObjectRef r = writer.Append(MakeObject(9, 1, 2, "a\tb\nc")).value();
  ASSERT_TRUE(writer.Finish().ok());
  ObjectStore store(&device, writer.bytes_written());
  EXPECT_EQ(store.Load(r).value().text, "a b c");
}

TEST(ObjectStoreTest, MultiBlockRecordCostsSequentialReads) {
  MemoryBlockDevice device;  // 4096-byte blocks.
  ObjectStoreWriter writer(&device);
  std::string big_text(10000, 'x');
  ObjectRef r = writer.Append(MakeObject(1, 0, 0, big_text)).value();
  ASSERT_TRUE(writer.Finish().ok());
  ObjectStore store(&device, writer.bytes_written());
  device.ResetStats();
  StoredObject object = store.Load(r).value();
  EXPECT_EQ(object.text, big_text);
  // Record spans 3 blocks: 1 random + 2 sequential reads.
  EXPECT_EQ(device.stats().random_reads, 1u);
  EXPECT_EQ(device.stats().sequential_reads, 2u);
}

TEST(ObjectStoreTest, HighPrecisionCoordinatesSurvive) {
  MemoryBlockDevice device;
  ObjectStoreWriter writer(&device);
  double x = 25.40000000000001, y = -0.1234567890123456;
  ObjectRef r = writer.Append(MakeObject(1, x, y, "t")).value();
  ASSERT_TRUE(writer.Finish().ok());
  ObjectStore store(&device, writer.bytes_written());
  StoredObject object = store.Load(r).value();
  EXPECT_EQ(object.coords[0], x);
  EXPECT_EQ(object.coords[1], y);
}

// Every double the writer's %.17g emits parses back to the same bits:
// random bit patterns (all exponents, subnormals included) plus -0.0, the
// subnormal and normal extremes, +-1e308 and the infinities.
TEST(ObjectStoreTest, CoordinatesRoundTripBitExact) {
  std::vector<double> values = {
      -0.0, 0.0, 1e308, -1e308, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  Rng rng(42);
  while (values.size() < 4000) {
    const double v = std::bit_cast<double>(rng.NextUint64());
    if (!std::isnan(v)) values.push_back(v);
  }
  MemoryBlockDevice device;
  ObjectStoreWriter writer(&device);
  std::vector<ObjectRef> refs;
  for (size_t i = 0; i + 1 < values.size(); i += 2) {
    refs.push_back(writer
                       .Append(MakeObject(static_cast<uint32_t>(i), values[i],
                                          values[i + 1], "t"))
                       .value());
  }
  ASSERT_TRUE(writer.Finish().ok());
  ObjectStore store(&device, writer.bytes_written());
  for (size_t r = 0; r < refs.size(); ++r) {
    const StoredObject object = store.Load(refs[r]).value();
    ASSERT_EQ(object.coords.size(), 2u);
    for (size_t d = 0; d < 2; ++d) {
      EXPECT_EQ(std::bit_cast<uint64_t>(object.coords[d]),
                std::bit_cast<uint64_t>(values[2 * r + d]))
          << values[2 * r + d];
    }
  }
}

TEST(ObjectStoreTest, ForEachVisitsAllInOrder) {
  MemoryBlockDevice device;
  ObjectStoreWriter writer(&device);
  std::vector<ObjectRef> refs;
  for (uint32_t i = 0; i < 100; ++i) {
    refs.push_back(
        writer.Append(MakeObject(i, i, -double(i), "text" + std::to_string(i)))
            .value());
  }
  ASSERT_TRUE(writer.Finish().ok());
  ObjectStore store(&device, writer.bytes_written());
  uint32_t next = 0;
  ASSERT_TRUE(store
                  .ForEach([&](ObjectRef ref, const StoredObject& object) {
                    EXPECT_EQ(ref, refs[next]);
                    EXPECT_EQ(object.id, next);
                    ++next;
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_EQ(next, 100u);
}

TEST(ObjectStoreTest, LoadPastEndFails) {
  MemoryBlockDevice device;
  ObjectStoreWriter writer(&device);
  (void)writer.Append(MakeObject(1, 0, 0, "x")).value();
  ASSERT_TRUE(writer.Finish().ok());
  ObjectStore store(&device, writer.bytes_written());
  EXPECT_FALSE(store.Load(static_cast<ObjectRef>(writer.bytes_written())).ok());
}

// Many random objects across block boundaries: every ref loads back.
TEST(ObjectStoreTest, PropertyRandomRoundTrip) {
  Rng rng(4242);
  MemoryBlockDevice device;
  ObjectStoreWriter writer(&device);
  std::vector<StoredObject> objects;
  std::vector<ObjectRef> refs;
  for (uint32_t i = 0; i < 500; ++i) {
    std::string text;
    uint64_t words = 1 + rng.NextUint64(60);
    for (uint64_t w = 0; w < words; ++w) {
      text += "word" + std::to_string(rng.NextUint64(1000)) + " ";
    }
    StoredObject object =
        MakeObject(i, rng.NextDouble(-180, 180), rng.NextDouble(-90, 90),
                   text);
    refs.push_back(writer.Append(object).value());
    objects.push_back(std::move(object));
  }
  ASSERT_TRUE(writer.Finish().ok());
  ObjectStore store(&device, writer.bytes_written());
  for (size_t i = 0; i < refs.size(); ++i) {
    StoredObject loaded = store.Load(refs[i]).value();
    EXPECT_EQ(loaded.id, objects[i].id);
    EXPECT_EQ(loaded.coords, objects[i].coords);
    // Writer sanitizes trailing space difference? No: text preserved as-is.
    EXPECT_EQ(loaded.text, objects[i].text);
  }
}

}  // namespace
}  // namespace ir2
