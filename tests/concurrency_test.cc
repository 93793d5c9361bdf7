// Thread-safety smoke tests, written to run under -DIR2_SANITIZE=thread
// (scripts/check.sh builds and runs them that way). The assertions are
// deliberately simple — the point is to drive the sharded pool, the
// per-thread I/O accounting and the BatchExecutor hard enough that TSan
// sees every lock/atomic interaction.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/batch_executor.h"
#include "core/database.h"
#include "datagen/workload.h"
#include "rtree/node_cache.h"
#include "serving/sharded_database.h"
#include "storage/block_device.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

constexpr size_t kThreads = 8;

// Deterministic block content: every writer writes the same f(id), so a
// reader must observe exactly f(id) no matter how operations interleave.
uint8_t BlockByte(BlockId id, size_t offset) {
  return static_cast<uint8_t>(id * 131 + offset * 7 + 3);
}

std::vector<uint8_t> BlockContent(BlockId id, size_t block_size) {
  std::vector<uint8_t> data(block_size);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = BlockByte(id, i);
  }
  return data;
}

TEST(ConcurrencyTest, ShardedPoolHammer) {
  constexpr size_t kBlockSize = 512;
  constexpr BlockId kBlocks = 256;
  constexpr int kOpsPerThread = 4000;

  MemoryBlockDevice device(kBlockSize);
  (void)device.Allocate(kBlocks).value();
  BufferPool pool(&device, /*capacity_blocks=*/64, /*num_shards=*/8);
  for (BlockId id = 0; id < kBlocks; ++id) {
    ASSERT_TRUE(device.Write(id, BlockContent(id, kBlockSize)).ok());
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(t + 1);
      std::vector<uint8_t> buf(kBlockSize);
      for (int op = 0; op < kOpsPerThread && !failed; ++op) {
        const BlockId id = rng.NextUint64(kBlocks);
        switch (rng.NextUint64(8)) {
          case 0:  // Rewrite (same deterministic content).
            if (!pool.Write(id, BlockContent(id, kBlockSize)).ok()) {
              failed = true;
            }
            break;
          case 1:  // Periodic flush from a worker thread.
            if (!pool.FlushAll().ok()) failed = true;
            break;
          default:  // Mostly reads, verified byte-for-byte.
            if (!pool.Read(id, buf).ok()) {
              failed = true;
              break;
            }
            for (size_t i = 0; i < buf.size(); i += 61) {
              if (buf[i] != BlockByte(id, i)) {
                failed = true;
                break;
              }
            }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());

  // After a final flush every device block holds its content.
  ASSERT_TRUE(pool.FlushAll().ok());
  std::vector<uint8_t> buf(kBlockSize);
  for (BlockId id = 0; id < kBlocks; ++id) {
    ASSERT_TRUE(device.Read(id, buf).ok());
    EXPECT_EQ(buf, BlockContent(id, kBlockSize)) << "block " << id;
  }
  // Accounting is exact: every pool miss/eviction turned into device I/O,
  // and the counters were never torn by concurrent updates.
  BufferPoolStats stats = pool.Stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

TEST(ConcurrencyTest, DeviceStatsExactUnderContention) {
  constexpr size_t kBlockSize = 512;
  constexpr int kReadsPerThread = 2000;
  MemoryBlockDevice device(kBlockSize);
  (void)device.Allocate(64).value();
  device.ResetStats();

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(100 + t);
      std::vector<uint8_t> buf(kBlockSize);
      for (int i = 0; i < kReadsPerThread; ++i) {
        ASSERT_TRUE(device.Read(rng.NextUint64(64), buf).ok());
      }
      EXPECT_EQ(device.thread_stats().TotalReads(),
                static_cast<uint64_t>(kReadsPerThread));
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(device.stats().TotalReads(),
            static_cast<uint64_t>(kThreads * kReadsPerThread));
  EXPECT_EQ(device.stats().TotalWrites(), 0u);
}

TEST(ConcurrencyTest, BatchExecutorHammer) {
  std::vector<StoredObject> objects =
      testing_util::RandomObjects(31, 300, 25, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 8;
  options.ir2_signature = SignatureConfig{128, 3};
  auto db = SpatialKeywordDatabase::Build(objects, options).value();

  WorkloadConfig config;
  config.seed = 5;
  config.num_queries = 64;
  config.num_keywords = 2;
  config.k = 5;
  std::vector<DistanceFirstQuery> queries =
      GenerateWorkload(objects, db->tokenizer(), config);

  BatchExecutorOptions exec_options;
  exec_options.num_threads = kThreads;
  exec_options.algorithm = Algorithm::kIr2;
  BatchExecutor executor(db.get(), exec_options);
  // Repeat to re-cross thread creation/teardown and TLS reuse paths.
  for (int round = 0; round < 3; ++round) {
    BatchResults batch = executor.Run(queries).value();
    ASSERT_EQ(batch.results.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_GT(batch.per_query[i].io.TotalAccesses(), 0u);
    }
  }
}

// The warm serving configuration under maximum contention: every worker
// reads through one shared NodeCache (sharded mutexes, shared_ptr handout)
// with hot worker pools, and all workers compare their results against a
// serial reference. Run under TSan by scripts/check.sh.
TEST(ConcurrencyTest, BatchExecutorWithNodeCacheHammer) {
  std::vector<StoredObject> objects =
      testing_util::RandomObjects(31, 300, 25, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 8;
  options.ir2_signature = SignatureConfig{128, 3};
  options.cold_queries = false;
  auto db = SpatialKeywordDatabase::Build(objects, options).value();

  WorkloadConfig config;
  config.seed = 5;
  config.num_queries = 64;
  config.num_keywords = 2;
  config.k = 5;
  std::vector<DistanceFirstQuery> queries =
      GenerateWorkload(objects, db->tokenizer(), config);

  // Serial uncached reference results.
  std::vector<std::vector<uint32_t>> expected;
  for (const DistanceFirstQuery& query : queries) {
    expected.push_back(testing_util::ResultIds(db->QueryIr2(query).value()));
  }

  NodeCacheOptions cache_options;
  cache_options.capacity_nodes = 64;  // Small: force concurrent eviction.
  cache_options.num_shards = 4;
  cache_options.pin_min_level = 2;
  NodeCache cache(cache_options);
  db->ir2_tree()->SetNodeCache(&cache);

  // Warm (the database's cold_queries is off): caches stay hot across
  // queries.
  BatchExecutorOptions exec_options;
  exec_options.num_threads = kThreads;
  exec_options.algorithm = Algorithm::kIr2;
  BatchExecutor executor(db.get(), exec_options);
  for (int round = 0; round < 3; ++round) {
    BatchResults batch = executor.Run(queries).value();
    ASSERT_EQ(batch.results.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(testing_util::ResultIds(batch.results[i]), expected[i])
          << "round " << round << " query " << i;
    }
  }
  EXPECT_GT(cache.Stats().hits, 0u);
  db->ir2_tree()->SetNodeCache(nullptr);
}

// Two tiers build at once, each on its own shard workers, while a third,
// already built, serves queries on two threads. A build touches
// process-wide state that the serving threads touch too: the metrics
// registry, the device-id counter, each device's per-thread I/O registry
// and the kernel dispatch table. Run under TSan by scripts/check.sh.
TEST(ConcurrencyTest, TierBuildsWhileATierServes) {
  std::vector<StoredObject> objects =
      testing_util::RandomObjects(41, 400, 25, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 8;
  options.ir2_signature = SignatureConfig{128, 3};
  options.cold_queries = false;
  serving::ShardingOptions sharding;
  sharding.num_shards = 4;
  auto serving_tier =
      serving::ShardedDatabase::Build(objects, options, sharding).value();

  WorkloadConfig config;
  config.seed = 9;
  config.num_queries = 32;
  config.num_keywords = 2;
  config.k = 5;
  std::vector<DistanceFirstQuery> queries =
      GenerateWorkload(objects, serving_tier->shard(0)->tokenizer(), config);
  std::vector<std::vector<uint32_t>> expected;
  for (const DistanceFirstQuery& query : queries) {
    expected.push_back(
        testing_util::ResultIds(serving_tier->Query(query).value()));
  }

  std::atomic<int> builds_running{2};
  std::atomic<size_t> mismatches{0};
  std::vector<std::unique_ptr<serving::ShardedDatabase>> built(2);
  std::vector<std::thread> threads;
  for (size_t b = 0; b < built.size(); ++b) {
    threads.emplace_back([&, b]() {
      auto tier = serving::ShardedDatabase::Build(objects, options, sharding);
      if (tier.ok()) built[b] = std::move(tier).value();
      builds_running.fetch_sub(1);
    });
  }
  for (int reader = 0; reader < 2; ++reader) {
    threads.emplace_back([&]() {
      // At least one full pass, then keep serving until both builds end.
      do {
        for (size_t i = 0; i < queries.size(); ++i) {
          auto results = serving_tier->Query(queries[i]);
          if (!results.ok() ||
              testing_util::ResultIds(results.value()) != expected[i]) {
            mismatches.fetch_add(1);
          }
        }
      } while (builds_running.load() > 0);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  for (const auto& tier : built) {
    ASSERT_NE(tier, nullptr);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(testing_util::ResultIds(tier->Query(queries[i]).value()),
                expected[i])
          << "query " << i;
    }
  }
}

// Two all-structure databases build at once, each running its structure
// tasks on helper threads, while a third, already built, serves queries on
// two threads. The structure tasks of one build share the corpus, the
// object store and the KC vocabulary read-only, and each fills only its own
// slot. Run under TSan by scripts/check.sh.
TEST(ConcurrencyTest, DatabaseBuildsWhileADatabaseServes) {
  std::vector<StoredObject> objects =
      testing_util::RandomObjects(43, 400, 25, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 8;
  options.ir2_signature = SignatureConfig{128, 3};
  options.cold_queries = false;
  auto serving_db = SpatialKeywordDatabase::Build(objects, options).value();

  WorkloadConfig config;
  config.seed = 11;
  config.num_queries = 32;
  config.num_keywords = 2;
  config.k = 5;
  std::vector<DistanceFirstQuery> queries =
      GenerateWorkload(objects, serving_db->tokenizer(), config);
  std::vector<std::vector<uint32_t>> expected;
  for (const DistanceFirstQuery& query : queries) {
    expected.push_back(testing_util::ResultIds(
        serving_db->Query(query, Algorithm::kIr2).value()));
  }

  std::atomic<int> builds_running{2};
  std::atomic<size_t> mismatches{0};
  std::vector<std::unique_ptr<SpatialKeywordDatabase>> built(2);
  std::vector<std::thread> threads;
  for (size_t b = 0; b < built.size(); ++b) {
    threads.emplace_back([&, b]() {
      auto db = SpatialKeywordDatabase::Build(objects, options);
      if (db.ok()) built[b] = std::move(db).value();
      builds_running.fetch_sub(1);
    });
  }
  for (int reader = 0; reader < 2; ++reader) {
    threads.emplace_back([&]() {
      // At least one full pass, then keep serving until both builds end.
      do {
        for (size_t i = 0; i < queries.size(); ++i) {
          auto results = serving_db->Query(queries[i], Algorithm::kIr2);
          if (!results.ok() ||
              testing_util::ResultIds(results.value()) != expected[i]) {
            mismatches.fetch_add(1);
          }
        }
      } while (builds_running.load() > 0);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  for (const auto& db : built) {
    ASSERT_NE(db, nullptr);
    for (size_t i = 0; i < queries.size(); ++i) {
      for (Algorithm algo : {Algorithm::kRTree, Algorithm::kIio,
                             Algorithm::kIr2, Algorithm::kMir2,
                             Algorithm::kKcTree}) {
        EXPECT_EQ(testing_util::ResultIds(db->Query(queries[i], algo).value()),
                  expected[i])
            << "query " << i << ", " << AlgorithmName(algo);
      }
    }
  }
}

}  // namespace
}  // namespace ir2
