#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "core/ir2_search.h"
#include "core/ir2_tree.h"
#include "rtree/incremental_nn.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/object_store.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

// Device wrapper that starts failing reads and/or writes after a given
// number of operations — exercises the Status propagation paths that
// healthy-disk tests never reach. No IR2_CHECK may fire: I/O failure is a
// runtime error, not a programmer error.
class FlakyBlockDevice final : public BlockDevice {
 public:
  explicit FlakyBlockDevice(size_t block_size = kDefaultBlockSize)
      : BlockDevice(block_size), inner_(block_size) {}

  void FailReadsAfter(uint64_t n) { reads_until_failure_ = n; }
  void FailWritesAfter(uint64_t n) { writes_until_failure_ = n; }
  void Heal() {
    reads_until_failure_ = ~0ull;
    writes_until_failure_ = ~0ull;
  }

  uint64_t NumBlocks() const override { return inner_.NumBlocks(); }
  StatusOr<BlockId> Allocate(uint32_t count) override {
    return inner_.Allocate(count);
  }

 protected:
  Status ReadImpl(BlockId id, std::span<uint8_t> out) override {
    if (reads_until_failure_ == 0) {
      return Status::IoError("injected read failure");
    }
    --reads_until_failure_;
    return inner_.Read(id, out);
  }
  Status WriteImpl(BlockId id, std::span<const uint8_t> data) override {
    if (writes_until_failure_ == 0) {
      return Status::IoError("injected write failure");
    }
    --writes_until_failure_;
    return inner_.Write(id, data);
  }

 private:
  MemoryBlockDevice inner_;
  uint64_t reads_until_failure_ = ~0ull;
  uint64_t writes_until_failure_ = ~0ull;
};

TEST(FailureInjectionTest, TreeInsertSurfacesWriteErrors) {
  FlakyBlockDevice device;
  BufferPool pool(&device, 0);  // No caching: every write hits the device.
  RTreeOptions options;
  options.capacity_override = 4;
  RTree tree(&pool, options);
  ASSERT_TRUE(tree.Init().ok());

  Rng rng(1);
  device.FailWritesAfter(25);
  Status last = Status::Ok();
  for (int i = 0; i < 100 && last.ok(); ++i) {
    last = tree.Insert(
        i, Rect::ForPoint(Point(rng.NextDouble(0, 100),
                                rng.NextDouble(0, 100))));
  }
  EXPECT_EQ(last.code(), StatusCode::kIoError);
}

TEST(FailureInjectionTest, NNCursorSurfacesReadErrors) {
  FlakyBlockDevice device;
  BufferPool pool(&device, 0);
  RTreeOptions options;
  options.capacity_override = 4;
  RTree tree(&pool, options);
  ASSERT_TRUE(tree.Init().ok());
  Rng rng(2);
  std::vector<Point> points;
  for (int i = 0; i < 60; ++i) {
    points.emplace_back(rng.NextDouble(0, 100), rng.NextDouble(0, 100));
    ASSERT_TRUE(tree.Insert(i, Rect::ForPoint(points.back())).ok());
  }

  device.FailReadsAfter(2);
  IncrementalNNCursor cursor(&tree, Point(50, 50));
  bool saw_error = false;
  for (int i = 0; i < 60; ++i) {
    auto next = cursor.Next();
    if (!next.ok()) {
      EXPECT_EQ(next.status().code(), StatusCode::kIoError);
      saw_error = true;
      break;
    }
    if (!next.value().has_value()) break;
  }
  EXPECT_TRUE(saw_error);
}

TEST(FailureInjectionTest, ObjectStoreSurfacesReadErrors) {
  FlakyBlockDevice device;
  ObjectStoreWriter writer(&device);
  StoredObject object;
  object.id = 1;
  object.coords = {1, 2};
  object.text = "some text";
  ObjectRef ref = writer.Append(object).value();
  ASSERT_TRUE(writer.Finish().ok());
  ObjectStore store(&device, writer.bytes_written());

  device.FailReadsAfter(0);
  StatusOr<StoredObject> loaded = store.Load(ref);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);

  device.Heal();
  EXPECT_TRUE(store.Load(ref).ok());
}

TEST(FailureInjectionTest, Ir2SearchSurfacesMidQueryErrors) {
  // Build a working IR2-Tree + object store on flaky devices, then make the
  // object device fail partway through a query.
  FlakyBlockDevice object_device;
  FlakyBlockDevice tree_device;
  ObjectStoreWriter writer(&object_device);
  std::vector<StoredObject> objects =
      testing_util::RandomObjects(3, 100, 10, 4);
  std::vector<ObjectRef> refs;
  for (const StoredObject& object : objects) {
    refs.push_back(writer.Append(object).value());
  }
  ASSERT_TRUE(writer.Finish().ok());
  ObjectStore store(&object_device, writer.bytes_written());

  BufferPool pool(&tree_device, 1024);
  RTreeOptions options;
  options.capacity_override = 4;
  Tokenizer tokenizer;
  Ir2Tree tree(&pool, options, SignatureConfig{64, 3});
  ASSERT_TRUE(tree.Init().ok());
  for (size_t i = 0; i < objects.size(); ++i) {
    std::vector<std::string> words = tokenizer.DistinctTokens(objects[i].text);
    ASSERT_TRUE(tree.InsertObject(refs[i],
                                  Rect::ForPoint(Point(objects[i].coords)),
                                  testing_util::HashWords(words))
                    .ok());
  }

  object_device.FailReadsAfter(3);
  DistanceFirstQuery query;
  query.point = Point(500, 500);
  query.keywords = {};
  query.k = 50;  // Forces many object loads.
  StatusOr<std::vector<QueryResult>> results =
      Ir2TopK(tree, store, tokenizer, query);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kIoError);
}

TEST(FailureInjectionTest, BufferPoolEvictionPropagatesWriteFailure) {
  FlakyBlockDevice device;
  (void)device.Allocate(8).value();
  BufferPool pool(&device, 2);
  std::vector<uint8_t> data(device.block_size(), 0x7f);
  device.FailWritesAfter(0);
  ASSERT_TRUE(pool.Write(0, data).ok());  // Cached, no device write yet.
  ASSERT_TRUE(pool.Write(1, data).ok());
  // Third write evicts a dirty page -> the injected failure surfaces.
  EXPECT_EQ(pool.Write(2, data).code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace ir2
