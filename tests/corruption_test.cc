#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/ir2_search.h"
#include "core/ir2_tree.h"
#include "storage/buffer_pool.h"
#include "storage/object_store.h"
#include "tests/test_util.h"
#include "text/inverted_index.h"

namespace ir2 {
namespace {

// Fuzz-lite: flip random bytes in each structure's device and verify that
// every operation either succeeds (the flip may hit dead space) or returns
// a Status — never crashes or corrupts memory. Run under
// -DIR2_SANITIZE=address;undefined for full effect.

void FlipRandomByte(MemoryBlockDevice* device, Rng& rng) {
  if (device->NumBlocks() == 0) return;
  std::vector<uint8_t> block(device->block_size());
  BlockId id = rng.NextUint64(device->NumBlocks());
  IR2_CHECK_OK(device->Read(id, block));
  block[rng.NextUint64(block.size())] ^=
      static_cast<uint8_t>(1 + rng.NextUint64(255));
  IR2_CHECK_OK(device->Write(id, block));
}

TEST(CorruptionTest, ObjectStoreNeverCrashesOnCorruptRecords) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    MemoryBlockDevice device;
    ObjectStoreWriter writer(&device);
    std::vector<ObjectRef> refs;
    for (uint32_t i = 0; i < 20; ++i) {
      StoredObject object;
      object.id = i;
      object.coords = {double(i), double(-i)};
      object.text = "alpha beta gamma " + std::string(i * 13, 'x');
      refs.push_back(writer.Append(object).value());
    }
    IR2_CHECK_OK(writer.Finish());
    ObjectStore store(&device, writer.bytes_written());
    for (int flips = 0; flips < 4; ++flips) FlipRandomByte(&device, rng);
    for (ObjectRef ref : refs) {
      StatusOr<StoredObject> result = store.Load(ref);  // ok or error; no UB
      (void)result;
    }
    Status scan = store.ForEach(
        [](ObjectRef, const StoredObject&) { return Status::Ok(); });
    (void)scan;
  }
}

// Coordinate fields the writer never produces (it emits %.17g) come back
// as Corruption through both Load and ForEach: the parser takes no leading
// whitespace or '+', no hex, no trailing bytes and no out-of-range values.
TEST(CorruptionTest, ObjectStoreRejectsMalformedCoordinates) {
  const std::string kBad[] = {"",      " 1.5",   "+1.5", "1.5x", "1.5 ",
                              "0x1p3", "0X10",   "1e400", "-",   ".",
                              "1,5",   "nan(",   "--1",   "1e",  "\x01"};
  for (const std::string& coord : kBad) {
    for (const bool first : {true, false}) {
      const std::string row = "7\t2\t" + (first ? coord + "\t2.5"
                                                : "2.5\t" + coord) +
                              "\talpha beta\n";
      MemoryBlockDevice device;
      const BlockId id = device.Allocate(1).value();
      std::vector<uint8_t> block(device.block_size(), 0);
      std::copy(row.begin(), row.end(), block.begin());
      IR2_CHECK_OK(device.Write(id, block));
      ObjectStore store(&device, row.size());
      StatusOr<StoredObject> loaded = store.Load(0);
      ASSERT_FALSE(loaded.ok()) << "coord \"" << coord << "\"";
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << coord;
      Status scan = store.ForEach(
          [](ObjectRef, const StoredObject&) { return Status::Ok(); });
      EXPECT_EQ(scan.code(), StatusCode::kCorruption) << coord;
    }
  }
}

TEST(CorruptionTest, InvertedIndexNeverCrashesOnCorruptBlocks) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    MemoryBlockDevice device;
    InvertedIndexBuilder builder(&device);
    std::vector<std::string> texts;
    std::vector<ObjectRef> refs;
    for (uint32_t i = 0; i < 200; ++i) {
      texts.push_back("t" + std::to_string(i % 17) + " shared");
      refs.push_back(i * 11);
    }
    IR2_CHECK_OK(builder.Build(testing_util::CorpusOfTexts(texts), refs));
    for (int flips = 0; flips < 4; ++flips) FlipRandomByte(&device, rng);
    StatusOr<std::unique_ptr<InvertedIndex>> opened =
        InvertedIndex::Open(&device);
    if (!opened.ok()) continue;  // Corrupt superblock/dictionary: fine.
    for (int t = 0; t < 17; ++t) {
      StatusOr<std::vector<ObjectRef>> list =
          (*opened)->RetrieveList("t" + std::to_string(t));
      (void)list;
    }
  }
}

TEST(CorruptionTest, TreeSearchNeverCrashesOnCorruptNodes) {
  Rng rng(3);
  Tokenizer tokenizer;
  std::vector<StoredObject> objects = testing_util::RandomObjects(4, 80, 15, 4);
  for (int trial = 0; trial < 40; ++trial) {
    MemoryBlockDevice object_device, tree_device;
    ObjectStoreWriter writer(&object_device);
    std::vector<ObjectRef> refs;
    for (const StoredObject& object : objects) {
      refs.push_back(writer.Append(object).value());
    }
    IR2_CHECK_OK(writer.Finish());
    ObjectStore store(&object_device, writer.bytes_written());

    BufferPool pool(&tree_device, 0);  // No cache: flips visible at once.
    RTreeOptions options;
    options.capacity_override = 4;
    Ir2Tree tree(&pool, options, SignatureConfig{64, 3});
    IR2_CHECK_OK(tree.Init());
    for (size_t i = 0; i < objects.size(); ++i) {
      std::vector<std::string> words =
          tokenizer.DistinctTokens(objects[i].text);
      IR2_CHECK_OK(tree.InsertObject(
          refs[i], Rect::ForPoint(Point(objects[i].coords)),
          testing_util::HashWords(words)));
    }

    for (int flips = 0; flips < 3; ++flips) {
      FlipRandomByte(&tree_device, rng);
    }
    DistanceFirstQuery query;
    query.point = Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
    query.keywords = {"w1"};
    query.k = 10;
    // May return wrong/partial results or an error after corruption — it
    // must simply not crash. (LoadObject of a garbage ref can legitimately
    // fail; signature bytes are safe to misread.)
    StatusOr<std::vector<QueryResult>> results =
        Ir2TopK(tree, store, tokenizer, query);
    (void)results;
    Status validation = tree.Validate();  // Typically reports Corruption.
    (void)validation;
  }
}

}  // namespace
}  // namespace ir2
