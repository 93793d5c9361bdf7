#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "core/database.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using testing_util::RandomObjects;
using testing_util::ResultIds;

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    directory_ = ::testing::TempDir() + "/ir2db_persistence_test";
    std::filesystem::remove_all(directory_);
  }
  void TearDown() override { std::filesystem::remove_all(directory_); }
  std::string directory_;
};

TEST_F(PersistenceTest, SaveOpenRoundTripPreservesEverything) {
  std::vector<StoredObject> objects = RandomObjects(61, 300, 30, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 8;
  options.ir2_signature = SignatureConfig{128, 3};
  options.stopwords = {"and", "the"};
  auto built = SpatialKeywordDatabase::Build(objects, options).value();
  ASSERT_TRUE(built->Save(directory_).ok());

  auto reopened = SpatialKeywordDatabase::Open(directory_).value();

  // Stats survive.
  EXPECT_EQ(reopened->stats().num_objects, built->stats().num_objects);
  EXPECT_EQ(reopened->stats().vocabulary_size,
            built->stats().vocabulary_size);
  EXPECT_EQ(reopened->ObjectFileBytes(), built->ObjectFileBytes());
  EXPECT_EQ(reopened->Ir2TreeBytes(), built->Ir2TreeBytes());
  EXPECT_EQ(reopened->Mir2TreeBytes(), built->Mir2TreeBytes());

  // Structures valid.
  ASSERT_TRUE(reopened->rtree()->Validate().ok());
  ASSERT_TRUE(reopened->ir2_tree()->Validate().ok());
  ASSERT_TRUE(reopened->mir2_tree()->Validate().ok());

  // Every algorithm answers identically pre- and post-reopen.
  Rng rng(62);
  for (int iter = 0; iter < 8; ++iter) {
    DistanceFirstQuery query;
    query.point = Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
    query.keywords = {"w" + std::to_string(rng.NextUint64(30))};
    query.k = 10;
    EXPECT_EQ(ResultIds(reopened->QueryRTree(query).value()),
              ResultIds(built->QueryRTree(query).value()));
    EXPECT_EQ(ResultIds(reopened->QueryIio(query).value()),
              ResultIds(built->QueryIio(query).value()));
    EXPECT_EQ(ResultIds(reopened->QueryIr2(query).value()),
              ResultIds(built->QueryIr2(query).value()));
    EXPECT_EQ(ResultIds(reopened->QueryMir2(query).value()),
              ResultIds(built->QueryMir2(query).value()));

    GeneralQuery general;
    general.point = query.point;
    general.keywords = query.keywords;
    general.k = 5;
    auto a = reopened->QueryGeneral(general).value();
    auto b = built->QueryGeneral(general).value();
    EXPECT_EQ(ResultIds(a), ResultIds(b));
  }
}

TEST_F(PersistenceTest, PartialBuildsRoundTrip) {
  std::vector<StoredObject> objects = RandomObjects(63, 100, 20, 4);
  DatabaseOptions options;
  options.tree_options.capacity_override = 4;
  options.structures = {Structure::kIr2, Structure::kKcTree, Structure::kIio};
  auto built = SpatialKeywordDatabase::Build(objects, options).value();
  ASSERT_TRUE(built->Save(directory_).ok());

  auto reopened = SpatialKeywordDatabase::Open(directory_).value();
  EXPECT_EQ(reopened->rtree(), nullptr);
  EXPECT_EQ(reopened->mir2_tree(), nullptr);
  DistanceFirstQuery query;
  query.point = Point(500, 500);
  query.keywords = {"w1"};
  query.k = 5;
  EXPECT_FALSE(reopened->QueryRTree(query).ok());
  EXPECT_TRUE(reopened->QueryIr2(query).ok());
  EXPECT_TRUE(reopened->QueryIio(query).ok());
}

// Saving a lean database over a fuller save removes the files of the
// structures the lean one did not build: the directory then holds exactly
// the manifest and the lean set's files, and opens as the lean database.
TEST_F(PersistenceTest, LeanSaveOverFullSaveLeavesNoStaleFiles) {
  std::vector<StoredObject> objects = RandomObjects(65, 200, 20, 4);
  DatabaseOptions options;
  options.tree_options.capacity_override = 6;
  auto full = SpatialKeywordDatabase::Build(objects, options).value();
  ASSERT_TRUE(full->Save(directory_).ok());
  options.structures = {Structure::kKcTree, Structure::kIio};
  auto lean = SpatialKeywordDatabase::Build(objects, options).value();
  ASSERT_TRUE(lean->Save(directory_).ok());

  std::set<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    files.insert(entry.path().filename().string());
  }
  EXPECT_EQ(files, (std::set<std::string>{"manifest.txt", "objects.dat",
                                          "kctree.dat", "iio.dat"}));

  auto reopened = SpatialKeywordDatabase::Open(directory_).value();
  EXPECT_EQ(reopened->options().structures, options.structures);
  EXPECT_EQ(reopened->rtree(), nullptr);
  EXPECT_EQ(reopened->ir2_tree(), nullptr);
  EXPECT_EQ(reopened->mir2_tree(), nullptr);
  Rng rng(66);
  for (int iter = 0; iter < 8; ++iter) {
    DistanceFirstQuery query;
    query.point = Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
    query.keywords = {"w" + std::to_string(rng.NextUint64(20))};
    query.k = 10;
    for (Algorithm algo :
         {Algorithm::kIio, Algorithm::kKcTree, Algorithm::kAuto}) {
      EXPECT_EQ(ResultIds(reopened->Query(query, algo).value()),
                ResultIds(lean->Query(query, algo).value()))
          << AlgorithmName(algo);
    }
    EXPECT_EQ(reopened->Query(query, Algorithm::kIr2).status().code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST_F(PersistenceTest, ReopenedDatabaseAcceptsUpdates) {
  std::vector<StoredObject> objects = RandomObjects(64, 150, 20, 4);
  DatabaseOptions options;
  options.tree_options.capacity_override = 6;
  auto built = SpatialKeywordDatabase::Build(objects, options).value();
  ASSERT_TRUE(built->Save(directory_).ok());
  built.reset();

  auto db = SpatialKeywordDatabase::Open(directory_).value();
  // Delete through the reopened tree (object 0 is at a known location).
  Rect rect = Rect::ForPoint(Point(objects[0].coords));
  // Find object 0's ref by querying for it.
  DistanceFirstQuery find;
  find.point = Point(objects[0].coords);
  find.k = 1;
  std::vector<QueryResult> nearest = db->QueryIr2(find).value();
  ASSERT_EQ(nearest.size(), 1u);
  ASSERT_EQ(nearest[0].object_id, 0u);
  ASSERT_TRUE(db->ir2_tree()->DeleteObject(nearest[0].ref, rect).value());
  ASSERT_TRUE(db->ir2_tree()->Validate().ok());
  EXPECT_EQ(db->ir2_tree()->size(), 149u);

  // The deleted object no longer surfaces.
  std::vector<QueryResult> after = db->QueryIr2(find).value();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(after[0].object_id, 0u);
}

TEST_F(PersistenceTest, FileBackedQueriesCostIdenticalDiskAccesses) {
  // The disk-access model must be device-independent: a cold query costs
  // the same block reads whether the index lives in memory or in files.
  std::vector<StoredObject> objects = RandomObjects(65, 250, 25, 5);
  DatabaseOptions options;
  options.tree_options.capacity_override = 8;
  options.ir2_signature = SignatureConfig{128, 3};
  auto memory_db = SpatialKeywordDatabase::Build(objects, options).value();
  ASSERT_TRUE(memory_db->Save(directory_).ok());
  auto file_db = SpatialKeywordDatabase::Open(directory_).value();

  Rng rng(66);
  for (int iter = 0; iter < 5; ++iter) {
    DistanceFirstQuery query;
    query.point = Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
    query.keywords = {"w" + std::to_string(rng.NextUint64(25))};
    query.k = 10;
    QueryStats memory_stats, file_stats;
    auto a = memory_db->QueryIr2(query, &memory_stats).value();
    auto b = file_db->QueryIr2(query, &file_stats).value();
    EXPECT_EQ(ResultIds(a), ResultIds(b));
    EXPECT_EQ(memory_stats.io.random_reads, file_stats.io.random_reads);
    EXPECT_EQ(memory_stats.io.sequential_reads,
              file_stats.io.sequential_reads);
    EXPECT_EQ(memory_stats.objects_loaded, file_stats.objects_loaded);
  }
}

// The manifest stores stopwords as whitespace-separated tokens, so Save
// must refuse one it cannot write as a single token — before it creates
// the directory or writes any file — instead of writing a manifest Open
// rejects. (Such a stopword could never match: the tokenizer splits on
// the whitespace.)
TEST_F(PersistenceTest, SaveRejectsStopwordTheManifestCannotHold) {
  std::vector<StoredObject> objects = RandomObjects(67, 60, 10, 3);
  for (const std::string bad : {"new york", "tab\tword", ""}) {
    DatabaseOptions options;
    options.tree_options.capacity_override = 6;
    options.stopwords = {"the", bad};
    auto db = SpatialKeywordDatabase::Build(objects, options).value();
    const Status status = db->Save(directory_);
    ASSERT_FALSE(status.ok()) << "stopword \"" << bad << "\"";
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("\"" + bad + "\""), std::string::npos)
        << status.message();
    EXPECT_FALSE(std::filesystem::exists(directory_));
  }
}

// 64-bit FNV-1a digest of a whole file.
uint64_t FileDigest(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return Fnv1a64(bytes);
}

// Byte-for-byte pin of what Save writes. One fixed-seed database is built
// four ways — incremental inserts, the STR bulk loader, incremental inserts
// rewritten by locality_placement, and the serving set {iio, kctree} — and
// every structure file plus the manifest must hash to its golden digest.
// Node layout, payload encoding, block placement and manifest text all
// feed the digests, so a refactor of the build, compaction or save paths
// that changes any stored byte fails here. On an intended format change,
// the failure output prints the new table to paste in.
TEST_F(PersistenceTest, SavedFilesMatchGoldenDigests) {
  const std::vector<StoredObject> objects = RandomObjects(71, 400, 40, 5);
  DatabaseOptions base;
  base.tree_options.capacity_override = 8;
  base.ir2_signature = SignatureConfig{128, 3};
  DatabaseOptions bulk = base;
  bulk.bulk_load = true;
  DatabaseOptions placed = base;
  placed.locality_placement = true;
  DatabaseOptions serving = base;
  serving.structures = {Structure::kIio, Structure::kKcTree};
  const std::pair<const char*, DatabaseOptions> ways[] = {
      {"insert", base},
      {"bulk_load", bulk},
      {"locality_placement", placed},
      {"serving_set", serving}};

  using Digests = std::map<std::string, uint64_t>;  // "way/file" -> digest.
  const Digests golden = {
      {"bulk_load/iio.dat", 0xba0aba7116907c1dULL},
      {"bulk_load/ir2.dat", 0x658ae324a9a12b23ULL},
      {"bulk_load/kctree.dat", 0xe22b8351e39d8bc1ULL},
      {"bulk_load/manifest.txt", 0x32889e82e36b6422ULL},
      {"bulk_load/mir2.dat", 0x55737b8a6368dce9ULL},
      {"bulk_load/objects.dat", 0x02d7654c591c052dULL},
      {"bulk_load/rtree.dat", 0xd6741f946c4f4e98ULL},
      {"insert/iio.dat", 0xba0aba7116907c1dULL},
      {"insert/ir2.dat", 0xaf943961449c8e9eULL},
      {"insert/kctree.dat", 0x25d79d8a09b67403ULL},
      {"insert/manifest.txt", 0x32889e82e36b6422ULL},
      {"insert/mir2.dat", 0xc03160f23a611ea6ULL},
      {"insert/objects.dat", 0x02d7654c591c052dULL},
      {"insert/rtree.dat", 0xe55093152ffbb99fULL},
      {"locality_placement/iio.dat", 0xba0aba7116907c1dULL},
      {"locality_placement/ir2.dat", 0x22e9c38b718b0af2ULL},
      {"locality_placement/kctree.dat", 0x27a3700dbc2a042bULL},
      {"locality_placement/manifest.txt", 0x32889e82e36b6422ULL},
      {"locality_placement/mir2.dat", 0xe93b91ea9b30ddcaULL},
      {"locality_placement/objects.dat", 0x02d7654c591c052dULL},
      {"locality_placement/rtree.dat", 0xd00e6950f712e5e7ULL},
      {"serving_set/iio.dat", 0xba0aba7116907c1dULL},
      {"serving_set/kctree.dat", 0x25d79d8a09b67403ULL},
      {"serving_set/manifest.txt", 0x698f9b72031b3221ULL},
      {"serving_set/objects.dat", 0x02d7654c591c052dULL},
  };

  Digests actual;
  for (const auto& [way, options] : ways) {
    const std::string directory = directory_ + "/" + way;
    auto db = SpatialKeywordDatabase::Build(objects, options).value();
    ASSERT_TRUE(db->Save(directory).ok()) << way;
    for (const auto& file :
         std::filesystem::directory_iterator(directory)) {
      actual[std::string(way) + "/" + file.path().filename().string()] =
          FileDigest(file.path());
    }
  }
  std::string table;
  for (const auto& [name, digest] : actual) {
    char line[128];
    std::snprintf(line, sizeof(line), "      {\"%s\", 0x%016llxULL},\n",
                  name.c_str(), static_cast<unsigned long long>(digest));
    table += line;
  }
  EXPECT_EQ(actual, golden) << "current digests:\n" << table;
}

TEST_F(PersistenceTest, OpenMissingDirectoryFails) {
  auto result = SpatialKeywordDatabase::Open(directory_ + "/nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ir2
