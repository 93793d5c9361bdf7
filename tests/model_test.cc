#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/random.h"
#include "core/ir2_search.h"
#include "core/ir2_tree.h"
#include "core/mir2_tree.h"
#include "storage/buffer_pool.h"
#include "storage/object_store.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

// Model-based randomized testing: drive an (M)IR2-Tree with a random
// sequence of inserts, deletes and queries, mirroring every mutation in a
// trivial in-memory model, and require exact agreement on every query.
// This is the test most likely to catch subtle maintenance bugs (stale
// signatures after condense, wrong re-insertion levels, ...).

struct ModelParams {
  uint64_t seed;
  bool use_mir2;
  uint32_t capacity;
  uint32_t signature_bits;
  SplitPolicy split_policy = SplitPolicy::kQuadratic;
  double forced_reinsert_fraction = 0.0;
};

class ModelSweep : public ::testing::TestWithParam<ModelParams> {};

TEST_P(ModelSweep, RandomOpsAgreeWithOracle) {
  const ModelParams params = GetParam();
  Rng rng(params.seed);
  Tokenizer tokenizer;

  // A pool of candidate objects, all pre-written to the object store (the
  // store is append-only; tree membership is what varies).
  std::vector<StoredObject> universe =
      testing_util::RandomObjects(params.seed * 7 + 1, 250, 25, 5);
  MemoryBlockDevice object_device;
  ObjectStoreWriter writer(&object_device);
  std::vector<ObjectRef> refs;
  std::vector<std::vector<std::string>> words(universe.size());
  for (size_t i = 0; i < universe.size(); ++i) {
    refs.push_back(writer.Append(universe[i]).value());
    words[i] = tokenizer.DistinctTokens(universe[i].text);
  }
  ASSERT_TRUE(writer.Finish().ok());
  ObjectStore store(&object_device, writer.bytes_written());

  MemoryBlockDevice tree_device;
  BufferPool pool(&tree_device, 1 << 14);
  RTreeOptions options;
  options.capacity_override = params.capacity;
  options.split_policy = params.split_policy;
  options.forced_reinsert_fraction = params.forced_reinsert_fraction;
  std::unique_ptr<Ir2Tree> tree;
  MultilevelScheme scheme;
  scheme.per_level = {SignatureConfig{params.signature_bits, 3},
                      SignatureConfig{params.signature_bits * 2, 3},
                      SignatureConfig{params.signature_bits * 4, 3}};
  if (params.use_mir2) {
    tree = std::make_unique<Mir2Tree>(&pool, options, scheme, &store,
                                      &tokenizer);
  } else {
    tree = std::make_unique<Ir2Tree>(
        &pool, options, SignatureConfig{params.signature_bits, 3});
  }
  ASSERT_TRUE(tree->Init().ok());

  std::map<uint32_t, bool> alive;  // index in universe -> in tree.
  uint32_t ops = 0, queries_run = 0;
  for (int step = 0; step < 600; ++step) {
    double action = rng.NextDouble();
    if (action < 0.5) {
      // Insert a random not-yet-inserted object.
      uint32_t i = static_cast<uint32_t>(rng.NextUint64(universe.size()));
      if (alive[i]) continue;
      ASSERT_TRUE(tree->InsertObject(
                          refs[i],
                          Rect::ForPoint(Point(universe[i].coords)),
                          testing_util::HashWords(words[i]))
                      .ok());
      alive[i] = true;
      ++ops;
    } else if (action < 0.75) {
      // Delete a random alive object.
      std::vector<uint32_t> candidates;
      for (const auto& [i, is_alive] : alive) {
        if (is_alive) candidates.push_back(i);
      }
      if (candidates.empty()) continue;
      uint32_t i = candidates[rng.NextUint64(candidates.size())];
      ASSERT_TRUE(tree->DeleteObject(
                          refs[i],
                          Rect::ForPoint(Point(universe[i].coords)))
                      .value());
      alive[i] = false;
      ++ops;
    } else {
      // Query and compare against the oracle.
      DistanceFirstQuery query;
      query.point = Point(rng.NextDouble(0, 1000), rng.NextDouble(0, 1000));
      query.k = 1 + static_cast<uint32_t>(rng.NextUint64(8));
      if (rng.NextBool(0.8)) {
        query.keywords = {"w" + std::to_string(rng.NextUint64(25))};
        if (rng.NextBool(0.3)) {
          query.keywords.push_back("w" + std::to_string(rng.NextUint64(25)));
        }
      }
      std::vector<StoredObject> current;
      for (const auto& [i, is_alive] : alive) {
        if (is_alive) current.push_back(universe[i]);
      }
      std::vector<uint32_t> expected = testing_util::BruteForceDistanceFirst(
          current, query.point, query.keywords, query.k);
      std::vector<QueryResult> results =
          Ir2TopK(*tree, store, tokenizer, query).value();
      ASSERT_EQ(testing_util::ResultIds(results), expected)
          << "step " << step << " after " << ops << " mutations";
      ++queries_run;
    }
    if (step % 97 == 0) {
      ASSERT_TRUE(tree->Validate().ok()) << "step " << step;
    }
  }
  ASSERT_TRUE(tree->Validate().ok());
  EXPECT_GT(queries_run, 50u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ModelSweep,
    ::testing::Values(
        ModelParams{1, false, 4, 64},
        ModelParams{2, false, 8, 16},  // Saturated sigs.
        ModelParams{3, false, 113, 128},
        ModelParams{4, true, 4, 64},
        ModelParams{5, true, 6, 32},
        // Full R*: margin/overlap split + forced reinsertion.
        ModelParams{6, false, 6, 64, SplitPolicy::kRStar, 0.3},
        ModelParams{7, false, 4, 32, SplitPolicy::kQuadratic, 0.3}));

}  // namespace
}  // namespace ir2
