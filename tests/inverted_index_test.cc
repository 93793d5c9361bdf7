#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/block_device.h"
#include "tests/test_util.h"
#include "text/inverted_index.h"

namespace ir2 {
namespace {

using testing_util::CorpusOfTexts;

TEST(IntersectSortedTest, Basics) {
  EXPECT_TRUE(IntersectSorted({}).empty());
  EXPECT_EQ(IntersectSorted({{1, 2, 3}}), (std::vector<ObjectRef>{1, 2, 3}));
  EXPECT_EQ(IntersectSorted({{1, 2, 3, 7}, {2, 7, 9}}),
            (std::vector<ObjectRef>{2, 7}));
  EXPECT_EQ(IntersectSorted({{1, 2}, {3, 4}}), (std::vector<ObjectRef>{}));
  EXPECT_EQ(IntersectSorted({{1, 5, 9}, {1, 5, 9}, {5}}),
            (std::vector<ObjectRef>{5}));
  EXPECT_TRUE(IntersectSorted({{1, 2, 3}, {}}).empty());
}

TEST(IntersectSortedTest, PropertyMatchesSetIntersection) {
  Rng rng(31337);
  for (int iter = 0; iter < 100; ++iter) {
    uint64_t num_lists = 2 + rng.NextUint64(3);
    std::vector<std::vector<ObjectRef>> lists(num_lists);
    for (auto& list : lists) {
      uint64_t n = rng.NextUint64(60);
      for (uint64_t i = 0; i < n; ++i) {
        list.push_back(static_cast<ObjectRef>(rng.NextUint64(100)));
      }
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    std::vector<ObjectRef> expected = lists[0];
    for (size_t i = 1; i < lists.size(); ++i) {
      std::vector<ObjectRef> next;
      std::set_intersection(expected.begin(), expected.end(),
                            lists[i].begin(), lists[i].end(),
                            std::back_inserter(next));
      expected = std::move(next);
    }
    EXPECT_EQ(IntersectSorted(lists), expected);
  }
}

TEST(InvertedIndexTest, BuildOpenRetrieve) {
  MemoryBlockDevice device;
  InvertedIndexBuilder builder(&device);
  // Distinct words {internet, spa}, {internet, pool}, {pool}; 4, 3 and 1
  // tokens.
  const std::vector<ObjectRef> refs = {0, 100, 200};
  ASSERT_TRUE(builder
                  .Build(CorpusOfTexts({"internet spa spa internet",
                                        "internet pool pool", "pool"}),
                         refs)
                  .ok());

  auto index = InvertedIndex::Open(&device).value();
  EXPECT_EQ(index->num_objects(), 3u);
  EXPECT_EQ(index->num_terms(), 3u);
  EXPECT_NEAR(index->avg_doc_len(), (4 + 3 + 1) / 3.0, 1e-9);

  EXPECT_EQ(index->RetrieveList("internet").value(),
            (std::vector<ObjectRef>{0, 100}));
  EXPECT_EQ(index->RetrieveList("pool").value(),
            (std::vector<ObjectRef>{100, 200}));
  EXPECT_EQ(index->RetrieveList("spa").value(), (std::vector<ObjectRef>{0}));
  EXPECT_TRUE(index->RetrieveList("sauna").value().empty());

  EXPECT_EQ(index->DocumentFrequency("internet"), 2u);
  EXPECT_EQ(index->DocumentFrequency("sauna"), 0u);
}

TEST(InvertedIndexTest, RetrievalCountsDiskReads) {
  MemoryBlockDevice device;
  InvertedIndexBuilder builder(&device);
  // A long list spanning multiple blocks: ~20k postings with large gaps so
  // varints are multi-byte.
  std::vector<std::string> texts(20000, "common");
  std::vector<ObjectRef> refs;
  for (uint32_t i = 0; i < 20000; ++i) {
    refs.push_back(i * 97);
  }
  ASSERT_TRUE(builder.Build(CorpusOfTexts(texts), refs).ok());
  auto index = InvertedIndex::Open(&device).value();
  device.ResetStats();
  std::vector<ObjectRef> list = index->RetrieveList("common").value();
  EXPECT_EQ(list.size(), 20000u);
  // One random access for the first block, sequential for the rest.
  EXPECT_EQ(device.stats().random_reads, 1u);
  EXPECT_GE(device.stats().sequential_reads, 1u);
}

TEST(InvertedIndexTest, CompressionShrinksDenseLists) {
  // Dense ascending refs have gap 1 -> 1 byte per posting (vs 4 raw).
  MemoryBlockDevice device;
  InvertedIndexBuilder builder(&device);
  const uint32_t n = 100000;
  std::vector<std::string> texts(n, "every");
  std::vector<ObjectRef> refs;
  for (uint32_t i = 0; i < n; ++i) {
    refs.push_back(i);
  }
  ASSERT_TRUE(builder.Build(CorpusOfTexts(texts), refs).ok());
  // Postings must be around n bytes, far below 4n.
  EXPECT_LT(device.SizeBytes(), uint64_t{2} * n);
}

TEST(InvertedIndexTest, PropertyRandomCorpusRoundTrip) {
  Rng rng(555);
  MemoryBlockDevice device;
  InvertedIndexBuilder builder(&device);
  const uint32_t vocab = 50, objects = 400;
  std::vector<std::vector<ObjectRef>> expected(vocab);
  std::vector<std::string> texts;
  std::vector<ObjectRef> refs;
  for (uint32_t i = 0; i < objects; ++i) {
    ObjectRef ref = i * 13;
    std::vector<std::string> words;
    uint64_t n = 1 + rng.NextUint64(6);
    std::vector<bool> used(vocab, false);
    for (uint64_t w = 0; w < n; ++w) {
      uint32_t term = static_cast<uint32_t>(rng.NextUint64(vocab));
      if (used[term]) continue;
      used[term] = true;
      words.push_back("t" + std::to_string(term));
      expected[term].push_back(ref);
    }
    // Distinct words: the token count is words.size().
    std::string text;
    for (const std::string& word : words) text += word + " ";
    texts.push_back(text);
    refs.push_back(ref);
  }
  ASSERT_TRUE(builder.Build(CorpusOfTexts(texts), refs).ok());
  auto index = InvertedIndex::Open(&device).value();
  for (uint32_t term = 0; term < vocab; ++term) {
    EXPECT_EQ(index->RetrieveList("t" + std::to_string(term)).value(),
              expected[term])
        << "term " << term;
    EXPECT_EQ(index->DocumentFrequency("t" + std::to_string(term)),
              expected[term].size());
  }
}

TEST(InvertedIndexTest, OpenRejectsGarbage) {
  MemoryBlockDevice device;
  (void)device.Allocate(1).value();
  std::vector<uint8_t> junk(device.block_size(), 0xff);
  ASSERT_TRUE(device.Write(0, junk).ok());
  EXPECT_FALSE(InvertedIndex::Open(&device).ok());
}

}  // namespace
}  // namespace ir2
