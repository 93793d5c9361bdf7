#ifndef IR2TREE_TESTS_TEST_UTIL_H_
#define IR2TREE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/simd.h"
#include "core/database.h"
#include "core/query.h"
#include "geo/point.h"
#include "storage/object_store.h"
#include "text/corpus_terms.h"
#include "text/signature.h"
#include "text/tokenizer.h"

namespace ir2 {
namespace testing_util {

// The paper's Figure 1 dataset of eight fictitious hotels. The worked
// examples (Example 1: NN order; Examples 2 and 3: top-2 {internet, pool}
// from [30.5, 100.0] = H7, H2) provide exact expected outputs.
inline std::vector<StoredObject> Figure1Hotels() {
  std::vector<StoredObject> hotels;
  auto add = [&hotels](uint32_t id, const char* name, double lat, double lon,
                       const char* amenities) {
    StoredObject object;
    object.id = id;
    object.coords = {lat, lon};
    object.text = std::string(name) + " " + amenities;
    hotels.push_back(std::move(object));
  };
  add(1, "Hotel A", 25.4, -80.1, "tennis court, gift shop, spa, Internet");
  add(2, "Hotel B", 47.3, -122.2, "wireless Internet, pool, golf course");
  add(3, "Hotel C", 35.5, 139.4, "spa, continental suites, pool");
  add(4, "Hotel D", 39.5, 116.2, "sauna, pool, conference rooms");
  add(5, "Hotel E", 51.3, -0.5, "dry cleaning, free lunch, pets");
  add(6, "Hotel F", 40.4, -73.5, "safe box, concierge, internet, pets");
  add(7, "Hotel G", -33.2, -70.4, "Internet, airport transportation, pool");
  add(8, "Hotel H", -41.1, 174.4, "wake up service, no pets, pool");
  return hotels;
}

// The corpus of `texts` (document i is texts[i]) under the default
// tokenizer.
inline CorpusTerms CorpusOfTexts(const std::vector<std::string>& texts) {
  std::vector<StoredObject> objects(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) objects[i].text = texts[i];
  return CorpusTerms::Build(Tokenizer(), objects);
}

// HashWord of each word, in order: the hash-keyed form every tree insert
// and signature builder takes.
inline std::vector<uint64_t> HashWords(std::span<const std::string> words) {
  std::vector<uint64_t> hashes;
  hashes.reserve(words.size());
  for (const std::string& word : words) hashes.push_back(HashWord(word));
  return hashes;
}

// Number of set bits of `sig` (its weight).
inline uint32_t CountOnes(const Signature& sig) {
  uint32_t ones = 0;
  for (uint64_t word : sig.words()) ones += std::popcount(word);
  return ones;
}

// The paper's running query point.
inline Point Figure1QueryPoint() { return Point(30.5, 100.0); }

// Small random dataset for property tests: `n` objects with 2-d uniform
// positions in [0, 1000)^2 and `words_per_object` words from a vocabulary
// {w0 .. w<vocab-1>} (uniformly drawn, so keyword selectivity ~= 1/vocab *
// words_per_object).
inline std::vector<StoredObject> RandomObjects(uint64_t seed, uint32_t n,
                                               uint32_t vocab,
                                               uint32_t words_per_object) {
  Rng rng(seed);
  std::vector<StoredObject> objects;
  objects.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    StoredObject object;
    object.id = i;
    object.coords = {rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)};
    object.text = "o" + std::to_string(i);
    for (uint32_t w = 0; w < words_per_object; ++w) {
      object.text += " w" + std::to_string(rng.NextUint64(vocab));
    }
    objects.push_back(std::move(object));
  }
  return objects;
}

// Reference implementation of the distance-first top-k spatial keyword
// query: scan everything, filter by Boolean keyword containment, order by
// distance (ties by id for determinism).
inline std::vector<uint32_t> BruteForceDistanceFirst(
    const std::vector<StoredObject>& objects, const Point& point,
    const std::vector<std::string>& keywords, uint32_t k) {
  Tokenizer tokenizer;
  struct Hit {
    double distance;
    uint32_t id;
  };
  std::vector<Hit> hits;
  for (const StoredObject& object : objects) {
    if (!ContainsAllKeywords(tokenizer, object.text, keywords)) continue;
    hits.push_back(Hit{Distance(Point(object.coords), point), object.id});
  }
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  });
  std::vector<uint32_t> ids;
  for (const Hit& hit : hits) {
    if (ids.size() == k) break;
    ids.push_back(hit.id);
  }
  return ids;
}

inline std::vector<uint32_t> ResultIds(const std::vector<QueryResult>& rs) {
  std::vector<uint32_t> ids;
  ids.reserve(rs.size());
  for (const QueryResult& r : rs) ids.push_back(r.object_id);
  return ids;
}

// Distances within a result list must be non-decreasing.
inline bool DistancesSorted(const std::vector<QueryResult>& rs) {
  for (size_t i = 1; i < rs.size(); ++i) {
    if (rs[i].distance < rs[i - 1].distance) return false;
  }
  return true;
}

// SIMD tiers this machine can actually run (ForceLevelForTest silently
// falls back to scalar for unsupported ones — detect that and skip
// duplicates). Leaves the last available tier forced.
inline std::vector<simd::Level> AvailableSimdLevels() {
  std::vector<simd::Level> levels;
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kSse2,
                            simd::Level::kAvx2, simd::Level::kNeon}) {
    simd::ForceLevelForTest(level);
    if (simd::ActiveLevel() == level) {
      levels.push_back(level);
    }
  }
  return levels;
}

// Random text built to trip up keyword-token search: words from `vocab`
// in mixed case, glued to or separated by bytes that are not word
// characters but look like them to a vector lane filter — 0x10-0x19 (which
// | 0x20 folds onto '0'-'9'), '@' '[' '`' '{' (neighbours of the letter
// ranges), NUL, and bytes >= 0x80 (UTF-8 fragments). Words are sometimes
// glued together, so vocabulary words also appear as prefixes, suffixes and
// infixes of longer tokens.
inline std::string AdversarialText(Rng& rng, size_t target_size,
                                   const std::vector<std::string>& vocab) {
  static const std::string kSeparators[] = {
      " ",  ",",   std::string(1, '\0'), "\x10", "\x15", "\x19", "\x80",
      "\xc3\xa9", "\xff", "@", "[", "`", "{", "\n", ", "};
  std::string text;
  while (text.size() < target_size) {
    const uint64_t pick = rng.NextUint64(10);
    if (pick < 5) {
      std::string word = vocab[rng.NextUint64(vocab.size())];
      const uint64_t casing = rng.NextUint64(4);
      for (size_t i = 0; i < word.size(); ++i) {
        if (casing == 1 || (casing == 2 && i == 0)) {
          word[i] = static_cast<char>(std::toupper(
              static_cast<unsigned char>(word[i])));
        }
      }
      text += word;
    } else if (pick < 9) {
      text += kSeparators[rng.NextUint64(std::size(kSeparators))];
    } else {
      text.push_back(static_cast<char>(rng.NextUint64(256)));
    }
  }
  return text;
}

// Every file a Save of `db` into `directory` writes, by file name, as its
// Fnv1a64 digest (the comparison SavedFilesMatchGoldenDigests makes).
inline std::map<std::string, uint64_t> SavedDigests(
    SpatialKeywordDatabase& db, const std::string& directory) {
  std::filesystem::remove_all(directory);
  EXPECT_TRUE(db.Save(directory).ok()) << directory;
  std::map<std::string, uint64_t> digests;
  for (const auto& file : std::filesystem::directory_iterator(directory)) {
    std::ifstream in(file.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    digests[file.path().filename().string()] = Fnv1a64(bytes);
  }
  std::filesystem::remove_all(directory);
  return digests;
}

// Threads of this process, or 0 where /proc/self/task is not available.
inline size_t ThreadCount() {
  const std::filesystem::path tasks = "/proc/self/task";
  if (!std::filesystem::exists(tasks)) return 0;
  return static_cast<size_t>(
      std::distance(std::filesystem::directory_iterator(tasks),
                    std::filesystem::directory_iterator()));
}

// The most threads this process had while `fn` ran on the calling thread,
// the sampling thread itself included; 0 where /proc/self/task is not
// available. A sampler can miss a short-lived thread, so this bounds what
// ran from below.
template <typename Fn>
size_t PeakThreadsDuring(Fn&& fn) {
  std::atomic<bool> done{false};
  std::atomic<size_t> peak{0};
  std::thread sampler([&] {
    do {
      peak.store(std::max(peak.load(), ThreadCount()));
    } while (!done.load());
  });
  fn();
  done.store(true);
  sampler.join();
  return peak.load();
}

}  // namespace testing_util
}  // namespace ir2

#endif  // IR2TREE_TESTS_TEST_UTIL_H_
