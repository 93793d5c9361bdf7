#include "common/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "tests/test_util.h"

namespace ir2 {
namespace {

using simd::Level;

using testing_util::AvailableSimdLevels;

// Every test leaves the process on the auto-detected tier so later tests in
// the same binary see production dispatch.
class SimdTest : public ::testing::Test {
 protected:
  void TearDown() override {
    simd::ForceLevelForTest(Level::kScalar);
    // Re-force the best available tier (kScalar if nothing else).
    for (Level level : AvailableSimdLevels()) {
      simd::ForceLevelForTest(level);
    }
  }
};

// The inverted index's exact posting-list encoding: d-gaps, 7 data bits per
// byte, high bit = continuation (inverted_index.cc AppendPostings).
std::vector<uint8_t> EncodeDGaps(const std::vector<uint32_t>& refs) {
  std::vector<uint8_t> encoded;
  uint32_t previous = 0;
  for (uint32_t ref : refs) {
    uint32_t gap = ref - previous;
    previous = ref;
    while (gap >= 0x80) {
      encoded.push_back(static_cast<uint8_t>(gap) | 0x80);
      gap >>= 7;
    }
    encoded.push_back(static_cast<uint8_t>(gap));
  }
  return encoded;
}

std::vector<uint32_t> RandomSortedRefs(Rng& rng, size_t count,
                                       uint32_t max_gap) {
  std::vector<uint32_t> refs;
  refs.reserve(count);
  uint32_t current = 0;
  for (size_t i = 0; i < count; ++i) {
    current += 1 + static_cast<uint32_t>(rng.NextUint64(max_gap));
    refs.push_back(current);
  }
  return refs;
}

TEST_F(SimdTest, ReportsALevelAndName) {
  const std::vector<Level> levels = AvailableSimdLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), Level::kScalar);
  for (Level level : levels) {
    EXPECT_NE(simd::LevelName(level), nullptr);
  }
}

TEST_F(SimdTest, DecodeDGapVarintsMatchesScalarRandomized) {
  Rng rng(424242);
  for (Level level : AvailableSimdLevels()) {
    simd::ForceLevelForTest(level);
    for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{31},
                         size_t{32}, size_t{33}, size_t{100}, size_t{1000}}) {
      // Small gaps (all single-byte: the vector fast path), then mixed gaps
      // (multi-byte varints interleaved: fast path must hand off cleanly).
      for (uint32_t max_gap : {uint32_t{100}, uint32_t{1} << 20}) {
        const std::vector<uint32_t> refs =
            RandomSortedRefs(rng, count, max_gap);
        const std::vector<uint8_t> encoded = EncodeDGaps(refs);
        std::vector<uint32_t> out(count + 1, 0xdeadbeef);
        const size_t consumed = simd::DecodeDGapVarints(
            encoded.data(), encoded.size(), static_cast<uint32_t>(count),
            out.data());
        ASSERT_EQ(consumed, encoded.size())
            << simd::LevelName(level) << " count=" << count;
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(out[i], refs[i]) << simd::LevelName(level) << " i=" << i;
        }
        EXPECT_EQ(out[count], 0xdeadbeefu);  // No overwrite past count.

        std::vector<uint32_t> reference(count);
        ASSERT_EQ(simd::DecodeDGapVarintsScalar(
                      encoded.data(), encoded.size(),
                      static_cast<uint32_t>(count), reference.data()),
                  encoded.size());
        EXPECT_TRUE(std::equal(reference.begin(), reference.end(),
                               out.begin()));
      }
    }
  }
}

TEST_F(SimdTest, DecodeDGapVarintsDetectsCorruption) {
  for (Level level : AvailableSimdLevels()) {
    simd::ForceLevelForTest(level);
    uint32_t out[64];

    // Truncated: final varint promises continuation that never comes.
    const uint8_t truncated[] = {0x05, 0x83};
    EXPECT_EQ(simd::DecodeDGapVarints(truncated, sizeof(truncated), 2, out),
              simd::kDecodeError)
        << simd::LevelName(level);

    // Overlong: six continuation bytes exceed the 5-byte / 32-bit budget.
    const uint8_t overlong[] = {0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
    EXPECT_EQ(simd::DecodeDGapVarints(overlong, sizeof(overlong), 1, out),
              simd::kDecodeError);

    // Empty input but nonzero count.
    EXPECT_EQ(simd::DecodeDGapVarints(nullptr, 0, 1, out),
              simd::kDecodeError);

    // Fewer bytes than values even with minimal varints.
    const uint8_t short_list[] = {0x01, 0x01};
    EXPECT_EQ(simd::DecodeDGapVarints(short_list, sizeof(short_list), 3, out),
              simd::kDecodeError);

    // Trailing garbage after `count` values is NOT an error here: the
    // decoder reports bytes consumed and the caller compares to the list
    // length (inverted_index does; so does the golden regression).
    const uint8_t trailing[] = {0x01, 0x02, 0xff, 0xff};
    EXPECT_EQ(simd::DecodeDGapVarints(trailing, sizeof(trailing), 2, out),
              2u);
    EXPECT_EQ(out[0], 1u);
    EXPECT_EQ(out[1], 3u);

    // A 32-entry all-single-byte block with corruption *after* it must
    // still decode the block via the fast path and fail on the bad tail.
    std::vector<uint8_t> block(32, 0x01);
    block.push_back(0x90);  // Truncated continuation at the very end.
    EXPECT_EQ(simd::DecodeDGapVarints(block.data(), block.size(), 33, out),
              simd::kDecodeError);
    EXPECT_EQ(simd::DecodeDGapVarints(block.data(), block.size(), 32, out),
              32u);
    EXPECT_EQ(out[31], 32u);
  }
}

TEST_F(SimdTest, MaximumWidthGaps) {
  // Gaps near 2^32 take the full 5 varint bytes; prefix sums must wrap
  // exactly like uint32_t arithmetic in every tier.
  for (Level level : AvailableSimdLevels()) {
    simd::ForceLevelForTest(level);
    const std::vector<uint32_t> refs = {0xfffffff0u, 0xfffffffeu,
                                        0xffffffffu};
    const std::vector<uint8_t> encoded = EncodeDGaps(refs);
    uint32_t out[3] = {0, 0, 0};
    ASSERT_EQ(simd::DecodeDGapVarints(encoded.data(), encoded.size(), 3, out),
              encoded.size());
    EXPECT_EQ(out[0], refs[0]);
    EXPECT_EQ(out[1], refs[1]);
    EXPECT_EQ(out[2], refs[2]);
  }
}

// ---- FindToken: whole-token keyword search -------------------------------

constexpr size_t kNotFound = simd::kTokenNotFound;

// Independent oracle: plain ASCII range checks, no shared table. Offset of
// the first i where text[i, i + kw.size()) equals `kw` case-insensitively
// and neither neighbour is [0-9A-Za-z]; a keyword that is not lowercase
// [0-9a-z] never matches.
size_t OracleFindToken(std::string_view text, std::string_view kw) {
  auto word = [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
           (c >= 'A' && c <= 'Z');
  };
  auto lower = [](char c) {
    return (c >= 'A' && c <= 'Z') ? static_cast<char>(c + ('a' - 'A')) : c;
  };
  if (kw.empty()) return kNotFound;
  for (char c : kw) {
    if (!word(c) || lower(c) != c) return kNotFound;
  }
  for (size_t i = 0; i + kw.size() <= text.size(); ++i) {
    if (i > 0 && word(text[i - 1])) continue;
    if (i + kw.size() < text.size() && word(text[i + kw.size()])) continue;
    bool equal = true;
    for (size_t j = 0; j < kw.size() && equal; ++j) {
      equal = word(text[i + j]) && lower(text[i + j]) == kw[j];
    }
    if (equal) return i;
  }
  return kNotFound;
}

// Searches an exactly sized heap copy of `text`, so AddressSanitizer flags
// any lane load that reads even one byte past the end.
size_t FindExact(std::string_view text, std::string_view kw,
                 bool scalar = false) {
  std::unique_ptr<char[]> copy(new char[text.size()]);
  if (!text.empty()) std::memcpy(copy.get(), text.data(), text.size());
  return scalar ? simd::FindTokenScalar(copy.get(), text.size(), kw)
                : simd::FindToken(copy.get(), text.size(), kw);
}

TEST_F(SimdTest, WordFoldTableIsCLocaleAlnum) {
  // Nothing in the library calls setlocale, so <cctype> here is the C
  // locale: the table must agree with isalnum/tolower on every byte.
  for (int c = 0; c < 256; ++c) {
    const char expected =
        std::isalnum(c) ? static_cast<char>(std::tolower(c)) : '\0';
    EXPECT_EQ(simd::kWordFold[static_cast<size_t>(c)], expected) << c;
  }
}

TEST_F(SimdTest, FindTokenEdgeCases) {
  const std::string nul_text("abc\0def", 7);
  struct Case {
    std::string_view text;
    std::string_view kw;
    size_t expected;
  };
  const Case cases[] = {
      {"", "a", kNotFound},
      {"ab", "abc", kNotFound},
      {"abc", "abc", 0},
      {"ABC", "abc", 0},
      {"aBc", "abc", 0},
      {"xabc", "abc", kNotFound},            // Suffix of a longer token.
      {"abcx", "abc", kNotFound},            // Prefix.
      {"xabcx", "abc", kNotFound},           // Infix.
      {"abcabc abc", "abc", 7},
      {"abc abc", "abc", 0},
      {"pool", "", kNotFound},               // Empty keyword.
      {"pool", "Pool", kNotFound},           // Not normalized.
      {"po ol", "po ol", kNotFound},
      {"\x11\x12\x13", "123", kNotFound},    // | 0x20 folds onto digits.
      {" \x11\x12\x13 123", "123", 5},
      {"\x10" "1\x19", "1", 1},
      {"\xc3\xa9t\xc3\xa9", "t", 2},         // Bytes >= 0x80 separate.
      {"caf\xc3\xa9", "caf", 0},
      {"@abc[", "abc", 1},
      {"`abc{", "abc", 1},
      {"Room 101, floor 1", "101", 5},
      {"Room 101, floor 1", "1", 16},
      {nul_text, "def", 4},
      {nul_text, "abc", 0},
  };
  for (Level level : AvailableSimdLevels()) {
    simd::ForceLevelForTest(level);
    for (const Case& c : cases) {
      EXPECT_EQ(FindExact(c.text, c.kw), c.expected)
          << simd::LevelName(level) << " kw=" << c.kw;
      EXPECT_EQ(OracleFindToken(c.text, c.kw), c.expected) << c.kw;
    }
    // A keyword with an embedded NUL or separator never matches.
    EXPECT_EQ(FindExact(nul_text, std::string_view("abc\0", 4)), kNotFound);
  }
}

TEST_F(SimdTest, FindTokenAtEveryOffsetAcrossLaneBoundaries) {
  // The keyword at every offset 0..140 — matches at offset 0, at the very
  // end, and straddling the 16-, 32- and 64-byte lane boundaries — behind
  // a decoy copy glued into a longer token, for keyword lengths around
  // the register widths, followed by 0, 1 or many trailing bytes.
  for (Level level : AvailableSimdLevels()) {
    simd::ForceLevelForTest(level);
    for (size_t len : {1, 2, 3, 7, 15, 16, 17, 31, 32, 33, 40}) {
      std::string kw;
      for (size_t i = 0; i < len; ++i) {
        kw.push_back(static_cast<char>(i % 3 == 2 ? '0' + i % 10
                                                  : 'a' + (i * 7) % 26));
      }
      std::string upper = kw;
      for (char& c : upper) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
      for (size_t off = 0; off <= 140; ++off) {
        for (size_t tail : {0, 1, 37}) {
          std::string text(off, ' ');
          if (off >= len + 2) {
            // Decoy: the keyword glued to a word byte before the match.
            text.replace(off - len - 2, len + 1, "x" + kw);
          }
          text += (off % 2 == 0) ? kw : upper;
          text += std::string(tail, tail == 1 ? '\x80' : '\x15');
          const size_t got = FindExact(text, kw);
          EXPECT_EQ(got, off) << simd::LevelName(level) << " len=" << len
                              << " off=" << off << " tail=" << tail;
          // Glue a word byte after the match too: no whole token remains.
          if (tail > 0) {
            text[off + len] = '7';
            EXPECT_EQ(FindExact(text, kw), kNotFound)
                << simd::LevelName(level) << " len=" << len << " off=" << off;
          }
        }
      }
    }
  }
}

TEST_F(SimdTest, FindTokenMatchesScalarAndOracleRandomized) {
  const std::vector<std::string> vocab = {
      "pool", "pools", "whirlpool", "spa", "wifi", "wifi2", "a", "1", "123",
      "internet", "x9", "golf", "course", "poolpool"};
  const std::vector<std::string> keywords = {
      "pool", "spa", "wifi", "wifi2", "a", "1", "123", "internet", "x9",
      "golf", "whirlpool", "zz", "0", "pools", "poolpool"};
  Rng rng(20240613);
  size_t found = 0;
  size_t calls = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::string text =
        testing_util::AdversarialText(rng, rng.NextUint64(300), vocab);
    for (const std::string& kw : keywords) {
      const size_t expected = OracleFindToken(text, kw);
      ASSERT_EQ(FindExact(text, kw, /*scalar=*/true), expected)
          << "scalar kw=" << kw << " iter=" << iter;
      for (Level level : AvailableSimdLevels()) {
        simd::ForceLevelForTest(level);
        ASSERT_EQ(FindExact(text, kw), expected)
            << simd::LevelName(level) << " kw=" << kw << " iter=" << iter;
      }
      ++calls;
      found += expected != kNotFound;
    }
  }
  // Both outcomes are well represented, so the agreement is not vacuous.
  EXPECT_GT(found, calls / 5);
  EXPECT_LT(found, calls * 4 / 5);
}

}  // namespace
}  // namespace ir2
