#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "tests/test_util.h"
#include "text/signature.h"

namespace ir2 {
namespace {

TEST(SignatureTest, BitOps) {
  Signature sig(16);
  EXPECT_EQ(sig.num_bits(), 16u);
  EXPECT_EQ(sig.num_bytes(), 2u);
  EXPECT_EQ(testing_util::CountOnes(sig), 0u);
  sig.SetBit(0);
  sig.SetBit(7);
  sig.SetBit(15);
  EXPECT_TRUE(sig.TestBit(0));
  EXPECT_TRUE(sig.TestBit(7));
  EXPECT_TRUE(sig.TestBit(15));
  EXPECT_FALSE(sig.TestBit(8));
  EXPECT_EQ(testing_util::CountOnes(sig), 3u);
  sig.ClearAllBits();
  EXPECT_EQ(testing_util::CountOnes(sig), 0u);
}

TEST(SignatureTest, SuperimposeIsBitwiseOr) {
  Signature a(24), b(24);
  a.SetBit(1);
  a.SetBit(20);
  b.SetBit(2);
  b.SetBit(20);
  a.Superimpose(b);
  EXPECT_TRUE(a.TestBit(1));
  EXPECT_TRUE(a.TestBit(2));
  EXPECT_TRUE(a.TestBit(20));
  EXPECT_EQ(testing_util::CountOnes(a), 3u);
}

TEST(SignatureTest, ContainsAllOf) {
  Signature node(32), query(32);
  node.SetBit(3);
  node.SetBit(9);
  node.SetBit(30);
  query.SetBit(3);
  query.SetBit(9);
  EXPECT_TRUE(node.ContainsAllOf(query));
  query.SetBit(10);
  EXPECT_FALSE(node.ContainsAllOf(query));
  // Empty query matches anything.
  EXPECT_TRUE(node.ContainsAllOf(Signature(32)));
}

TEST(SignatureTest, FromBytesRoundTrip) {
  Signature sig(20);
  sig.SetBit(0);
  sig.SetBit(19);
  Signature copy = Signature::FromBytes(sig.bytes(), 20);
  EXPECT_EQ(copy, sig);
  EXPECT_EQ(copy.ToBitString(), sig.ToBitString());
}

TEST(SignatureTest, OptimalLengthFormula) {
  // F = k * D / ln 2, rounded up to bytes. The paper's configurations:
  // k=3, D=349 -> 1511 bits -> 189 bytes; k=3, D=14 -> 61 bits -> 8 bytes.
  EXPECT_EQ(OptimalSignatureBits(349, 3) / 8, 189u);
  EXPECT_EQ(OptimalSignatureBits(14, 3) / 8, 8u);
  // Monotone in both arguments.
  EXPECT_GT(OptimalSignatureBits(100, 3), OptimalSignatureBits(50, 3));
  EXPECT_GT(OptimalSignatureBits(100, 5), OptimalSignatureBits(100, 3));
}

TEST(SignatureTest, ExpectedFalsePositiveRate) {
  // At the optimal length, fill ~= 0.5 and fp ~= 0.5^k.
  uint32_t bits = OptimalSignatureBits(100, 3);
  double fp = ExpectedFalsePositiveRate(100, bits, 3);
  EXPECT_NEAR(fp, std::pow(0.5, 3), 0.02);
  // Longer signature, lower fp.
  EXPECT_LT(ExpectedFalsePositiveRate(100, 2 * bits, 3), fp);
}

TEST(SignatureTest, MembershipHasNoFalseNegatives) {
  SignatureConfig config{256, 3};
  std::vector<std::string> words = {"internet", "pool", "spa", "sauna",
                                    "golf"};
  Signature sig =
      MakeSignatureFromHashes(testing_util::HashWords(words), config);
  for (const std::string& word : words) {
    EXPECT_TRUE(MayContainWordHash(sig, HashWord(word), config)) << word;
  }
}

TEST(SignatureTest, DocumentContainmentHasNoFalseNegatives) {
  // Query signature of a subset of a document's words is always contained
  // in the document signature — the invariant conjunctive pruning needs.
  Rng rng(77);
  SignatureConfig config{512, 3};
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<uint64_t> words;
    uint64_t n = 1 + rng.NextUint64(50);
    for (uint64_t i = 0; i < n; ++i) {
      words.push_back(rng.NextUint64());
    }
    Signature doc = MakeSignatureFromHashes(words, config);
    // Any subset.
    std::vector<uint64_t> subset;
    for (uint64_t w : words) {
      if (rng.NextBool(0.3)) subset.push_back(w);
    }
    Signature query = MakeSignatureFromHashes(subset, config);
    EXPECT_TRUE(doc.ContainsAllOf(query));
  }
}

TEST(SignatureTest, FalsePositiveRateNearPrediction) {
  // Empirical single-word fp rate across random signatures should be close
  // to the analytic (1 - e^{-kD/F})^k.
  Rng rng(123);
  SignatureConfig config{OptimalSignatureBits(40, 3), 3};
  int false_positives = 0, trials = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<uint64_t> words;
    for (int i = 0; i < 40; ++i) words.push_back(rng.NextUint64());
    Signature doc = MakeSignatureFromHashes(words, config);
    for (int probe = 0; probe < 20; ++probe) {
      uint64_t absent = rng.NextUint64();
      ++trials;
      if (MayContainWordHash(doc, absent, config)) ++false_positives;
    }
  }
  double rate = static_cast<double>(false_positives) / trials;
  double predicted = ExpectedFalsePositiveRate(40, config.bits, 3);
  EXPECT_NEAR(rate, predicted, 0.05);
}

TEST(SignatureTest, SuperimposedCodingMatchesUnion) {
  // Signature(doc A) | Signature(doc B) == Signature(words A union B).
  SignatureConfig config{128, 3};
  std::vector<uint64_t> a = {1, 2, 3}, b = {3, 4, 5};
  Signature sa = MakeSignatureFromHashes(a, config);
  Signature sb = MakeSignatureFromHashes(b, config);
  sa.Superimpose(sb);
  std::vector<uint64_t> both = {1, 2, 3, 4, 5};
  EXPECT_EQ(sa, MakeSignatureFromHashes(both, config));
}

TEST(SignatureTest, DifferentWidthsGiveDifferentBitPositions) {
  // The same word maps consistently within one width.
  SignatureConfig narrow{64, 3}, wide{1024, 3};
  uint64_t hash = HashWord("internet");
  Signature n1(64), n2(64);
  AddWordHash(hash, narrow, &n1);
  AddWordHash(hash, narrow, &n2);
  EXPECT_EQ(n1, n2);
  Signature w(1024);
  AddWordHash(hash, wide, &w);
  // k hashes set at most k (fewer on collision) bits, at least one.
  EXPECT_GE(testing_util::CountOnes(w), 1u);
  EXPECT_LE(testing_util::CountOnes(w), 3u);
  EXPECT_GE(testing_util::CountOnes(n1), 1u);
  EXPECT_LE(testing_util::CountOnes(n1), 3u);
}

class SignatureWidthSweep : public ::testing::TestWithParam<uint32_t> {};

// Property sweep across widths: no false negatives, byte round-trip.
TEST_P(SignatureWidthSweep, NoFalseNegativesAtAnyWidth) {
  const uint32_t bits = GetParam();
  SignatureConfig config{bits, 3};
  Rng rng(bits);
  std::vector<uint64_t> words;
  for (int i = 0; i < 30; ++i) words.push_back(rng.NextUint64());
  Signature doc = MakeSignatureFromHashes(words, config);
  for (uint64_t word : words) {
    EXPECT_TRUE(MayContainWordHash(doc, word, config));
  }
  Signature restored = Signature::FromBytes(doc.bytes(), bits);
  EXPECT_EQ(restored, doc);
}

INSTANTIATE_TEST_SUITE_P(Widths, SignatureWidthSweep,
                         ::testing::Values(8u, 16u, 64u, 100u, 512u, 1512u,
                                           4096u));

TEST(SignatureTest, WordStorageIsWordAligned) {
  // The kernels rely on the backing store being whole uint64_t words with
  // zero bits past num_bits(); bytes() is a prefix view of those words.
  for (uint32_t bits : {8u, 64u, 72u, 1512u}) {
    Signature sig(bits);
    EXPECT_EQ(sig.num_words(), (bits + 63) / 64) << bits;
    EXPECT_EQ(sig.words().size(), sig.num_words());
    EXPECT_EQ(sig.bytes().size(), (bits + 7) / 8);
    EXPECT_EQ(static_cast<const void*>(sig.bytes().data()),
              static_cast<const void*>(sig.words().data()));
  }
}

TEST(SignatureTest, WordAndByteLayoutsAgree) {
  // Bit i set via SetBit must appear in byte i/8 at position i%8, the
  // little-endian disk layout the byte-vector implementation used.
  Signature sig(72);
  sig.SetBit(0);
  sig.SetBit(9);
  sig.SetBit(63);
  sig.SetBit(64);
  sig.SetBit(71);
  std::span<const uint8_t> bytes = sig.bytes();
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(bytes[1], 0x02);
  EXPECT_EQ(bytes[7], 0x80);
  EXPECT_EQ(bytes[8], 0x81);
  EXPECT_EQ(testing_util::CountOnes(sig), 5u);
}

// Reference bit-by-bit containment, the semantics the word loops must
// reproduce exactly.
bool ContainsAllOfBitwise(const Signature& doc, const Signature& query) {
  for (uint32_t i = 0; i < query.num_bits(); ++i) {
    if (query.TestBit(i) && !doc.TestBit(i)) return false;
  }
  return true;
}

TEST(SignatureTest, ContainsAllOfMatchesBitwiseReference) {
  // Every whole-byte width up to 520 bits (so every partial-last-word tail
  // of BytesContainSignature), plus a sub-byte width and the 1512-bit
  // Hotels signature.
  std::vector<uint32_t> widths{20u, 1512u};
  for (uint32_t bits = 8; bits <= 520; bits += 8) {
    widths.push_back(bits);
  }
  for (uint32_t bits : widths) {
    SignatureConfig config{bits, 3};
    Rng rng(bits * 7 + 1);
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<uint64_t> doc_words, query_words;
      for (uint64_t w = 0; w < 1 + rng.NextUint64(20); ++w) {
        doc_words.push_back(rng.NextUint64());
      }
      for (uint64_t w = 0; w < 1 + rng.NextUint64(3); ++w) {
        query_words.push_back(rng.NextUint64());
      }
      Signature doc = MakeSignatureFromHashes(doc_words, config);
      Signature query = MakeSignatureFromHashes(query_words, config);
      const bool expected = ContainsAllOfBitwise(doc, query);
      EXPECT_EQ(doc.ContainsAllOf(query), expected) << bits << ":" << trial;
      EXPECT_EQ(BytesContainSignature(doc.bytes(), query), expected)
          << bits << ":" << trial;
      // Every signature contains itself and the empty signature.
      EXPECT_TRUE(doc.ContainsAllOf(doc));
      EXPECT_TRUE(doc.ContainsAllOf(Signature(bits)));
    }
  }
}

TEST(SignatureTest, BytesContainSignatureHandlesUnalignedInput) {
  SignatureConfig config{1512, 3};
  std::vector<uint64_t> words{1, 2, 3, 4, 5};
  Signature doc = MakeSignatureFromHashes(words, config);
  std::vector<uint64_t> query_word{words[2]};
  Signature query = MakeSignatureFromHashes(query_word, config);
  std::vector<uint64_t> missing_word{0xdeadbeefULL};
  Signature missing = MakeSignatureFromHashes(missing_word, config);
  // Copy the doc bytes to every offset within a word so the loop's loads
  // can't assume word alignment (tree node payloads sit at arbitrary
  // offsets).
  for (size_t offset = 1; offset < sizeof(uint64_t); ++offset) {
    std::vector<uint8_t> buffer(doc.num_bytes() + offset);
    std::copy(doc.bytes().begin(), doc.bytes().end(),
              buffer.begin() + static_cast<std::ptrdiff_t>(offset));
    std::span<const uint8_t> unaligned(buffer.data() + offset,
                                       doc.num_bytes());
    EXPECT_TRUE(BytesContainSignature(unaligned, query)) << offset;
    EXPECT_EQ(BytesContainSignature(unaligned, missing),
              doc.ContainsAllOf(missing))
        << offset;
  }
}

// A width of `num_words` whole words with every bit set.
Signature AllOnes(size_t num_words) {
  Signature sig(static_cast<uint32_t>(num_words * Signature::kWordBits));
  for (uint32_t i = 0; i < sig.num_bits(); ++i) {
    sig.SetBit(i);
  }
  return sig;
}

TEST(SignatureTest, ContainsAllOfExtremesAtEveryWordCount) {
  for (size_t num_words = 1; num_words <= 32; ++num_words) {
    const Signature ones = AllOnes(num_words);
    const Signature zeros(ones.num_bits());
    EXPECT_TRUE(ones.ContainsAllOf(ones));
    EXPECT_TRUE(ones.ContainsAllOf(zeros));
    EXPECT_TRUE(zeros.ContainsAllOf(zeros));
    EXPECT_FALSE(zeros.ContainsAllOf(ones)) << num_words;
    EXPECT_TRUE(BytesContainSignature(ones.bytes(), ones));
    EXPECT_FALSE(BytesContainSignature(zeros.bytes(), ones)) << num_words;
    // A single missing bit in the last word, then in the first.
    for (uint32_t bit : {ones.num_bits() - 1, 0u}) {
      Signature almost(ones.num_bits());
      for (uint32_t i = 0; i < almost.num_bits(); ++i) {
        if (i != bit) almost.SetBit(i);
      }
      EXPECT_FALSE(almost.ContainsAllOf(ones)) << num_words << ":" << bit;
      EXPECT_FALSE(BytesContainSignature(almost.bytes(), ones))
          << num_words << ":" << bit;
    }
  }
}

TEST(SignatureTest, BytesContainSignatureCatchesLastByteMismatch) {
  for (size_t num_bytes = 1; num_bytes <= 200; ++num_bytes) {
    const uint32_t bits = static_cast<uint32_t>(num_bytes * 8);
    Signature query(bits);
    for (uint32_t i = 0; i < bits; ++i) {
      query.SetBit(i);
    }
    std::vector<uint8_t> bytes(num_bytes, 0xff);
    EXPECT_TRUE(BytesContainSignature(bytes, query)) << num_bytes;
    bytes.back() = 0xfe;  // Drop one bit in the final byte.
    EXPECT_FALSE(BytesContainSignature(bytes, query)) << num_bytes;
  }
}

}  // namespace
}  // namespace ir2
