#ifndef IR2TREE_TEXT_SIGNATURE_H_
#define IR2TREE_TEXT_SIGNATURE_H_

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ir2 {

// The word-wide signature loops reinterpret the uint64_t backing store as
// the little-endian byte string the disk format defines (bit i lives in
// byte i/8, position i%8) — identical layouts only on little-endian hosts.
static_assert(std::endian::native == std::endian::little,
              "Signature word-aligned storage assumes a little-endian host");

// Parameters of the superimposed-coding scheme [FC84]: each word sets
// `hashes_per_word` bits (chosen by independent hashes) in a `bits`-wide bit
// string; a document signature is the OR of its words' signatures.
//
// The paper's signature lengths fit k = 3: 189 bytes = 1512 bits for the
// Hotels dataset's 349 avg words (3*349/ln2 = 1511) and 8 bytes = 64 bits
// for the Restaurants' 14 avg words (3*14/ln2 = 61).
struct SignatureConfig {
  uint32_t bits = 64;
  uint32_t hashes_per_word = 3;

  uint32_t bytes() const { return (bits + 7) / 8; }

  friend bool operator==(const SignatureConfig& a, const SignatureConfig& b) {
    return a.bits == b.bits && a.hashes_per_word == b.hashes_per_word;
  }
};

// Optimal signature length in bits for documents of `distinct_words` words
// with k hash functions: F = k * D / ln 2, the false-positive-minimizing
// weight (half the bits set in expectation) [MC94].
uint32_t OptimalSignatureBits(double distinct_words, uint32_t hashes_per_word);

// Expected false-positive probability of a single-word membership test
// against a signature of `bits` bits holding `distinct_words` words:
// (1 - e^{-kD/F})^k, the Bloom-filter bound.
double ExpectedFalsePositiveRate(double distinct_words, uint32_t bits,
                                 uint32_t hashes_per_word);

// A fixed-width bit string. Width is set at construction (or by Reset) and
// all binary operations require equal widths.
//
// Storage is an array of uint64_t words, so Superimpose / ContainsAllOf —
// the innermost comparisons of IR2TopK — run word-wide (AND/OR over 64
// bits at a time) instead of byte-wide. Bits
// past num_bits() up to the word boundary are always zero, which keeps the
// word loops free of tail masking. The serialized form (bytes()) is the
// unchanged byte-granular disk layout: (num_bits + 7) / 8 bytes.
class Signature {
 public:
  static constexpr uint32_t kWordBits = 64;

  Signature() = default;
  explicit Signature(uint32_t num_bits) { Reset(num_bits); }

  // Reinitializes to `num_bits` zero bits.
  void Reset(uint32_t num_bits);

  uint32_t num_bits() const { return num_bits_; }
  size_t num_bytes() const { return (num_bits_ + 7) / 8; }
  size_t num_words() const { return words_.size(); }
  bool empty() const { return num_bits_ == 0; }

  void SetBit(uint32_t i);
  bool TestBit(uint32_t i) const;

  // this |= other (superimposition).
  void Superimpose(const Signature& other);

  // True iff every bit set in `query` is also set here — the signature
  // match test "S matches W" of the paper's IR2NearestNeighbor.
  bool ContainsAllOf(const Signature& query) const;

  void ClearAllBits();

  // The on-disk byte form: the first (num_bits + 7) / 8 bytes of the word
  // array, which on a little-endian host is exactly the historical
  // byte-vector layout.
  std::span<const uint8_t> bytes() const {
    return {reinterpret_cast<const uint8_t*>(words_.data()), num_bytes()};
  }
  std::span<uint8_t> mutable_bytes() {
    return {reinterpret_cast<uint8_t*>(words_.data()), num_bytes()};
  }

  // Word-aligned view for loops that test raw payload bytes against this
  // signature (see BytesContainSignature).
  std::span<const uint64_t> words() const { return words_; }

  // Deserializes from raw bytes previously produced by bytes().
  static Signature FromBytes(std::span<const uint8_t> bytes,
                             uint32_t num_bits);

  friend bool operator==(const Signature& a, const Signature& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

  // E.g. "0110..01" for small signatures (debugging).
  std::string ToBitString() const;

 private:
  uint32_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

// True iff every bit set in `query` is also set in `bytes`, a raw
// little-endian bit string of exactly query.num_bytes() bytes (e.g. a tree
// entry payload or a signature-file record). The word-wide loop behind
// every "S matches W" test; `bytes` may be unaligned.
bool BytesContainSignature(std::span<const uint8_t> bytes,
                           const Signature& query);

// Computes the k = config.hashes_per_word bit positions of a word (given its
// stable 64-bit hash, see Fnv1a64) and sets them in `sig`.
void AddWordHash(uint64_t word_hash, const SignatureConfig& config,
                 Signature* sig);

// True iff all k bit positions of the word are set — a (possibly false
// positive) single-word membership test.
bool MayContainWordHash(const Signature& sig, uint64_t word_hash,
                        const SignatureConfig& config);

// Builds a signature from pre-hashed words (one Fnv1a64 value per word).
Signature MakeSignatureFromHashes(std::span<const uint64_t> word_hashes,
                                  const SignatureConfig& config);

// In-place variant: Reset()s `out` to config.bits and superimposes the word
// hashes, reusing out's word storage — the allocation-free form the warm
// query path uses to rebuild per-level query signatures in a scratch buffer.
void MakeSignatureFromHashesInto(std::span<const uint64_t> word_hashes,
                                 const SignatureConfig& config,
                                 Signature* out);

// Stable hash of a (normalized) word used for all signature operations.
uint64_t HashWord(std::string_view normalized_word);

}  // namespace ir2

#endif  // IR2TREE_TEXT_SIGNATURE_H_
