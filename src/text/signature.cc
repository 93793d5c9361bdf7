#include "text/signature.h"

#include <cmath>
#include <cstring>

#include "common/hash.h"
#include "common/logging.h"

namespace ir2 {

uint32_t OptimalSignatureBits(double distinct_words,
                              uint32_t hashes_per_word) {
  IR2_CHECK_GT(hashes_per_word, 0u);
  if (distinct_words <= 0) {
    return 8;  // Minimum one byte.
  }
  double bits = hashes_per_word * distinct_words / std::log(2.0);
  uint32_t rounded = static_cast<uint32_t>(std::ceil(bits));
  // Round up to whole bytes so on-disk layouts stay byte aligned.
  return ((rounded + 7) / 8) * 8;
}

double ExpectedFalsePositiveRate(double distinct_words, uint32_t bits,
                                 uint32_t hashes_per_word) {
  if (bits == 0) return 1.0;
  double k = hashes_per_word;
  double fill = 1.0 - std::exp(-k * distinct_words / bits);
  return std::pow(fill, k);
}

void Signature::Reset(uint32_t num_bits) {
  num_bits_ = num_bits;
  words_.assign((num_bits + kWordBits - 1) / kWordBits, 0);
}

void Signature::SetBit(uint32_t i) {
  IR2_DCHECK(i < num_bits_);
  words_[i >> 6] |= uint64_t{1} << (i & 63);
}

bool Signature::TestBit(uint32_t i) const {
  IR2_DCHECK(i < num_bits_);
  return (words_[i >> 6] >> (i & 63)) & 1u;
}

void Signature::Superimpose(const Signature& other) {
  IR2_CHECK_EQ(num_bits_, other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= other.words_[i];
  }
}

bool Signature::ContainsAllOf(const Signature& query) const {
  IR2_CHECK_EQ(num_bits_, query.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & query.words_[i]) != query.words_[i]) {
      return false;
    }
  }
  return true;
}

void Signature::ClearAllBits() {
  std::fill(words_.begin(), words_.end(), uint64_t{0});
}

Signature Signature::FromBytes(std::span<const uint8_t> bytes,
                               uint32_t num_bits) {
  IR2_CHECK_EQ(bytes.size(), (num_bits + 7) / 8);
  Signature sig(num_bits);  // Zero-filled words: tail bytes stay zero.
  std::memcpy(sig.words_.data(), bytes.data(), bytes.size());
  return sig;
}

std::string Signature::ToBitString() const {
  std::string out;
  out.reserve(num_bits_);
  for (uint32_t i = 0; i < num_bits_; ++i) {
    out.push_back(TestBit(i) ? '1' : '0');
  }
  return out;
}

bool BytesContainSignature(std::span<const uint8_t> bytes,
                           const Signature& query) {
  IR2_DCHECK(bytes.size() == query.num_bytes());
  // `bytes` may be unaligned (tree entry payloads, signature-file records),
  // so each word is memcpy-loaded; the query's words are aligned and zero
  // past num_bytes(), so the partial last word is zero-extended and
  // compared like any other.
  const std::span<const uint64_t> query_words = query.words();
  const size_t full_words = bytes.size() / sizeof(uint64_t);
  for (size_t w = 0; w < full_words; ++w) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + w * sizeof(uint64_t), sizeof(word));
    if ((word & query_words[w]) != query_words[w]) {
      return false;
    }
  }
  const size_t tail = bytes.size() - full_words * sizeof(uint64_t);
  if (tail == 0) {
    return true;
  }
  uint64_t word = 0;
  std::memcpy(&word, bytes.data() + full_words * sizeof(uint64_t), tail);
  return (word & query_words[full_words]) == query_words[full_words];
}

void AddWordHash(uint64_t word_hash, const SignatureConfig& config,
                 Signature* sig) {
  IR2_DCHECK(sig->num_bits() == config.bits);
  for (uint32_t i = 0; i < config.hashes_per_word; ++i) {
    sig->SetBit(static_cast<uint32_t>(NthHash(word_hash, i) % config.bits));
  }
}

bool MayContainWordHash(const Signature& sig, uint64_t word_hash,
                        const SignatureConfig& config) {
  IR2_DCHECK(sig.num_bits() == config.bits);
  for (uint32_t i = 0; i < config.hashes_per_word; ++i) {
    if (!sig.TestBit(
            static_cast<uint32_t>(NthHash(word_hash, i) % config.bits))) {
      return false;
    }
  }
  return true;
}

uint64_t HashWord(std::string_view normalized_word) {
  return Fnv1a64(normalized_word);
}

Signature MakeSignatureFromHashes(std::span<const uint64_t> word_hashes,
                                  const SignatureConfig& config) {
  Signature sig(config.bits);
  for (uint64_t hash : word_hashes) {
    AddWordHash(hash, config, &sig);
  }
  return sig;
}

void MakeSignatureFromHashesInto(std::span<const uint64_t> word_hashes,
                                 const SignatureConfig& config,
                                 Signature* out) {
  out->Reset(config.bits);
  for (uint64_t hash : word_hashes) {
    AddWordHash(hash, config, out);
  }
}

}  // namespace ir2
