#include "core/ir2_tree.h"

#include <cstring>

#include "common/logging.h"

namespace ir2 {

bool PayloadContainsSignature(std::span<const uint8_t> payload,
                              const Signature& query) {
  if (payload.size() != query.num_bytes()) {
    // Width mismatch only happens on a corrupted node; never prune on it
    // (the candidate text check rejects false positives downstream).
    return true;
  }
  return BytesContainSignature(payload, query);
}

void Ir2Tree::FillObjectPayload(std::span<const uint64_t> word_hashes,
                                uint32_t level, std::span<uint8_t> out) const {
  const SignatureConfig config = LevelConfig(level);
  IR2_CHECK_EQ(out.size(), config.bytes());
  Signature sig = MakeSignatureFromHashes(word_hashes, config);
  std::memcpy(out.data(), sig.bytes().data(), out.size());
}

Status Ir2Tree::InsertObject(ObjectRef ref, const Rect& rect,
                             std::span<const std::string> distinct_words) {
  std::vector<uint64_t> hashes;
  hashes.reserve(distinct_words.size());
  for (const std::string& word : distinct_words) {
    hashes.push_back(HashWord(word));
  }
  return InsertObject(ref, rect, hashes);
}

Signature Ir2Tree::QuerySignature(std::span<const uint64_t> keyword_hashes,
                                  uint32_t level) const {
  return MakeSignatureFromHashes(keyword_hashes, LevelConfig(level));
}

}  // namespace ir2
