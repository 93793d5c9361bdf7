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

}  // namespace ir2
