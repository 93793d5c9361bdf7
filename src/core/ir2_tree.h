#ifndef IR2TREE_CORE_IR2_TREE_H_
#define IR2TREE_CORE_IR2_TREE_H_

#include <cstdint>
#include <span>

#include "rtree/rtree_base.h"
#include "text/signature.h"

namespace ir2 {

// The IR2-Tree (Information Retrieval R-Tree) of Section IV: an R-Tree in
// which every entry carries a superimposed-coding signature of the text of
// the object (leaf entries) or of all objects in the subtree (inner
// entries). The signature of a node is the OR of the signatures of its
// entries, so a subtree whose signature lacks a query keyword's bits can be
// pruned wholesale during nearest-neighbor search.
//
// This class uses one signature length for all levels; see Mir2Tree for the
// multilevel variant. All R-Tree maintenance (quadratic split, AdjustTree,
// CondenseTree) is inherited from RTreeBase, with payloads = signatures.
class Ir2Tree : public RTreeBase {
 public:
  // The tree spills into extra contiguous blocks per node to keep the plain
  // R-Tree fan-out, as in the paper (§IV "we allocate additional disk
  // block(s) to an IR2-Tree node when needed").
  Ir2Tree(BufferPool* pool, RTreeOptions options, SignatureConfig signature)
      : RTreeBase(pool, options), signature_(signature) {}

  uint32_t PayloadBytes(uint32_t /*level*/) const override {
    return signature_.bytes();
  }

  // Signature scheme for entries residing in a node at `level`. Uniform
  // here; Mir2Tree overrides with per-level widths.
  virtual SignatureConfig LevelConfig(uint32_t /*level*/) const {
    return signature_;
  }

  // The object's signature at LevelConfig(level).
  void FillObjectPayload(std::span<const uint64_t> word_hashes, uint32_t level,
                         std::span<uint8_t> out) const override;

  PayloadFilter PayloadFilterAt(uint32_t level) const override {
    const SignatureConfig config = LevelConfig(level);
    return {config.bits, config.hashes_per_word};
  }

  // Removes the object previously inserted as (ref, rect); signatures of
  // ancestors are re-tightened by CondenseTree (Figure 8 of the paper).
  StatusOr<bool> DeleteObject(ObjectRef ref, const Rect& rect) {
    return Delete(ref, rect);
  }

  const SignatureConfig& signature_config() const { return signature_; }

 private:
  SignatureConfig signature_;
};

// True iff every set bit of `query` is set in the raw `payload` bytes of an
// entry — the "S matches W" check, performed without copying the payload
// into a Signature.
bool PayloadContainsSignature(std::span<const uint8_t> payload,
                              const Signature& query);

}  // namespace ir2

#endif  // IR2TREE_CORE_IR2_TREE_H_
