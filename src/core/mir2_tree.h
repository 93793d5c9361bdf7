#ifndef IR2TREE_CORE_MIR2_TREE_H_
#define IR2TREE_CORE_MIR2_TREE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/ir2_tree.h"
#include "storage/object_store.h"
#include "text/tokenizer.h"

namespace ir2 {

// Per-level signature widths of a Multilevel IR2-Tree. Index = node level
// (0 = leaf); levels beyond the vector reuse the last width.
struct MultilevelScheme {
  std::vector<SignatureConfig> per_level;

  SignatureConfig ForLevel(uint32_t level) const {
    IR2_CHECK(!per_level.empty());
    if (level >= per_level.size()) {
      return per_level.back();
    }
    return per_level[level];
  }
};

// Derives a multilevel scheme from dataset statistics: level 0 uses
// `leaf_bits`; level L uses the [MC94] optimal width for the expected number
// of distinct words in a subtree of (capacity * fill)^L objects, modeling
// vocabulary saturation as V * (1 - (1 - d/V)^n). Widths are capped at the
// all-vocabulary optimum.
MultilevelScheme DeriveMultilevelScheme(uint32_t leaf_bits,
                                        uint32_t hashes_per_word,
                                        double avg_distinct_words_per_object,
                                        uint64_t vocabulary_size,
                                        uint32_t node_capacity,
                                        double expected_fill,
                                        uint32_t max_levels);

// The Multilevel IR2-Tree (MIR2-Tree) of Section IV: signature widths vary
// per level ("multi-level superimposed coding" [CS89, DR83, LKP95]), and an
// inner entry's signature superimposes the level-specific signatures of
// *all objects in its subtree* — not the (differently sized) signatures of
// its children. This cuts false positives at the higher levels, at the cost
// the paper highlights: recomputing a node's signature requires accessing
// all underlying objects, making Insert (on splits) and Delete expensive.
//
// For bulk loading, construct with RTreeOptions::
// defer_inner_payload_maintenance = true, insert everything, then call
// RecomputeAllSignatures() — one pass that reads each object's words once.
class Mir2Tree final : public Ir2Tree {
 public:
  // Writes the word hashes (HashWord of each distinct word) of the object
  // stored under `ref` into `*hashes`, replacing its contents.
  using HashSource =
      std::function<Status(ObjectRef ref, std::vector<uint64_t>* hashes)>;

  // `objects` and `tokenizer` are used to re-derive object words during
  // signature recomputation; both must outlive the tree.
  Mir2Tree(BufferPool* pool, RTreeOptions options, MultilevelScheme scheme,
           const ObjectStore* objects, const Tokenizer* tokenizer);

  uint32_t PayloadBytes(uint32_t level) const override {
    return scheme_.ForLevel(level).bytes();
  }

  SignatureConfig LevelConfig(uint32_t level) const override {
    return scheme_.ForLevel(level);
  }

  // Rebuilds every inner-node signature bottom-up in one pass, asking
  // `source` once per object. Required after a deferred-maintenance bulk
  // load; also usable to re-tighten signatures after many updates. The
  // database build passes hashes from its tokenized corpus and loads no
  // object.
  Status RecomputeAllSignatures(const HashSource& source);
  // The same pass over the object-loading source: each object is loaded
  // from the store and tokenized once (counted in
  // maintenance_object_loads).
  Status RecomputeAllSignatures();

  // Objects loaded from the store for signature maintenance (the metric the
  // ablation bench reports for update cost).
  uint64_t maintenance_object_loads() const {
    return maintenance_object_loads_;
  }

  const MultilevelScheme& scheme() const { return scheme_; }

 protected:
  // Superimposes the LevelConfig(node.level + 1) signatures of every object
  // under `node` — the paper's expensive recomputation.
  Status ComputeNodePayloadForParent(const Node& node,
                                     std::vector<uint8_t>* out) override;

 private:
  StatusOr<std::vector<uint64_t>> LoadObjectWordHashes(ObjectRef ref) const;

  struct AncestorSlot {
    Signature* accumulator;
    SignatureConfig config;
  };
  Status FixupSubtree(BlockId node_id, const HashSource& source,
                      std::vector<AncestorSlot>* ancestors);

  MultilevelScheme scheme_;
  const ObjectStore* objects_;
  const Tokenizer* tokenizer_;
  mutable uint64_t maintenance_object_loads_ = 0;
};

}  // namespace ir2

#endif  // IR2TREE_CORE_MIR2_TREE_H_
