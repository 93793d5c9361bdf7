#include "core/mir2_tree.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace ir2 {

MultilevelScheme DeriveMultilevelScheme(uint32_t leaf_bits,
                                        uint32_t hashes_per_word,
                                        double avg_distinct_words_per_object,
                                        uint64_t vocabulary_size,
                                        uint32_t node_capacity,
                                        double expected_fill,
                                        uint32_t max_levels) {
  IR2_CHECK_GT(max_levels, 0u);
  MultilevelScheme scheme;
  scheme.per_level.push_back(SignatureConfig{leaf_bits, hashes_per_word});
  const double vocab = static_cast<double>(vocabulary_size);
  const double d = avg_distinct_words_per_object;
  double objects_per_node = 1.0;
  for (uint32_t level = 1; level < max_levels; ++level) {
    objects_per_node *= node_capacity * expected_fill;
    // Expected distinct words among n objects each drawing d of V words:
    // V * (1 - (1 - d/V)^n), saturating toward the vocabulary size.
    double expected_distinct =
        vocab > 0 ? vocab * (1.0 - std::pow(1.0 - std::min(1.0, d / vocab),
                                            objects_per_node))
                  : d * objects_per_node;
    uint32_t bits = OptimalSignatureBits(expected_distinct, hashes_per_word);
    uint32_t vocab_cap =
        OptimalSignatureBits(vocab > 0 ? vocab : expected_distinct,
                             hashes_per_word);
    bits = std::min(bits, vocab_cap);
    // Never narrower than the level below: superimposing more objects can
    // only need more bits.
    bits = std::max(bits, scheme.per_level.back().bits);
    scheme.per_level.push_back(SignatureConfig{bits, hashes_per_word});
  }
  return scheme;
}

Mir2Tree::Mir2Tree(BufferPool* pool, RTreeOptions options,
                   MultilevelScheme scheme, const ObjectStore* objects,
                   const Tokenizer* tokenizer)
    : Ir2Tree(pool, options, scheme.ForLevel(0)),
      scheme_(std::move(scheme)),
      objects_(objects),
      tokenizer_(tokenizer) {
  IR2_CHECK(objects != nullptr);
  IR2_CHECK(tokenizer != nullptr);
}

StatusOr<std::vector<uint64_t>> Mir2Tree::LoadObjectWordHashes(
    ObjectRef ref) const {
  IR2_ASSIGN_OR_RETURN(StoredObject object, objects_->Load(ref));
  ++maintenance_object_loads_;
  std::vector<std::string> words = tokenizer_->DistinctTokens(object.text);
  std::vector<uint64_t> hashes;
  hashes.reserve(words.size());
  for (const std::string& word : words) {
    hashes.push_back(HashWord(word));
  }
  return hashes;
}

Status Mir2Tree::ComputeNodePayloadForParent(const Node& node,
                                             std::vector<uint8_t>* out) {
  const SignatureConfig config = LevelConfig(node.level + 1);
  // "For each object inserted or deleted, we have to recompute the
  // signatures of all ancestor nodes by accessing all underlying objects."
  std::vector<ObjectRef> refs;
  IR2_RETURN_IF_ERROR(CollectObjectRefs(node.id, &refs));
  Signature sig(config.bits);
  for (ObjectRef ref : refs) {
    IR2_ASSIGN_OR_RETURN(std::vector<uint64_t> hashes,
                         LoadObjectWordHashes(ref));
    for (uint64_t hash : hashes) {
      AddWordHash(hash, config, &sig);
    }
  }
  out->assign(sig.bytes().begin(), sig.bytes().end());
  return Status::Ok();
}

Status Mir2Tree::FixupSubtree(BlockId node_id, const HashSource& source,
                              std::vector<AncestorSlot>* ancestors) {
  IR2_ASSIGN_OR_RETURN(Node node, LoadNode(node_id));
  if (node.is_leaf()) {
    // Leaf entry signatures (level 0) are maintained by InsertObject even
    // in deferred mode; only ancestors need the objects' bits.
    std::vector<uint64_t> hashes;
    for (const Entry& entry : node.entries) {
      IR2_RETURN_IF_ERROR(source(entry.ref, &hashes));
      for (uint64_t hash : hashes) {
        for (AncestorSlot& slot : *ancestors) {
          AddWordHash(hash, slot.config, slot.accumulator);
        }
      }
    }
    return Status::Ok();
  }
  bool changed = false;
  for (Entry& entry : node.entries) {
    const SignatureConfig config = LevelConfig(node.level);
    Signature accumulator(config.bits);
    ancestors->push_back(AncestorSlot{&accumulator, config});
    IR2_RETURN_IF_ERROR(FixupSubtree(entry.ref, source, ancestors));
    ancestors->pop_back();
    std::vector<uint8_t> bytes(accumulator.bytes().begin(),
                               accumulator.bytes().end());
    if (entry.payload != bytes) {
      entry.payload = std::move(bytes);
      changed = true;
    }
  }
  if (changed) {
    IR2_RETURN_IF_ERROR(StoreNode(node));
  }
  return Status::Ok();
}

Status Mir2Tree::RecomputeAllSignatures(const HashSource& source) {
  if (height() == 0) {
    return Status::Ok();  // Root-only tree: leaf signatures are maintained.
  }
  std::vector<AncestorSlot> ancestors;
  return FixupSubtree(root_id(), source, &ancestors);
}

Status Mir2Tree::RecomputeAllSignatures() {
  return RecomputeAllSignatures(
      [this](ObjectRef ref, std::vector<uint64_t>* hashes) {
        IR2_ASSIGN_OR_RETURN(*hashes, LoadObjectWordHashes(ref));
        return Status::Ok();
      });
}

}  // namespace ir2
