#ifndef IR2TREE_RTREE_RTREE_H_
#define IR2TREE_RTREE_RTREE_H_

#include "rtree/rtree_base.h"

namespace ir2 {

// The classic Guttman R-Tree: RTreeBase with zero-byte payloads, so each
// node occupies exactly one disk block (113 entries at the paper's 4096-byte
// blocks). This is the index behind the paper's "R-Tree" baseline algorithm.
class RTree final : public RTreeBase {
 public:
  RTree(BufferPool* pool, RTreeOptions options = {})
      : RTreeBase(pool, options) {}

  uint32_t PayloadBytes(uint32_t /*level*/) const override { return 0; }
  // No payload, so nothing to fill.
  void FillObjectPayload(std::span<const uint64_t>, uint32_t,
                         std::span<uint8_t>) const override {}

  // Convenience: plain R-Tree entries carry no payload, so no words.
  Status Insert(ObjectRef ref, const Rect& rect) {
    return InsertObject(ref, rect, {});
  }
};

}  // namespace ir2

#endif  // IR2TREE_RTREE_RTREE_H_
