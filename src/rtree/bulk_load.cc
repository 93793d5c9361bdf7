#include <algorithm>
#include <cmath>
#include <functional>

#include "common/logging.h"
#include "rtree/rtree_base.h"

namespace ir2 {
namespace {

// Recursive Sort-Tile ordering: sorts [begin, end) of `entries` by center
// coordinate of dimension `dim`, slices into roughly equal slabs sized so
// that the final groups of `group_size` entries tile space, and recurses on
// the next dimension within each slab.
void StrTile(std::vector<Entry>& entries, size_t begin, size_t end,
             uint32_t dim, uint32_t dims, size_t group_size) {
  const size_t n = end - begin;
  auto center_less = [dim](const Entry& a, const Entry& b) {
    return a.rect.lo()[dim] + a.rect.hi()[dim] <
           b.rect.lo()[dim] + b.rect.hi()[dim];
  };
  std::sort(entries.begin() + begin, entries.begin() + end, center_less);
  if (dim + 1 >= dims || n <= group_size) {
    return;
  }
  const double pages =
      std::ceil(static_cast<double>(n) / static_cast<double>(group_size));
  const size_t slabs = static_cast<size_t>(
      std::ceil(std::pow(pages, 1.0 / static_cast<double>(dims - dim))));
  const size_t slab_items = (n + slabs - 1) / slabs;
  for (size_t s = begin; s < end; s += slab_items) {
    StrTile(entries, s, std::min(end, s + slab_items), dim + 1, dims,
            group_size);
  }
}

}  // namespace

Status RTreeBase::BulkLoad(std::span<const BulkObject> objects,
                           double fill_fraction) {
  IR2_CHECK(ready_);
  if (count_ != 0 || root_level_ != 0) {
    return Status::FailedPrecondition("BulkLoad requires an empty tree");
  }
  if (objects.empty()) {
    return Status::Ok();
  }
  // Groups must stay splittable into two >= min_fill halves so the bulk
  // tree satisfies the same fill invariant as an incrementally built one.
  fill_fraction = std::clamp(fill_fraction, 0.1, 1.0);
  const size_t group_size = std::clamp<size_t>(
      static_cast<size_t>(std::lround(capacity_ * fill_fraction)),
      std::max<size_t>(2 * min_fill_, 1), capacity_);

  // Leaf entries in object order, then STR-tiled.
  std::vector<Entry> entries;
  entries.reserve(objects.size());
  for (const BulkObject& object : objects) {
    if (object.rect.dims() != options_.dims) {
      return Status::InvalidArgument("Bulk item dimensionality mismatch");
    }
    Entry entry;
    entry.rect = object.rect;
    entry.ref = object.ref;
    entry.payload.assign(PayloadBytes(0), 0);
    FillObjectPayload(object.word_hashes, 0, entry.payload);
    entries.push_back(std::move(entry));
  }

  // Phase 1: build every level in memory, bottom-up. Inner entries' refs
  // temporarily hold the child's INDEX within the level below; block ids
  // are assigned in phase 2's preorder pass so that every node's children
  // land in one contiguous DFS run on disk (the placement the prefetch
  // scheduler coalesces into sequential reads).
  uint32_t level = 0;
  std::vector<std::vector<Node>> levels;
  while (true) {
    StrTile(entries, 0, entries.size(), 0, options_.dims, group_size);

    // Chop into groups; rebalance the final group up to min_fill by
    // splitting the last two groups' union evenly (group_size >= 2 *
    // min_fill makes both halves legal).
    std::vector<size_t> boundaries;
    for (size_t at = 0; at < entries.size(); at += group_size) {
      boundaries.push_back(at);
    }
    boundaries.push_back(entries.size());
    if (boundaries.size() > 2) {
      size_t last = entries.size() - boundaries[boundaries.size() - 2];
      if (last < min_fill_) {
        size_t union_begin = boundaries[boundaries.size() - 3];
        boundaries[boundaries.size() - 2] =
            union_begin + (entries.size() - union_begin + 1) / 2;
      }
    }

    std::vector<Node> nodes;
    nodes.reserve(boundaries.size() - 1);
    for (size_t g = 0; g + 1 < boundaries.size(); ++g) {
      Node node;
      node.level = level;
      node.entries.assign(
          std::make_move_iterator(entries.begin() + boundaries[g]),
          std::make_move_iterator(entries.begin() + boundaries[g + 1]));
      nodes.push_back(std::move(node));
    }
    levels.push_back(std::move(nodes));

    if (levels.back().size() == 1) {
      break;
    }

    // Build the parent-entry list for the next level up. Parent payloads
    // come from the in-memory child node (the default superimposition, or
    // zeros when deferred), so no block ids are needed yet.
    entries.clear();
    entries.reserve(levels.back().size());
    ++level;
    for (size_t i = 0; i < levels.back().size(); ++i) {
      Node& node = levels.back()[i];
      Entry entry;
      entry.rect = node.BoundingRect();
      entry.ref = static_cast<uint32_t>(i);
      if (options_.defer_inner_payload_maintenance) {
        entry.payload.assign(PayloadBytes(level), 0);
      } else {
        IR2_RETURN_IF_ERROR(
            ComputeNodePayloadForParent(node, &entry.payload));
      }
      entries.push_back(std::move(entry));
    }
  }

  // Phase 2: preorder emission with children-contiguous allocation. For
  // each node, all children are allocated back to back (in entry order)
  // before any is descended into, so sibling node runs are adjacent and a
  // frontier prefetch of several siblings coalesces into one sequential
  // sweep. The block *count* is identical to per-level emission; only the
  // arrangement changes.
  std::function<Status(uint32_t, size_t)> emit =
      [&](uint32_t node_level, size_t index) -> Status {
    Node& node = levels[node_level][index];
    if (node_level == 0) {
      return StoreNode(node);
    }
    std::vector<size_t> child_indices;
    child_indices.reserve(node.entries.size());
    for (Entry& entry : node.entries) {
      child_indices.push_back(entry.ref);
      Node& child = levels[node_level - 1][entry.ref];
      IR2_ASSIGN_OR_RETURN(child.id, AllocateNode(node_level - 1));
      entry.ref = static_cast<uint32_t>(child.id);
    }
    IR2_RETURN_IF_ERROR(StoreNode(node));
    for (size_t child : child_indices) {
      IR2_RETURN_IF_ERROR(emit(node_level - 1, child));
    }
    return Status::Ok();
  };

  const uint32_t root_level = static_cast<uint32_t>(levels.size()) - 1;
  Node& root = levels[root_level].front();
  IR2_ASSIGN_OR_RETURN(root.id, AllocateNode(root_level));
  IR2_RETURN_IF_ERROR(emit(root_level, 0));

  root_id_ = root.id;
  root_level_ = root_level;
  count_ = objects.size();
  return WriteSuperblock();
}

}  // namespace ir2
