#include "rtree/rtree_base.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/logging.h"
#include "obs/metrics.h"
#include "storage/serializer.h"

namespace ir2 {
namespace {

constexpr uint64_t kSuperMagic = 0x3252542065657254ULL;  // "Tree TR2" (le).
constexpr uint32_t kNodeMagic = 0x45444f4eu;             // "NODE" (le).
constexpr size_t kNodeHeaderBytes = 8;
constexpr size_t kRefBytes = 4;

Rect BoundingRectOf(const std::vector<Entry>& entries) {
  IR2_CHECK(!entries.empty());
  Rect bound = entries[0].rect;
  for (size_t i = 1; i < entries.size(); ++i) {
    bound = bound.UnionWith(entries[i].rect);
  }
  return bound;
}

// Node deserializations across all trees and threads; the warm-path benches
// diff it around a run to report the decode tax.
std::atomic<uint64_t> g_node_decodes{0};
// The calling thread's share of g_node_decodes; queries diff it into
// QueryStats::node_decodes the way demand_io diffs the pools' thread stats.
thread_local uint64_t t_node_decodes = 0;

}  // namespace

uint64_t RTreeBase::TotalNodeDecodes() {
  return g_node_decodes.load(std::memory_order_relaxed);
}

uint64_t RTreeBase::ThreadNodeDecodes() { return t_node_decodes; }

Rect Node::BoundingRect() const { return BoundingRectOf(entries); }

RTreeBase::RTreeBase(BufferPool* pool, RTreeOptions options)
    : pool_(pool), options_(options) {
  IR2_CHECK(pool != nullptr);
  IR2_CHECK_GT(options_.dims, 0u);
  IR2_CHECK_LE(options_.dims, Point::kMaxDims);
  const size_t block_size = pool_->block_size();
  const uint32_t plain_entry_bytes =
      2 * sizeof(double) * options_.dims + kRefBytes;
  if (options_.capacity_override > 0) {
    capacity_ = options_.capacity_override;
  } else {
    capacity_ =
        static_cast<uint32_t>((block_size - kNodeHeaderBytes) /
                              plain_entry_bytes);
  }
  IR2_CHECK_GE(capacity_, 2u);
  min_fill_ = std::max<uint32_t>(
      1, static_cast<uint32_t>(capacity_ * options_.min_fill_fraction));
  min_fill_ = std::min(min_fill_, capacity_ / 2);
  min_fill_ = std::max<uint32_t>(min_fill_, 1);
}

uint32_t RTreeBase::EntryBytes(uint32_t level) const {
  return 2 * sizeof(double) * options_.dims + kRefBytes + PayloadBytes(level);
}

uint32_t RTreeBase::NodeBytes(uint32_t level) const {
  return kNodeHeaderBytes + capacity_ * EntryBytes(level);
}

uint32_t RTreeBase::BlocksPerNode(uint32_t level) const {
  const size_t block_size = pool_->block_size();
  return static_cast<uint32_t>((NodeBytes(level) + block_size - 1) /
                               block_size);
}

uint32_t RTreeBase::BlocksUsed(uint32_t level, uint32_t entry_count) const {
  const size_t block_size = pool_->block_size();
  const size_t bytes = kNodeHeaderBytes +
                       static_cast<size_t>(entry_count) * EntryBytes(level);
  return std::max<uint32_t>(
      1, static_cast<uint32_t>((bytes + block_size - 1) / block_size));
}

StatusOr<BlockId> RTreeBase::AllocateNode(uint32_t level) {
  IR2_ASSIGN_OR_RETURN(BlockId id, pool_->Allocate(BlocksPerNode(level)));
  if (id > std::numeric_limits<uint32_t>::max()) {
    return Status::ResourceExhausted("Tree device exceeds 32-bit block ids");
  }
  return id;
}

Status RTreeBase::Init() {
  IR2_CHECK(!ready_);
  if (options_.manage_superblock) {
    IR2_CHECK_EQ(pool_->device()->NumBlocks(), 0u);
    IR2_ASSIGN_OR_RETURN(BlockId super, pool_->Allocate(1));
    IR2_CHECK_EQ(super, 0u);
  }
  IR2_ASSIGN_OR_RETURN(root_id_, AllocateNode(0));
  root_level_ = 0;
  count_ = 0;
  ready_ = true;
  Node root;
  root.id = root_id_;
  root.level = 0;
  IR2_RETURN_IF_ERROR(StoreNode(root));
  return WriteSuperblock();
}

Status RTreeBase::WriteSuperblock() {
  if (!options_.manage_superblock) {
    return Status::Ok();
  }
  std::vector<uint8_t> block(pool_->block_size(), 0);
  BufferWriter writer(block);
  writer.PutU64(kSuperMagic);
  writer.PutU32(options_.dims);
  writer.PutU32(capacity_);
  writer.PutU64(root_id_);
  writer.PutU32(root_level_);
  writer.PutU64(count_);
  return pool_->Write(0, block);
}

Status RTreeBase::Load() {
  IR2_CHECK(!ready_);
  IR2_CHECK(options_.manage_superblock)
      << "shared-device trees have no superblock to load";
  std::vector<uint8_t> block(pool_->block_size());
  IR2_RETURN_IF_ERROR(pool_->Read(0, block));
  BufferReader reader(block);
  if (reader.GetU64() != kSuperMagic) {
    return Status::Corruption("Bad R-Tree superblock magic");
  }
  uint32_t dims = reader.GetU32();
  uint32_t capacity = reader.GetU32();
  if (dims != options_.dims) {
    return Status::InvalidArgument("Tree dims mismatch");
  }
  if (capacity != capacity_) {
    return Status::InvalidArgument("Tree capacity mismatch");
  }
  root_id_ = reader.GetU64();
  root_level_ = reader.GetU32();
  count_ = reader.GetU64();
  ready_ = true;
  return Status::Ok();
}

Status RTreeBase::Flush() {
  IR2_RETURN_IF_ERROR(WriteSuperblock());
  return pool_->FlushAll();
}

Status RTreeBase::StoreNode(const Node& node) {
  // Any node write invalidates decoded-node caches: the NodeCache compares
  // the version it decoded at against this counter on every access.
  version_.fetch_add(1, std::memory_order_release);
  IR2_CHECK(node.id != kInvalidBlockId);
  IR2_CHECK_LE(node.entries.size(), static_cast<size_t>(capacity_));
  const size_t block_size = pool_->block_size();
  // Only the blocks covering live entries are written ("we allocate
  // additional disk block(s) to an IR2-Tree node when needed"); the node's
  // allocation reserves room to grow to full capacity in place.
  const uint32_t nblocks =
      BlocksUsed(node.level, static_cast<uint32_t>(node.entries.size()));
  const uint32_t payload_bytes = PayloadBytes(node.level);
  std::vector<uint8_t> buffer(static_cast<size_t>(nblocks) * block_size, 0);
  BufferWriter writer(buffer);
  writer.PutU8(static_cast<uint8_t>(node.level));
  writer.PutU8(0);  // flags
  writer.PutU16(static_cast<uint16_t>(node.entries.size()));
  writer.PutU32(kNodeMagic);
  for (const Entry& entry : node.entries) {
    IR2_CHECK_EQ(entry.rect.dims(), options_.dims);
    IR2_CHECK_EQ(entry.payload.size(), payload_bytes);
    for (uint32_t d = 0; d < options_.dims; ++d) {
      writer.PutDouble(entry.rect.lo()[d]);
    }
    for (uint32_t d = 0; d < options_.dims; ++d) {
      writer.PutDouble(entry.rect.hi()[d]);
    }
    writer.PutU32(entry.ref);
    writer.PutBytes(entry.payload);
  }
  for (uint32_t b = 0; b < nblocks; ++b) {
    IR2_RETURN_IF_ERROR(pool_->Write(
        node.id + b,
        std::span<const uint8_t>(buffer.data() + b * block_size, block_size)));
  }
  return Status::Ok();
}

StatusOr<Node> RTreeBase::LoadNode(BlockId id, BufferPool* pool) const {
  if (pool == nullptr) pool = pool_;
  const size_t block_size = pool->block_size();
  std::vector<uint8_t> buffer(block_size);
  IR2_RETURN_IF_ERROR(pool->Read(id, buffer));
  const uint32_t level = buffer[0];
  const uint32_t count = DecodeU16(buffer.data() + 2);
  const uint32_t nblocks = BlocksUsed(level, count);
  if (nblocks > 1) {
    buffer.resize(static_cast<size_t>(nblocks) * block_size);
    for (uint32_t b = 1; b < nblocks; ++b) {
      IR2_RETURN_IF_ERROR(pool->Read(
          id + b,
          std::span<uint8_t>(buffer.data() + b * block_size, block_size)));
    }
  }
  g_node_decodes.fetch_add(1, std::memory_order_relaxed);
  ++t_node_decodes;
  obs::DefaultMetrics().node_decodes->Add();
  BufferReader reader(buffer);
  Node node;
  node.id = id;
  node.level = reader.GetU8();
  reader.GetU8();  // flags
  const uint16_t entry_count = reader.GetU16();
  if (reader.GetU32() != kNodeMagic) {
    return Status::Corruption("Bad node magic");
  }
  if (entry_count > capacity_) {
    return Status::Corruption("Node entry count exceeds capacity");
  }
  const uint32_t payload_bytes = PayloadBytes(node.level);
  node.entries.reserve(entry_count);
  for (uint16_t i = 0; i < entry_count; ++i) {
    Entry entry;
    Point lo, hi;
    std::array<double, Point::kMaxDims> coords{};
    for (uint32_t d = 0; d < options_.dims; ++d) {
      coords[d] = reader.GetDouble();
    }
    lo = Point(std::span<const double>(coords.data(), options_.dims));
    for (uint32_t d = 0; d < options_.dims; ++d) {
      coords[d] = reader.GetDouble();
    }
    hi = Point(std::span<const double>(coords.data(), options_.dims));
    entry.rect = Rect(lo, hi);
    entry.ref = reader.GetU32();
    entry.payload.resize(payload_bytes);
    reader.GetBytes(entry.payload);
    node.entries.push_back(std::move(entry));
  }
  return node;
}

StatusOr<std::shared_ptr<const Node>> RTreeBase::LoadNodeShared(
    BlockId id, BufferPool* pool) const {
  if (node_cache_ == nullptr) {
    IR2_ASSIGN_OR_RETURN(Node node, LoadNode(id, pool));
    return std::make_shared<const Node>(std::move(node));
  }
  const uint64_t version = this->version();
  if (NodeCache::NodeRef cached = node_cache_->Lookup(id, version)) {
    return std::shared_ptr<const Node>(std::move(cached));
  }
  IR2_ASSIGN_OR_RETURN(Node node, LoadNode(id, pool));
  auto ref = std::make_shared<const Node>(std::move(node));
  node_cache_->Insert(id, version, ref);
  return std::shared_ptr<const Node>(std::move(ref));
}

Status RTreeBase::ComputeNodePayloadForParent(const Node& node,
                                              std::vector<uint8_t>* out) {
  const uint32_t parent_payload = PayloadBytes(node.level + 1);
  out->assign(parent_payload, 0);
  if (parent_payload == 0) {
    return Status::Ok();
  }
  for (const Entry& entry : node.entries) {
    if (entry.payload.size() != out->size()) {
      return Status::Internal(
          "Default payload superimposition requires uniform payload widths");
    }
    for (size_t i = 0; i < out->size(); ++i) {
      (*out)[i] |= entry.payload[i];
    }
  }
  return Status::Ok();
}

StatusOr<std::vector<RTreeBase::PathStep>> RTreeBase::ChoosePath(
    const Rect& rect, uint32_t target_level) const {
  IR2_CHECK(ready_);
  IR2_CHECK_LE(target_level, root_level_);
  std::vector<PathStep> path;
  IR2_ASSIGN_OR_RETURN(Node node, LoadNode(root_id_));
  while (node.level > target_level) {
    // ChooseLeaf/ChooseSubtree [Gut84]: least enlargement, ties by area.
    int best = -1;
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const Rect& candidate = node.entries[i].rect;
      double enlargement = candidate.Enlargement(rect);
      double area = candidate.Area();
      if (enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area)) {
        best = static_cast<int>(i);
        best_enlargement = enlargement;
        best_area = area;
      }
    }
    if (best < 0) {
      return Status::Corruption("Inner node with no entries during descent");
    }
    BlockId child_id = node.entries[best].ref;
    path.push_back(PathStep{std::move(node), best});
    IR2_ASSIGN_OR_RETURN(node, LoadNode(child_id));
  }
  path.push_back(PathStep{std::move(node), -1});
  return path;
}

StatusOr<std::vector<RTreeBase::PathStep>> RTreeBase::FindLeafPath(
    ObjectRef ref, const Rect& rect) const {
  IR2_CHECK(ready_);
  std::vector<PathStep> path;
  // Iterative DFS that maintains the current root-to-node path. Each frame
  // remembers which entry to try next.
  struct Frame {
    Node node;
    size_t next = 0;
  };
  std::vector<Frame> stack;
  IR2_ASSIGN_OR_RETURN(Node root, LoadNode(root_id_));
  stack.push_back(Frame{std::move(root), 0});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    Node& node = frame.node;
    if (node.is_leaf()) {
      for (size_t i = 0; i < node.entries.size(); ++i) {
        const Entry& entry = node.entries[i];
        if (entry.ref == ref && entry.rect == rect) {
          for (Frame& f : stack) {
            path.push_back(PathStep{std::move(f.node), -1});
          }
          // Fix up child indices: each step's child_index points at the
          // entry leading to the next step; the leaf's index is the match.
          for (size_t level = 0; level + 1 < path.size(); ++level) {
            const BlockId next_id = path[level + 1].node.id;
            for (size_t e = 0; e < path[level].node.entries.size(); ++e) {
              if (path[level].node.entries[e].ref == next_id) {
                path[level].child_index = static_cast<int>(e);
                break;
              }
            }
            IR2_CHECK_GE(path[level].child_index, 0);
          }
          path.back().child_index = static_cast<int>(i);
          return path;
        }
      }
      stack.pop_back();
      continue;
    }
    bool descended = false;
    while (frame.next < node.entries.size()) {
      const Entry& entry = node.entries[frame.next];
      ++frame.next;
      if (entry.rect.Contains(rect)) {
        IR2_ASSIGN_OR_RETURN(Node child, LoadNode(entry.ref));
        // Note: push_back may invalidate `frame`/`node`; both are dead here.
        stack.push_back(Frame{std::move(child), 0});
        descended = true;
        break;
      }
    }
    if (!descended) {
      stack.pop_back();  // Every candidate entry exhausted.
    }
  }
  return std::vector<PathStep>();  // Not found.
}

void RTreeBase::QuadraticPartition(std::vector<Entry> entries,
                                   std::vector<Entry>* group_a,
                                   std::vector<Entry>* group_b) const {
  IR2_CHECK_GE(entries.size(), 2u);
  group_a->clear();
  group_b->clear();

  // PickSeeds: the pair wasting the most area if grouped together.
  size_t seed_a = 0, seed_b = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size(); ++j) {
      double waste = entries[i].rect.UnionWith(entries[j].rect).Area() -
                     entries[i].rect.Area() - entries[j].rect.Area();
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }
  Rect rect_a = entries[seed_a].rect;
  Rect rect_b = entries[seed_b].rect;
  group_a->push_back(std::move(entries[seed_a]));
  group_b->push_back(std::move(entries[seed_b]));
  // Remove seeds (seed_a < seed_b).
  entries.erase(entries.begin() + seed_b);
  entries.erase(entries.begin() + seed_a);

  while (!entries.empty()) {
    // If one group needs every remaining entry to reach min fill, give them
    // all to it.
    if (group_a->size() + entries.size() == min_fill_) {
      for (Entry& e : entries) {
        rect_a = rect_a.UnionWith(e.rect);
        group_a->push_back(std::move(e));
      }
      break;
    }
    if (group_b->size() + entries.size() == min_fill_) {
      for (Entry& e : entries) {
        rect_b = rect_b.UnionWith(e.rect);
        group_b->push_back(std::move(e));
      }
      break;
    }
    // PickNext: entry with the greatest preference for one group.
    size_t pick = 0;
    double best_diff = -1.0;
    double pick_d1 = 0.0, pick_d2 = 0.0;
    for (size_t i = 0; i < entries.size(); ++i) {
      double d1 = rect_a.Enlargement(entries[i].rect);
      double d2 = rect_b.Enlargement(entries[i].rect);
      double diff = std::abs(d1 - d2);
      if (diff > best_diff) {
        best_diff = diff;
        pick = i;
        pick_d1 = d1;
        pick_d2 = d2;
      }
    }
    Entry chosen = std::move(entries[pick]);
    entries.erase(entries.begin() + pick);
    bool to_a;
    if (pick_d1 != pick_d2) {
      to_a = pick_d1 < pick_d2;
    } else if (rect_a.Area() != rect_b.Area()) {
      to_a = rect_a.Area() < rect_b.Area();
    } else {
      to_a = group_a->size() <= group_b->size();
    }
    if (to_a) {
      rect_a = rect_a.UnionWith(chosen.rect);
      group_a->push_back(std::move(chosen));
    } else {
      rect_b = rect_b.UnionWith(chosen.rect);
      group_b->push_back(std::move(chosen));
    }
  }
}

void RTreeBase::RStarPartition(std::vector<Entry> entries,
                               std::vector<Entry>* group_a,
                               std::vector<Entry>* group_b) const {
  IR2_CHECK_GE(entries.size(), 2u);
  const size_t total = entries.size();
  const size_t m = std::max<size_t>(1, min_fill_);
  // Split positions: first group takes the first `m + j` entries of a
  // sorted order, j in [0, total - 2m].
  IR2_CHECK_GE(total, 2 * m);

  // For a sorted arrangement, prefix_bb[i] bounds entries [0, i], and
  // suffix_bb[i] bounds entries [i, total).
  auto evaluate = [&](const std::vector<Entry>& sorted, double* margin_sum,
                      size_t* best_split, double* best_overlap,
                      double* best_area) {
    std::vector<Rect> prefix(total), suffix(total);
    prefix[0] = sorted[0].rect;
    for (size_t i = 1; i < total; ++i) {
      prefix[i] = prefix[i - 1].UnionWith(sorted[i].rect);
    }
    suffix[total - 1] = sorted[total - 1].rect;
    for (size_t i = total - 1; i-- > 0;) {
      suffix[i] = suffix[i + 1].UnionWith(sorted[i].rect);
    }
    *margin_sum = 0.0;
    *best_overlap = std::numeric_limits<double>::infinity();
    *best_area = std::numeric_limits<double>::infinity();
    *best_split = m;
    for (size_t first = m; first + m <= total; ++first) {
      const Rect& bb1 = prefix[first - 1];
      const Rect& bb2 = suffix[first];
      *margin_sum += bb1.Margin() + bb2.Margin();
      double overlap = bb1.IntersectionArea(bb2);
      double area = bb1.Area() + bb2.Area();
      if (overlap < *best_overlap ||
          (overlap == *best_overlap && area < *best_area)) {
        *best_overlap = overlap;
        *best_area = area;
        *best_split = first;
      }
    }
  };

  // ChooseSplitAxis: the axis (and lo/hi sort) minimizing the margin sum.
  double best_margin = std::numeric_limits<double>::infinity();
  std::vector<Entry> best_order;
  size_t best_split = m;
  for (uint32_t axis = 0; axis < options_.dims; ++axis) {
    for (bool by_upper : {false, true}) {
      std::vector<Entry> sorted = entries;
      std::sort(sorted.begin(), sorted.end(),
                [axis, by_upper](const Entry& a, const Entry& b) {
                  double ka = by_upper ? a.rect.hi()[axis] : a.rect.lo()[axis];
                  double kb = by_upper ? b.rect.hi()[axis] : b.rect.lo()[axis];
                  if (ka != kb) return ka < kb;
                  // Secondary key keeps the order deterministic.
                  return a.rect.hi()[axis] < b.rect.hi()[axis];
                });
      double margin_sum, overlap, area;
      size_t split;
      evaluate(sorted, &margin_sum, &split, &overlap, &area);
      if (margin_sum < best_margin) {
        best_margin = margin_sum;
        best_order = std::move(sorted);
        best_split = split;
      }
    }
  }

  group_a->assign(std::make_move_iterator(best_order.begin()),
                  std::make_move_iterator(best_order.begin() + best_split));
  group_b->assign(std::make_move_iterator(best_order.begin() + best_split),
                  std::make_move_iterator(best_order.end()));
}

void RTreeBase::TakeFarthestEntries(Node* node,
                                    std::vector<Entry>* removed) const {
  const size_t total = node->entries.size();
  size_t count = static_cast<size_t>(
      static_cast<double>(total) * options_.forced_reinsert_fraction);
  count = std::clamp<size_t>(count, 1, total - min_fill_);
  const Point center = node->BoundingRect().Center();
  // Farthest-from-center first; the tail stays in the node.
  std::sort(node->entries.begin(), node->entries.end(),
            [&center](const Entry& a, const Entry& b) {
              return DistanceSquared(a.rect.Center(), center) >
                     DistanceSquared(b.rect.Center(), center);
            });
  removed->assign(std::make_move_iterator(node->entries.begin()),
                  std::make_move_iterator(node->entries.begin() + count));
  node->entries.erase(node->entries.begin(),
                      node->entries.begin() + count);
  // "Close reinsert": re-insert the least-far entries first.
  std::reverse(removed->begin(), removed->end());
}

StatusOr<Node> RTreeBase::SplitNode(Node* node) {
  std::vector<Entry> group_a, group_b;
  if (options_.split_policy == SplitPolicy::kRStar) {
    RStarPartition(std::move(node->entries), &group_a, &group_b);
  } else {
    QuadraticPartition(std::move(node->entries), &group_a, &group_b);
  }
  node->entries = std::move(group_a);
  Node sibling;
  sibling.level = node->level;
  IR2_ASSIGN_OR_RETURN(sibling.id, AllocateNode(node->level));
  sibling.entries = std::move(group_b);
  return sibling;
}

Status RTreeBase::RefreshParentEntry(Node* parent, int index,
                                     const Node& child,
                                     bool child_membership_changed,
                                     const std::span<const uint64_t>*
                                         inserted_words,
                                     bool* changed) {
  IR2_CHECK_GE(index, 0);
  IR2_CHECK_LT(static_cast<size_t>(index), parent->entries.size());
  Entry& entry = parent->entries[static_cast<size_t>(index)];
  IR2_CHECK_EQ(entry.ref, static_cast<uint32_t>(child.id));
  *changed = false;
  Rect bound = child.BoundingRect();
  if (!(bound == entry.rect)) {
    entry.rect = bound;
    *changed = true;
  }
  const uint32_t payload_bytes = PayloadBytes(parent->level);
  if (payload_bytes == 0 || options_.defer_inner_payload_maintenance) {
    return Status::Ok();
  }
  if (child_membership_changed || inserted_words == nullptr) {
    std::vector<uint8_t> payload;
    IR2_RETURN_IF_ERROR(ComputeNodePayloadForParent(child, &payload));
    if (payload != entry.payload) {
      entry.payload = std::move(payload);
      *changed = true;
    }
  } else {
    // Only an insertion happened below: superimpose the new object's
    // signature at this level (AdjustTree's "if a new bit is set to 1 in a
    // node N then it must also be set to 1 for N's ancestors").
    std::vector<uint8_t> contribution(payload_bytes, 0);
    FillObjectPayload(*inserted_words, parent->level, contribution);
    IR2_CHECK_EQ(entry.payload.size(), contribution.size());
    for (size_t i = 0; i < contribution.size(); ++i) {
      uint8_t merged = entry.payload[i] | contribution[i];
      if (merged != entry.payload[i]) {
        entry.payload[i] = merged;
        *changed = true;
      }
    }
  }
  return Status::Ok();
}

Status RTreeBase::GrowRoot(const Node& left, const Node& right) {
  Node root;
  root.level = left.level + 1;
  IR2_ASSIGN_OR_RETURN(root.id, AllocateNode(root.level));
  for (const Node* child : {&left, &right}) {
    Entry entry;
    entry.rect = child->BoundingRect();
    entry.ref = static_cast<uint32_t>(child->id);
    if (options_.defer_inner_payload_maintenance) {
      entry.payload.assign(PayloadBytes(root.level), 0);
    } else {
      IR2_RETURN_IF_ERROR(ComputeNodePayloadForParent(*child, &entry.payload));
    }
    root.entries.push_back(std::move(entry));
  }
  IR2_RETURN_IF_ERROR(StoreNode(root));
  root_id_ = root.id;
  root_level_ = root.level;
  return Status::Ok();
}

Status RTreeBase::InsertEntry(
    Entry entry, uint32_t target_level,
    const std::span<const uint64_t>* inserted_words) {
  IR2_ASSIGN_OR_RETURN(std::vector<PathStep> path,
                       ChoosePath(entry.rect, target_level));
  Node current = std::move(path.back().node);
  path.pop_back();
  IR2_CHECK_EQ(current.level, target_level);
  IR2_CHECK_EQ(entry.payload.size(), PayloadBytes(target_level));
  current.entries.push_back(std::move(entry));

  std::optional<Node> split;
  std::vector<Entry> reinsert_queue;
  bool membership_changed = false;
  if (current.entries.size() > capacity_) {
    // R* overflow treatment: the first overflow of a level during one
    // mutation re-inserts the farthest entries instead of splitting.
    const uint32_t level_bit = std::min<uint32_t>(current.level, 63);
    const bool can_reinsert =
        options_.forced_reinsert_fraction > 0.0 && !path.empty() &&
        (reinserted_levels_ & (uint64_t{1} << level_bit)) == 0 &&
        reinsert_depth_ < 8;
    if (can_reinsert) {
      reinserted_levels_ |= uint64_t{1} << level_bit;
      TakeFarthestEntries(&current, &reinsert_queue);
      membership_changed = true;
    } else {
      IR2_ASSIGN_OR_RETURN(Node sibling, SplitNode(&current));
      split = std::move(sibling);
      membership_changed = true;
    }
  }
  IR2_RETURN_IF_ERROR(StoreNode(current));
  if (split) {
    IR2_RETURN_IF_ERROR(StoreNode(*split));
  }

  // AdjustTree: ascend, refreshing parent entries, adding split siblings,
  // and splitting parents as needed.
  while (!path.empty()) {
    Node parent = std::move(path.back().node);
    const int child_index = path.back().child_index;
    path.pop_back();

    bool parent_dirty = false;
    IR2_RETURN_IF_ERROR(RefreshParentEntry(&parent, child_index, current,
                                           membership_changed,
                                           inserted_words, &parent_dirty));
    std::optional<Node> parent_split;
    bool parent_membership_changed = false;
    if (split) {
      parent_dirty = true;
      Entry sibling_entry;
      sibling_entry.rect = split->BoundingRect();
      sibling_entry.ref = static_cast<uint32_t>(split->id);
      if (options_.defer_inner_payload_maintenance) {
        sibling_entry.payload.assign(PayloadBytes(parent.level), 0);
      } else {
        IR2_RETURN_IF_ERROR(
            ComputeNodePayloadForParent(*split, &sibling_entry.payload));
      }
      parent.entries.push_back(std::move(sibling_entry));
      if (parent.entries.size() > capacity_) {
        IR2_ASSIGN_OR_RETURN(Node parent_sibling, SplitNode(&parent));
        parent_split = std::move(parent_sibling);
        parent_membership_changed = true;
      }
    }
    if (parent_dirty) {
      IR2_RETURN_IF_ERROR(StoreNode(parent));
    }
    if (parent_split) {
      IR2_RETURN_IF_ERROR(StoreNode(*parent_split));
    }
    current = std::move(parent);
    split = std::move(parent_split);
    membership_changed = parent_membership_changed;
  }

  if (split) {
    IR2_RETURN_IF_ERROR(GrowRoot(current, *split));
  }

  // Re-insert the entries evicted by the overflow treatment. The tree is
  // consistent at this point; the evicted entries keep their payloads and
  // re-enter at their original level.
  if (!reinsert_queue.empty()) {
    ++reinsert_depth_;
    for (Entry& evicted : reinsert_queue) {
      Status status =
          InsertEntry(std::move(evicted), target_level,
                      /*inserted_words=*/nullptr);
      if (!status.ok()) {
        --reinsert_depth_;
        return status;
      }
    }
    --reinsert_depth_;
  }
  return Status::Ok();
}

Status RTreeBase::InsertObject(ObjectRef ref, const Rect& rect,
                               std::span<const uint64_t> word_hashes) {
  IR2_CHECK(ready_);
  if (rect.dims() != options_.dims) {
    return Status::InvalidArgument("Rect dimensionality mismatch");
  }
  reinserted_levels_ = 0;
  reinsert_depth_ = 0;
  Entry entry;
  entry.rect = rect;
  entry.ref = ref;
  entry.payload.assign(PayloadBytes(0), 0);
  FillObjectPayload(word_hashes, 0, entry.payload);
  IR2_RETURN_IF_ERROR(InsertEntry(std::move(entry), 0, &word_hashes));
  ++count_;
  return Status::Ok();
}

StatusOr<bool> RTreeBase::Delete(ObjectRef ref, const Rect& rect) {
  IR2_CHECK(ready_);
  reinserted_levels_ = 0;
  reinsert_depth_ = 0;
  IR2_ASSIGN_OR_RETURN(std::vector<PathStep> path, FindLeafPath(ref, rect));
  if (path.empty()) {
    return false;
  }

  Node current = std::move(path.back().node);
  const int match_index = path.back().child_index;
  path.pop_back();
  current.entries.erase(current.entries.begin() + match_index);

  // CondenseTree: eliminate underflowing nodes, collect their entries for
  // re-insertion, and recompute ancestor MBRs + signatures.
  std::vector<Node> eliminated;
  while (!path.empty()) {
    Node parent = std::move(path.back().node);
    const int child_index = path.back().child_index;
    path.pop_back();

    if (current.entries.size() < min_fill_) {
      parent.entries.erase(parent.entries.begin() + child_index);
      eliminated.push_back(std::move(current));
    } else {
      IR2_RETURN_IF_ERROR(StoreNode(current));
      bool parent_dirty = false;
      IR2_RETURN_IF_ERROR(RefreshParentEntry(&parent, child_index, current,
                                             /*child_membership_changed=*/true,
                                             /*inserted_words=*/nullptr,
                                             &parent_dirty));
    }
    current = std::move(parent);
  }
  // `current` is now the root.
  IR2_RETURN_IF_ERROR(StoreNode(current));

  // Re-insert orphaned entries at their original levels.
  for (Node& orphan : eliminated) {
    for (Entry& entry : orphan.entries) {
      IR2_RETURN_IF_ERROR(
          InsertEntry(std::move(entry), orphan.level,
                      /*inserted_words=*/nullptr));
    }
  }

  // Shrink the tree while the root is an inner node with a single child.
  while (true) {
    IR2_ASSIGN_OR_RETURN(Node root, LoadNode(root_id_));
    if (root.is_leaf() || root.entries.size() != 1) {
      break;
    }
    root_id_ = root.entries[0].ref;
    --root_level_;
  }

  --count_;
  return true;
}

Status RTreeBase::CollectObjectRefs(BlockId node_id,
                                    std::vector<ObjectRef>* out) const {
  IR2_ASSIGN_OR_RETURN(Node node, LoadNode(node_id));
  if (node.is_leaf()) {
    for (const Entry& entry : node.entries) {
      out->push_back(entry.ref);
    }
    return Status::Ok();
  }
  for (const Entry& entry : node.entries) {
    IR2_RETURN_IF_ERROR(CollectObjectRefs(entry.ref, out));
  }
  return Status::Ok();
}

Status RTreeBase::ValidateSubtree(BlockId node_id, uint32_t expected_level,
                                  bool is_root, const Rect* parent_rect,
                                  std::span<const uint8_t> parent_payload,
                                  uint64_t* object_count) const {
  IR2_ASSIGN_OR_RETURN(Node node, LoadNode(node_id));
  if (node.level != expected_level) {
    return Status::Corruption("Unbalanced tree: unexpected node level");
  }
  if (!is_root && node.entries.size() < min_fill_) {
    return Status::Corruption("Node underflow");
  }
  if (node.entries.size() > capacity_) {
    return Status::Corruption("Node overflow");
  }
  if (parent_rect != nullptr) {
    if (node.entries.empty()) {
      return Status::Corruption("Empty non-root node");
    }
    if (!(*parent_rect == node.BoundingRect())) {
      return Status::Corruption("Parent MBR is not the tight bounding rect");
    }
  }
  // Parent payload must superimpose every entry payload (only checkable
  // in-base when widths are uniform across the two levels).
  if (!parent_payload.empty() &&
      PayloadBytes(node.level) == parent_payload.size()) {
    for (const Entry& entry : node.entries) {
      for (size_t i = 0; i < parent_payload.size(); ++i) {
        if ((entry.payload[i] & parent_payload[i]) != entry.payload[i]) {
          return Status::Corruption(
              "Parent signature missing bits of child signature");
        }
      }
    }
  }
  if (node.is_leaf()) {
    *object_count += node.entries.size();
    return Status::Ok();
  }
  for (const Entry& entry : node.entries) {
    IR2_RETURN_IF_ERROR(ValidateSubtree(entry.ref, expected_level - 1,
                                        /*is_root=*/false, &entry.rect,
                                        entry.payload, object_count));
  }
  return Status::Ok();
}

Status RTreeBase::Validate() const {
  IR2_CHECK(ready_);
  uint64_t object_count = 0;
  IR2_RETURN_IF_ERROR(ValidateSubtree(root_id_, root_level_, /*is_root=*/true,
                                      nullptr, {}, &object_count));
  if (object_count != count_) {
    return Status::Corruption("Object count mismatch");
  }
  return Status::Ok();
}

}  // namespace ir2
