#ifndef IR2TREE_SERVING_SPACE_FILLING_H_
#define IR2TREE_SERVING_SPACE_FILLING_H_

// Space-filling-curve partitioning for the sharded serving tier. Objects
// are ordered by the curve index of their (quantized) location and split
// into equal-count contiguous runs, one per shard — points adjacent on the
// curve are adjacent in space, so each shard's R-tree stays spatially tight
// and its root MBR is a useful lower bound for scatter-gather pruning
// (docs/serving.md).

#include <cstdint>
#include <span>
#include <vector>

#include "geo/rect.h"
#include "storage/object_store.h"

namespace ir2 {
namespace serving {

// The curve follows the dimensionality: the Hilbert curve for 2-D data
// (every curve step is a unit grid step, so contiguous runs have the best
// locality), the Morton / Z-order bit interleave otherwise (any
// dimensionality, slightly worse locality at octant boundaries; Hilbert's
// rotation bookkeeping does not generalize cheaply). Returns "hilbert" or
// "morton".
const char* CurveNameForDims(uint32_t dims);

// Index of grid cell (x, y) along the 2-D Hilbert curve of 2^order x
// 2^order cells. `order` in [1, 31]; x, y < 2^order.
uint64_t HilbertIndex2D(uint32_t x, uint32_t y, uint32_t order);

// Morton index of a grid cell: bits of the per-dimension coordinates
// interleaved, dimension 0 least significant. dims * order must be <= 64;
// each cell coordinate < 2^order.
uint64_t MortonIndex(std::span<const uint32_t> cell, uint32_t order);

// One shard's slice of the dataset.
struct ShardAssignment {
  // Indices into the input span, curve order preserved.
  std::vector<uint32_t> members;
  // MBR of the member locations (meaningless when members is empty).
  Rect bounds;
};

// Deterministic for a given (objects, num_shards): quantizes each location
// to a grid of 2^16 cells per dimension (fewer for Morton above four
// dimensions, so the index fits in 64 bits), sorts objects by (curve index
// of CurveNameForDims, input position) and cuts the sorted order into
// `num_shards` contiguous runs of near-equal size. Empty shards are
// possible only when num_shards > objects.size().
std::vector<ShardAssignment> PartitionBySpaceFillingCurve(
    std::span<const StoredObject> objects, uint64_t num_shards);

}  // namespace serving
}  // namespace ir2

#endif  // IR2TREE_SERVING_SPACE_FILLING_H_
