#include "serving/space_filling.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "geo/point.h"

namespace ir2 {
namespace serving {

namespace {

// The one place the curve is chosen: Hilbert needs exactly two dimensions.
bool UsesHilbert(uint32_t dims) { return dims == 2; }

}  // namespace

const char* CurveNameForDims(uint32_t dims) {
  return UsesHilbert(dims) ? "hilbert" : "morton";
}

uint64_t HilbertIndex2D(uint32_t x, uint32_t y, uint32_t order) {
  IR2_DCHECK(order >= 1 && order <= 31);
  // Classic top-down xy -> d conversion: at each scale s, pick the quadrant,
  // then rotate/reflect the lower quadrants into the canonical orientation.
  // (Bits above the current scale get flipped too, but every later
  // iteration masks with a smaller s, so only the low bits ever matter.)
  const uint32_t n = 1u << order;
  uint64_t d = 0;
  for (uint32_t s = n >> 1; s > 0; s >>= 1) {
    const uint32_t rx = (x & s) ? 1 : 0;
    const uint32_t ry = (y & s) ? 1 : 0;
    d += static_cast<uint64_t>(s) * s * ((3 * rx) ^ ry);
    if (ry == 0) {
      if (rx == 1) {
        x = n - 1 - x;
        y = n - 1 - y;
      }
      std::swap(x, y);
    }
  }
  return d;
}

uint64_t MortonIndex(std::span<const uint32_t> cell, uint32_t order) {
  const uint32_t dims = static_cast<uint32_t>(cell.size());
  IR2_DCHECK(dims >= 1);
  IR2_DCHECK(static_cast<uint64_t>(dims) * order <= 64);
  uint64_t index = 0;
  // Bit b of dimension dim lands at position b * dims + dim: dimension bits
  // interleave round-robin, most significant bits dominating the order.
  for (uint32_t b = 0; b < order; ++b) {
    for (uint32_t dim = 0; dim < dims; ++dim) {
      const uint64_t bit = (cell[dim] >> b) & 1u;
      index |= bit << (static_cast<uint64_t>(b) * dims + dim);
    }
  }
  return index;
}

namespace {

// Grid resolution: 2^kCurveOrder cells per dimension, before the cap that
// keeps dims * order within 64 bits.
constexpr uint32_t kCurveOrder = 16;

// Quantizes `value` within [lo, hi] to a grid cell in [0, 2^order).
uint32_t QuantizeCoord(double value, double lo, double hi, uint32_t order) {
  const uint64_t cells = uint64_t{1} << order;
  if (!(hi > lo)) return 0;  // Degenerate extent: everything in cell 0.
  double t = (value - lo) / (hi - lo);
  t = std::min(std::max(t, 0.0), 1.0);
  uint64_t cell = static_cast<uint64_t>(t * static_cast<double>(cells));
  if (cell >= cells) cell = cells - 1;
  return static_cast<uint32_t>(cell);
}

}  // namespace

std::vector<ShardAssignment> PartitionBySpaceFillingCurve(
    std::span<const StoredObject> objects, uint64_t num_shards) {
  IR2_CHECK(num_shards >= 1);
  const size_t n = objects.size();
  std::vector<ShardAssignment> shards(num_shards);
  if (n == 0) return shards;

  const uint32_t dims =
      static_cast<uint32_t>(objects.front().coords.size());
  IR2_CHECK(dims >= 1 && dims <= Point::kMaxDims);

  // Dataset bounding box (also the quantization frame).
  std::vector<double> lo(dims, std::numeric_limits<double>::infinity());
  std::vector<double> hi(dims, -std::numeric_limits<double>::infinity());
  for (const StoredObject& object : objects) {
    IR2_CHECK_EQ(object.coords.size(), static_cast<size_t>(dims));
    for (uint32_t d = 0; d < dims; ++d) {
      lo[d] = std::min(lo[d], object.coords[d]);
      hi[d] = std::max(hi[d], object.coords[d]);
    }
  }

  // Hilbert for 2-D data, the Morton interleave otherwise (UsesHilbert,
  // which CurveNameForDims also reads). The order is capped so the index
  // fits in 64 bits, which only bites above four dimensions.
  const bool hilbert = UsesHilbert(dims);
  const uint32_t order = std::min(kCurveOrder, 64u / dims);

  std::vector<std::pair<uint64_t, uint32_t>> keyed(n);
  std::vector<uint32_t> cell(dims);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t d = 0; d < dims; ++d) {
      cell[d] = QuantizeCoord(objects[i].coords[d], lo[d], hi[d], order);
    }
    const uint64_t index = hilbert ? HilbertIndex2D(cell[0], cell[1], order)
                                   : MortonIndex(cell, order);
    keyed[i] = {index, static_cast<uint32_t>(i)};
  }
  // Ties broken by input position: the partition is a deterministic
  // function of (objects, num_shards).
  std::sort(keyed.begin(), keyed.end());

  // Cut the curve order into near-equal contiguous runs; the first
  // n % num_shards shards take one extra object.
  const uint64_t base = n / num_shards;
  const uint64_t extra = n % num_shards;
  size_t next = 0;
  for (uint64_t s = 0; s < num_shards; ++s) {
    const uint64_t count = base + (s < extra ? 1 : 0);
    ShardAssignment& shard = shards[s];
    shard.members.reserve(count);
    for (uint64_t j = 0; j < count; ++j, ++next) {
      const uint32_t object_index = keyed[next].second;
      shard.members.push_back(object_index);
      const Rect point_rect =
          Rect::ForPoint(Point(objects[object_index].coords));
      shard.bounds = shard.members.size() == 1
                         ? point_rect
                         : shard.bounds.UnionWith(point_rect);
    }
  }
  IR2_CHECK_EQ(next, n);
  return shards;
}

}  // namespace serving
}  // namespace ir2
