#ifndef IR2TREE_GEO_POINT_H_
#define IR2TREE_GEO_POINT_H_

#include <array>
#include <cstdint>
#include <span>

#include "common/logging.h"

namespace ir2 {

// A point in up-to-kMaxDims-dimensional space. Stored inline (no heap) since
// incremental NN keeps large priority queues of these. The paper's running
// examples are 2-d (latitude/longitude) but the method is dimension-agnostic.
class Point {
 public:
  static constexpr uint32_t kMaxDims = 8;

  Point() : dims_(0), coords_{} {}

  Point(double x, double y) : dims_(2), coords_{} {
    coords_[0] = x;
    coords_[1] = y;
  }

  explicit Point(std::span<const double> coords) : dims_(0), coords_{} {
    IR2_CHECK_LE(coords.size(), static_cast<size_t>(kMaxDims));
    dims_ = static_cast<uint32_t>(coords.size());
    for (uint32_t i = 0; i < dims_; ++i) coords_[i] = coords[i];
  }

  uint32_t dims() const { return dims_; }

  double operator[](uint32_t i) const {
    IR2_DCHECK(i < dims_);
    return coords_[i];
  }
  double& operator[](uint32_t i) {
    IR2_DCHECK(i < dims_);
    return coords_[i];
  }

  std::span<const double> coords() const {
    return std::span<const double>(coords_.data(), dims_);
  }

  friend bool operator==(const Point& a, const Point& b) {
    if (a.dims_ != b.dims_) return false;
    for (uint32_t i = 0; i < a.dims_; ++i) {
      if (a.coords_[i] != b.coords_[i]) return false;
    }
    return true;
  }


 private:
  uint32_t dims_;
  std::array<double, kMaxDims> coords_;
};

// Euclidean distance between two points of equal dimensionality.
double Distance(const Point& a, const Point& b);
double DistanceSquared(const Point& a, const Point& b);

}  // namespace ir2

#endif  // IR2TREE_GEO_POINT_H_
