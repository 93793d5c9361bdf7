#include "geo/rect.h"

#include <algorithm>
#include <cmath>

namespace ir2 {

Point Rect::Center() const {
  Point c = lo_;
  for (uint32_t i = 0; i < dims(); ++i) {
    c[i] = 0.5 * (lo_[i] + hi_[i]);
  }
  return c;
}

double Rect::Area() const {
  double area = 1.0;
  for (uint32_t i = 0; i < dims(); ++i) {
    area *= hi_[i] - lo_[i];
  }
  return area;
}

double Rect::Margin() const {
  double margin = 0.0;
  for (uint32_t i = 0; i < dims(); ++i) {
    margin += hi_[i] - lo_[i];
  }
  return margin;
}

bool Rect::Contains(const Point& p) const {
  IR2_DCHECK(p.dims() == dims());
  for (uint32_t i = 0; i < dims(); ++i) {
    if (p[i] < lo_[i] || p[i] > hi_[i]) return false;
  }
  return true;
}

bool Rect::Contains(const Rect& other) const {
  IR2_DCHECK(other.dims() == dims());
  for (uint32_t i = 0; i < dims(); ++i) {
    if (other.lo_[i] < lo_[i] || other.hi_[i] > hi_[i]) return false;
  }
  return true;
}

Rect Rect::UnionWith(const Rect& other) const {
  IR2_DCHECK(other.dims() == dims());
  Point lo = lo_;
  Point hi = hi_;
  for (uint32_t i = 0; i < dims(); ++i) {
    lo[i] = std::min(lo[i], other.lo_[i]);
    hi[i] = std::max(hi[i], other.hi_[i]);
  }
  return Rect(lo, hi);
}

double Rect::Enlargement(const Rect& other) const {
  return UnionWith(other).Area() - Area();
}

double Rect::MinDistSquared(const Point& p) const {
  IR2_DCHECK(p.dims() == dims());
  double sum = 0.0;
  for (uint32_t i = 0; i < dims(); ++i) {
    double d = 0.0;
    if (p[i] < lo_[i]) {
      d = lo_[i] - p[i];
    } else if (p[i] > hi_[i]) {
      d = p[i] - hi_[i];
    }
    sum += d * d;
  }
  return sum;
}

double Rect::MinDist(const Point& p) const {
  return std::sqrt(MinDistSquared(p));
}

double Rect::MinDistSquared(const Rect& other) const {
  IR2_DCHECK(other.dims() == dims());
  double sum = 0.0;
  for (uint32_t i = 0; i < dims(); ++i) {
    double d = 0.0;
    if (other.hi_[i] < lo_[i]) {
      d = lo_[i] - other.hi_[i];
    } else if (other.lo_[i] > hi_[i]) {
      d = other.lo_[i] - hi_[i];
    }
    sum += d * d;
  }
  return sum;
}

double Rect::MinDist(const Rect& other) const {
  return std::sqrt(MinDistSquared(other));
}

double Rect::IntersectionArea(const Rect& other) const {
  IR2_DCHECK(other.dims() == dims());
  double area = 1.0;
  for (uint32_t i = 0; i < dims(); ++i) {
    double extent = std::min(hi_[i], other.hi_[i]) -
                    std::max(lo_[i], other.lo_[i]);
    if (extent <= 0.0) return 0.0;
    area *= extent;
  }
  return area;
}

}  // namespace ir2
