#include "geo/point.h"

#include <cmath>

namespace ir2 {

double DistanceSquared(const Point& a, const Point& b) {
  IR2_DCHECK(a.dims() == b.dims());
  double sum = 0.0;
  for (uint32_t i = 0; i < a.dims(); ++i) {
    double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

double Distance(const Point& a, const Point& b) {
  return std::sqrt(DistanceSquared(a, b));
}

}  // namespace ir2
