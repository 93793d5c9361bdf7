#ifndef IR2TREE_GEO_RECT_H_
#define IR2TREE_GEO_RECT_H_


#include "geo/point.h"

namespace ir2 {

// Axis-aligned (minimum bounding) rectangle represented by its low and high
// corners — the paper's "southwest and northeast points". A point object is
// stored as the degenerate rectangle lo == hi.
class Rect {
 public:
  Rect() = default;

  Rect(const Point& lo, const Point& hi) : lo_(lo), hi_(hi) {
    IR2_DCHECK(lo.dims() == hi.dims());
#ifndef NDEBUG
    for (uint32_t i = 0; i < lo.dims(); ++i) IR2_DCHECK(lo[i] <= hi[i]);
#endif
  }

  // The degenerate rectangle covering exactly one point.
  static Rect ForPoint(const Point& p) { return Rect(p, p); }

  uint32_t dims() const { return lo_.dims(); }
  const Point& lo() const { return lo_; }
  const Point& hi() const { return hi_; }

  bool IsPoint() const { return lo_ == hi_; }

  // The point at the rectangle's center (used when a degenerate object rect
  // must be converted back to a point).
  Point Center() const;

  double Area() const;

  // Sum of edge lengths (useful for split heuristics).
  double Margin() const;

  bool Contains(const Point& p) const;
  bool Contains(const Rect& other) const;

  // Smallest rectangle covering both this and `other`.
  Rect UnionWith(const Rect& other) const;

  // Area(UnionWith(other)) - Area(): Guttman's enlargement criterion.
  double Enlargement(const Rect& other) const;

  // MINDIST: smallest Euclidean distance from `p` to any point of the
  // rectangle; 0 if `p` is inside. This is the Dist(p, MBR) of the paper's
  // incremental NN algorithm (Figure 3).
  double MinDist(const Point& p) const;
  double MinDistSquared(const Point& p) const;

  // Smallest distance between any point of this rectangle and any point of
  // `other`; 0 when they intersect. Supports the paper's area-target
  // queries ("a point p ... an area could be used instead").
  double MinDist(const Rect& other) const;
  double MinDistSquared(const Rect& other) const;

  // Area of the intersection with `other` (0 when disjoint). The overlap
  // measure of the R*-Tree split heuristic.
  double IntersectionArea(const Rect& other) const;

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }


 private:
  Point lo_;
  Point hi_;
};

}  // namespace ir2

#endif  // IR2TREE_GEO_RECT_H_
