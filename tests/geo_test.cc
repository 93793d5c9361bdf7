#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace ir2 {
namespace {

TEST(PointTest, ConstructionAndAccess) {
  Point p(3.0, 4.0);
  EXPECT_EQ(p.dims(), 2u);
  EXPECT_EQ(p[0], 3.0);
  EXPECT_EQ(p[1], 4.0);

  double coords[] = {1.0, 2.0, 3.0};
  Point q{std::span<const double>(coords, 3)};
  EXPECT_EQ(q.dims(), 3u);
  EXPECT_EQ(q[2], 3.0);
}

TEST(PointTest, Distance) {
  EXPECT_DOUBLE_EQ(Distance(Point(0, 0), Point(3, 4)), 5.0);
  EXPECT_DOUBLE_EQ(DistanceSquared(Point(1, 1), Point(2, 2)), 2.0);
  EXPECT_DOUBLE_EQ(Distance(Point(5, 5), Point(5, 5)), 0.0);
}

TEST(PointTest, PaperExample1Distances) {
  // Example 1 of the paper: from [30.5, 100.0], H4 is at distance 18.5.
  Point q(30.5, 100.0);
  EXPECT_NEAR(Distance(q, Point(39.5, 116.2)), 18.5, 0.05);   // H4
  EXPECT_NEAR(Distance(q, Point(-33.2, -70.4)), 181.9, 0.05); // H7
  EXPECT_NEAR(Distance(q, Point(47.3, -122.2)), 222.8, 0.05); // H2
}

TEST(RectTest, AreaMarginCenter) {
  Rect r(Point(0, 0), Point(4, 2));
  EXPECT_DOUBLE_EQ(r.Area(), 8.0);
  EXPECT_DOUBLE_EQ(r.Margin(), 6.0);
  EXPECT_EQ(r.Center(), Point(2, 1));
}

TEST(RectTest, DegeneratePointRect) {
  Rect r = Rect::ForPoint(Point(7, -2));
  EXPECT_TRUE(r.IsPoint());
  EXPECT_DOUBLE_EQ(r.Area(), 0.0);
  EXPECT_TRUE(r.Contains(Point(7, -2)));
  EXPECT_FALSE(r.Contains(Point(7, -1.999)));
}

TEST(RectTest, ContainsRect) {
  Rect a(Point(0, 0), Point(10, 10));
  Rect b(Point(2, 2), Point(3, 3));
  EXPECT_TRUE(a.Contains(b));
  EXPECT_FALSE(b.Contains(a));
}

TEST(RectTest, UnionAndEnlargement) {
  Rect a(Point(0, 0), Point(1, 1));
  Rect b(Point(2, 2), Point(3, 3));
  Rect u = a.UnionWith(b);
  EXPECT_EQ(u, Rect(Point(0, 0), Point(3, 3)));
  EXPECT_DOUBLE_EQ(a.Enlargement(b), 9.0 - 1.0);
  EXPECT_DOUBLE_EQ(a.Enlargement(Rect(Point(0.2, 0.2), Point(0.8, 0.8))),
                   0.0);
}

TEST(RectTest, MinDistInsideIsZero) {
  Rect r(Point(0, 0), Point(10, 10));
  EXPECT_DOUBLE_EQ(r.MinDist(Point(5, 5)), 0.0);
  EXPECT_DOUBLE_EQ(r.MinDist(Point(0, 0)), 0.0);   // Corner.
  EXPECT_DOUBLE_EQ(r.MinDist(Point(10, 5)), 0.0);  // Edge.
}

TEST(RectTest, MinDistOutside) {
  Rect r(Point(0, 0), Point(10, 10));
  EXPECT_DOUBLE_EQ(r.MinDist(Point(13, 14)), 5.0);   // Corner distance.
  EXPECT_DOUBLE_EQ(r.MinDist(Point(-2, 5)), 2.0);    // Face distance.
  EXPECT_DOUBLE_EQ(r.MinDist(Point(5, -7)), 7.0);
}

// MINDIST is a lower bound on the distance to any contained point — the
// property incremental NN correctness rests on.
TEST(RectTest, PropertyMinDistLowerBoundsContainedPoints) {
  Rng rng(99);
  for (int iter = 0; iter < 2000; ++iter) {
    double x1 = rng.NextDouble(0, 100), x2 = rng.NextDouble(0, 100);
    double y1 = rng.NextDouble(0, 100), y2 = rng.NextDouble(0, 100);
    Rect r(Point(std::min(x1, x2), std::min(y1, y2)),
           Point(std::max(x1, x2), std::max(y1, y2)));
    Point q(rng.NextDouble(-50, 150), rng.NextDouble(-50, 150));
    // A random point inside the rect.
    Point inside(rng.NextDouble(r.lo()[0], r.hi()[0]),
                 rng.NextDouble(r.lo()[1], r.hi()[1]));
    EXPECT_LE(r.MinDist(q), Distance(q, inside) + 1e-9);
  }
}

TEST(RectTest, IntersectionArea) {
  Rect a(Point(0, 0), Point(10, 10));
  EXPECT_DOUBLE_EQ(a.IntersectionArea(Rect(Point(5, 5), Point(15, 15))),
                   25.0);
  EXPECT_DOUBLE_EQ(a.IntersectionArea(a), 100.0);
  EXPECT_DOUBLE_EQ(a.IntersectionArea(Rect(Point(20, 20), Point(30, 30))),
                   0.0);
  // Touching edges: zero area.
  EXPECT_DOUBLE_EQ(a.IntersectionArea(Rect(Point(10, 0), Point(20, 10))),
                   0.0);
  // Contained rect: its own area.
  EXPECT_DOUBLE_EQ(a.IntersectionArea(Rect(Point(2, 2), Point(4, 6))), 8.0);
}

TEST(RectTest, PropertyIntersectionAreaSymmetricAndBounded) {
  Rng rng(321);
  auto random_rect = [&rng]() {
    double x1 = rng.NextDouble(0, 100), x2 = rng.NextDouble(0, 100);
    double y1 = rng.NextDouble(0, 100), y2 = rng.NextDouble(0, 100);
    return Rect(Point(std::min(x1, x2), std::min(y1, y2)),
                Point(std::max(x1, x2), std::max(y1, y2)));
  };
  for (int iter = 0; iter < 1000; ++iter) {
    Rect a = random_rect(), b = random_rect();
    double ab = a.IntersectionArea(b);
    EXPECT_DOUBLE_EQ(ab, b.IntersectionArea(a));
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, std::min(a.Area(), b.Area()) + 1e-9);
  }
}

// Union must contain both operands; enlargement is non-negative.
TEST(RectTest, PropertyUnionContainsOperands) {
  Rng rng(123);
  for (int iter = 0; iter < 2000; ++iter) {
    auto random_rect = [&rng]() {
      double x1 = rng.NextDouble(0, 100), x2 = rng.NextDouble(0, 100);
      double y1 = rng.NextDouble(0, 100), y2 = rng.NextDouble(0, 100);
      return Rect(Point(std::min(x1, x2), std::min(y1, y2)),
                  Point(std::max(x1, x2), std::max(y1, y2)));
    };
    Rect a = random_rect(), b = random_rect();
    Rect u = a.UnionWith(b);
    EXPECT_TRUE(u.Contains(a));
    EXPECT_TRUE(u.Contains(b));
    EXPECT_GE(a.Enlargement(b), -1e-12);
  }
}

}  // namespace
}  // namespace ir2
