#include "data/bounds.h"

#include <vector>

#include <gtest/gtest.h>

#include "data/point_set.h"

namespace dbs::data {
namespace {

TEST(BoundingBoxTest, ExtendFromEmpty) {
  BoundingBox box(2);
  EXPECT_TRUE(box.empty());
  PointSet ps(2, {1.0, 5.0, -2.0, 3.0});
  box.Extend(ps[0]);
  box.Extend(ps[1]);
  EXPECT_FALSE(box.empty());
  EXPECT_EQ(box.lo(0), -2.0);
  EXPECT_EQ(box.hi(0), 1.0);
  EXPECT_EQ(box.lo(1), 3.0);
  EXPECT_EQ(box.hi(1), 5.0);
}

TEST(BoundingBoxTest, ExplicitBounds) {
  BoundingBox box({0.0, 0.0}, {2.0, 4.0});
  EXPECT_EQ(box.extent(0), 2.0);
  EXPECT_EQ(box.extent(1), 4.0);
  EXPECT_DOUBLE_EQ(box.Volume(), 8.0);
}

TEST(BoundingBoxTest, Contains) {
  BoundingBox box({0.0, 0.0}, {1.0, 1.0});
  PointSet ps(2, {0.5, 0.5, 1.0, 1.0, 1.1, 0.5});
  EXPECT_TRUE(box.Contains(ps[0]));
  EXPECT_TRUE(box.Contains(ps[1]));  // boundary is inside
  EXPECT_FALSE(box.Contains(ps[2]));
}

TEST(BoundingBoxTest, ContainsInterior) {
  BoundingBox box({0.0, 0.0}, {10.0, 10.0});
  PointSet ps(2, {0.5, 5.0, 2.0, 5.0});
  // 10% margin excludes points within 1.0 of a face.
  EXPECT_FALSE(box.ContainsInterior(ps[0], 0.1));
  EXPECT_TRUE(box.ContainsInterior(ps[1], 0.1));
  // Zero margin reduces to Contains.
  EXPECT_TRUE(box.ContainsInterior(ps[0], 0.0));
}

TEST(BoundingBoxTest, ExtendWithBox) {
  BoundingBox a({0.0}, {1.0});
  BoundingBox b({3.0}, {5.0});
  a.Extend(b);
  EXPECT_EQ(a.lo(0), 0.0);
  EXPECT_EQ(a.hi(0), 5.0);
}

}  // namespace
}  // namespace dbs::data
