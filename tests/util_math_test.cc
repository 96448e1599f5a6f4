#include "util/math.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace dbs {
namespace {

TEST(BallVolumeTest, KnownLowDimensions) {
  // V_1(r) = 2r, V_2(r) = pi r^2, V_3(r) = 4/3 pi r^3.
  EXPECT_NEAR(BallVolume(1, 1.0), 2.0, 1e-12);
  EXPECT_NEAR(BallVolume(2, 1.0), M_PI, 1e-12);
  EXPECT_NEAR(BallVolume(3, 1.0), 4.0 / 3.0 * M_PI, 1e-12);
  EXPECT_NEAR(BallVolume(2, 2.0), 4.0 * M_PI, 1e-12);
}

TEST(BallVolumeTest, ScalesAsRadiusToTheD) {
  for (int d = 1; d <= 6; ++d) {
    double v1 = BallVolume(d, 1.0);
    double v3 = BallVolume(d, 3.0);
    EXPECT_NEAR(v3 / v1, std::pow(3.0, d), 1e-9 * std::pow(3.0, d));
  }
}

TEST(BallVolumeTest, ZeroRadius) {
  EXPECT_EQ(BallVolume(3, 0.0), 0.0);
}

TEST(CubeVolumeTest, Known) {
  EXPECT_DOUBLE_EQ(CubeVolume(1, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(CubeVolume(2, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(CubeVolume(3, 1.0), 8.0);
}

TEST(SafePowTest, Conventions) {
  EXPECT_EQ(SafePow(0.0, 2.0), 0.0);
  EXPECT_EQ(SafePow(0.0, -1.0), 0.0);  // zero density contributes nothing
  EXPECT_EQ(SafePow(-1.0, 2.0), 0.0);  // densities are never negative
  EXPECT_DOUBLE_EQ(SafePow(2.0, 3.0), 8.0);
  EXPECT_DOUBLE_EQ(SafePow(4.0, -0.5), 0.5);
  EXPECT_DOUBLE_EQ(SafePow(3.7, 0.0), 1.0);
}

TEST(HaltonTest, Base2PrefixMatchesVanDerCorput) {
  // First values of the base-2 van der Corput sequence (excluding 0):
  // 1/2, 1/4, 3/4, 1/8, 5/8, 3/8, 7/8.
  const std::vector<double> expected{0.5,   0.25,  0.75, 0.125,
                                     0.625, 0.375, 0.875};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(HaltonValue(i, 2), expected[i]) << "i=" << i;
  }
}

TEST(HaltonTest, ValuesInUnitInterval) {
  for (uint32_t base : {2u, 3u, 5u, 7u}) {
    for (uint64_t i = 0; i < 1000; ++i) {
      double v = HaltonValue(i, base);
      EXPECT_GT(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
  }
}

TEST(HaltonTest, LowDiscrepancyCoversUniformly) {
  // Bucket 4096 base-3 Halton values into 8 bins: all bins near 512.
  std::vector<int> bins(8, 0);
  for (uint64_t i = 0; i < 4096; ++i) {
    int b = static_cast<int>(HaltonValue(i, 3) * 8);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, 8);
    bins[b]++;
  }
  for (int c : bins) EXPECT_NEAR(c, 512, 32);
}

TEST(SmallPrimeTest, FirstPrimes) {
  EXPECT_EQ(SmallPrime(0), 2u);
  EXPECT_EQ(SmallPrime(1), 3u);
  EXPECT_EQ(SmallPrime(5), 13u);
  EXPECT_EQ(SmallPrime(15), 53u);
}

TEST(GcdTest, Basics) {
  EXPECT_EQ(Gcd(12, 18), 6u);
  EXPECT_EQ(Gcd(17, 5), 1u);
  EXPECT_EQ(Gcd(0, 7), 7u);
  EXPECT_EQ(Gcd(7, 0), 7u);
}

// fl(x * k) <= t at x, and fl(next(x) * k) > t: x is the largest such
// double.
void ExpectLargestFactor(double k, double t) {
  const double x = LargestFactorAtMost(k, t);
  EXPECT_LE(x * k, t) << "k " << k << ", t " << t << ", x " << x;
  const double next = std::nextafter(x, std::numeric_limits<double>::infinity());
  EXPECT_GT(next * k, t) << "k " << k << ", t " << t << ", x " << x;
}

TEST(LargestFactorAtMostTest, IsTheLargestFactorForRandomOperands) {
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const double k = std::ldexp(rng.NextDouble(0.5, 1.0),
                                static_cast<int>(rng.NextBounded(200)) - 100);
    const double t = std::ldexp(rng.NextDouble(0.5, 1.0),
                                static_cast<int>(rng.NextBounded(200)) - 100);
    ExpectLargestFactor(k, t);
  }
  // Products on the boundary: t is itself a rounded product.
  for (int i = 0; i < 20000; ++i) {
    const double k = rng.NextDouble(1e-3, 1e3);
    const double t = rng.NextDouble(1e-3, 1e3) * k;
    ExpectLargestFactor(k, t);
  }
}

TEST(LargestFactorAtMostTest, EdgeOperands) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // No usable cap: +inf, meaning "no early stop".
  EXPECT_EQ(LargestFactorAtMost(0.0, 1.0), inf);
  EXPECT_EQ(LargestFactorAtMost(inf, 1.0), inf);
  EXPECT_EQ(LargestFactorAtMost(nan, 1.0), inf);
  EXPECT_EQ(LargestFactorAtMost(-2.0, 1.0), inf);
  EXPECT_EQ(LargestFactorAtMost(2.0, inf), inf);
  EXPECT_EQ(LargestFactorAtMost(2.0, nan), inf);
  // Subnormal k, where many factors round to the same product, and a
  // product that overflows.
  const double tiny = std::numeric_limits<double>::denorm_min();
  ExpectLargestFactor(tiny, 1e-320);
  ExpectLargestFactor(3 * tiny, 5e-324);
  ExpectLargestFactor(1e-310, 2.5e-300);
  EXPECT_EQ(LargestFactorAtMost(tiny, 1.0),
            std::numeric_limits<double>::max());
  ExpectLargestFactor(1e300, 1e308);
  // Exact cases, zero and negative t.
  EXPECT_EQ(LargestFactorAtMost(1.0, 3.0), 3.0);
  EXPECT_EQ(LargestFactorAtMost(2.0, 0.0), 0.0);
  ExpectLargestFactor(0.75, -2.5);
}

}  // namespace
}  // namespace dbs
