#include "util/math.h"

#include <bit>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace dbs {

double BallVolume(int dim, double radius) {
  DBS_CHECK(dim > 0);
  DBS_CHECK(radius >= 0);
  double d = static_cast<double>(dim);
  return std::pow(M_PI, d / 2.0) / std::tgamma(d / 2.0 + 1.0) *
         std::pow(radius, d);
}

double CubeVolume(int dim, double radius) {
  DBS_CHECK(dim > 0);
  DBS_CHECK(radius >= 0);
  return std::pow(2.0 * radius, dim);
}

double CrossPolytopeVolume(int dim, double radius) {
  DBS_CHECK(dim > 0);
  DBS_CHECK(radius >= 0);
  return std::pow(2.0 * radius, dim) /
         std::tgamma(static_cast<double>(dim) + 1.0);
}

double SafePow(double x, double a) {
  if (x <= 0.0) return 0.0;
  if (a == 0.0) return 1.0;
  return std::pow(x, a);
}

double HaltonValue(uint64_t index, uint32_t base) {
  DBS_CHECK(base >= 2);
  double f = 1.0;
  double r = 0.0;
  // Skip index 0 (always 0) so sequences start inside the interval.
  uint64_t i = index + 1;
  while (i > 0) {
    f /= static_cast<double>(base);
    r += f * static_cast<double>(i % base);
    i /= base;
  }
  return r;
}

uint32_t SmallPrime(int i) {
  static constexpr uint32_t kPrimes[16] = {2,  3,  5,  7,  11, 13, 17, 19,
                                           23, 29, 31, 37, 41, 43, 47, 53};
  DBS_CHECK(i >= 0 && i < 16);
  return kPrimes[i];
}

namespace {

// Maps the non-NaN doubles onto uint64 in increasing order (-0.0 just
// below +0.0), so that a binary search over doubles is one over integers.
uint64_t OrderedBits(double x) {
  const auto bits = std::bit_cast<uint64_t>(x);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

double FromOrderedBits(uint64_t key) {
  return std::bit_cast<double>((key >> 63) != 0 ? key & ~(uint64_t{1} << 63)
                                                : ~key);
}

}  // namespace

double LargestFactorAtMost(double k, double t) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!(k > 0.0 && k < kInf) || !(t < kInf)) return kInf;
  // fl(x * k) <= t holds at x = -inf and fails at x = +inf, and it is
  // monotone in x: bisect the ordered bit patterns between the two, which
  // takes at most 64 products. A search rather than stepping from t / k
  // keeps the cost bounded when the product is subnormal, where many
  // doubles x round to the same product.
  uint64_t lo = OrderedBits(-kInf);  // fl(lo * k) <= t
  uint64_t hi = OrderedBits(kInf);   // fl(hi * k) > t
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (FromOrderedBits(mid) * k <= t) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return FromOrderedBits(lo);
}

uint64_t Gcd(uint64_t a, uint64_t b) {
  while (b != 0) {
    uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace dbs
