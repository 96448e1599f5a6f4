// Small mathematical helpers shared across modules.

#ifndef DBS_UTIL_MATH_H_
#define DBS_UTIL_MATH_H_

#include <cstdint>

namespace dbs {

// Volume of the d-dimensional L2 ball of radius r:
//   V_d(r) = pi^(d/2) / Gamma(d/2 + 1) * r^d.
double BallVolume(int dim, double radius);

// Volume of the d-dimensional Linf ball (axis-aligned cube of half-width r).
double CubeVolume(int dim, double radius);

// Volume of the d-dimensional L1 ball (cross-polytope): (2r)^d / d!.
double CrossPolytopeVolume(int dim, double radius);

// x^a with the convention 0^a = 0 for a > 0, and 0^a treated as 0 for
// a <= 0 as well (a zero-density point contributes nothing to biased
// sampling regardless of the exponent sign; see BiasedSampler).
double SafePow(double x, double a);

// Element of the Halton low-discrepancy sequence: index i (>= 0) in the
// given prime base, in [0, 1).
double HaltonValue(uint64_t index, uint32_t base);

// The i-th prime (0-indexed) among the first 16 primes; used to pick Halton
// bases per dimension. i must be < 16.
uint32_t SmallPrime(int i);

// Greatest common divisor.
uint64_t Gcd(uint64_t a, uint64_t b);

// The largest double x with fl(x * k) <= t, where fl is the rounded
// product: x * k <= t holds exactly when x <= LargestFactorAtMost(k, t).
// Rounded multiplication by a positive k is monotone, which is what makes
// such an x exist and what lets a cap on a product become a cap on its
// factor with no tolerance. Returns +inf, meaning "no cap", when k is not
// positive and finite or when t is +inf or NaN.
double LargestFactorAtMost(double k, double t);

}  // namespace dbs

#endif  // DBS_UTIL_MATH_H_
